"""Feedback matrices, artist maps, and artist-disjoint splitting."""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np


class DataError(ValueError):
    """Malformed input data (bad triples, missing mappings, bad ratios)."""


@contextmanager
def replacing(path, mode: str = "w"):
    """A file opened beside ``path``, as UTF-8 text or with ``mode="wb"`` as
    bytes, that replaces it only once the block finishes; on any error it is
    removed and ``path`` is left as it was."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class FeedbackMatrix:
    """Sparse user x item play-count matrix, held as numpy CSR arrays.

    Row u's nonzeros are the columns ``indices[indptr[u]:indptr[u + 1]]``, in
    ascending order, with play counts ``counts[indptr[u]:indptr[u + 1]]``.
    Stored counts are always >= 1; a zero count is simply absent. Row/column
    indices are dense, 0-based, and aligned with ``user_ids`` / ``item_ids``.
    """

    def __init__(self, user_ids: list[str], item_ids: list[str], rows, cols, counts):
        """Build the matrix from (row, column, count) entries: duplicate
        entries sum, sums of zero are dropped and each row's columns are sorted."""
        self.user_ids, self.item_ids = user_ids, item_ids
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        shape = (int(rows.max(initial=-1)) + 1, int(cols.max(initial=-1)) + 1)
        if (shape[0] > self.n_users or shape[1] > self.n_items
                or rows.min(initial=0) < 0 or cols.min(initial=0) < 0):
            raise DataError(f"count matrix shape {shape} does not match "
                            f"{self.n_users} users x {self.n_items} items")
        keys, at = np.unique(rows * self.n_items + cols, return_inverse=True)
        summed = np.zeros(len(keys), dtype=np.int64)
        np.add.at(summed, at, np.asarray(counts).astype(np.int64))
        nonzero = summed != 0
        keys, self.counts = keys[nonzero], summed[nonzero]
        if self.counts.min(initial=1) < 1:
            raise DataError("feedback counts must be >= 1")
        rows, self.indices = np.divmod(keys, max(self.n_items, 1))
        self.indptr = np.zeros(self.n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n_users), out=self.indptr[1:])

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (rows, cols, counts) of every nonzero in row-major order."""
        rows = np.repeat(np.arange(self.n_users), np.diff(self.indptr))
        return rows, self.indices, self.counts

    def select(self, rows=slice(None), cols=slice(None)) -> FeedbackMatrix:
        """The submatrix of the given users and items (distinct indices, or a
        slice), in the order given."""
        row_sel = np.arange(self.n_users)[rows]
        col_sel = np.arange(self.n_items)[cols]
        row_at = np.full(self.n_users, -1)
        row_at[row_sel] = np.arange(len(row_sel))
        col_at = np.full(self.n_items, -1)
        col_at[col_sel] = np.arange(len(col_sel))
        r, c, counts = self.entries()
        r, c = row_at[r], col_at[c]
        keep = (r >= 0) & (c >= 0)
        return FeedbackMatrix([self.user_ids[u] for u in row_sel],
                              [self.item_ids[i] for i in col_sel], r[keep], c[keep], counts[keep])

    def transpose(self) -> FeedbackMatrix:
        """The item x user matrix of the same counts: one CSR row per item."""
        rows, cols, counts = self.entries()
        return FeedbackMatrix(self.item_ids, self.user_ids, cols, rows, counts)


def artist_of(mapping: dict[str, str], item: str) -> str:
    """The artist of ``item`` in an item -> artist map; a missing item is a DataError."""
    try:
        return mapping[item]
    except KeyError:
        raise DataError(f"item {item!r} has no artist mapping") from None


# the parts of an artist-disjoint split, in the order artists are dealt to them
PARTS = ("train", "val", "test")


def _tsv_lines(path, ids: tuple[str, ...], width: int):
    """The (line number, fields) of each non-blank line of a TSV of `width`
    fields, the first of which are the named ids; a line of another width or
    with an empty id is a DataError naming the line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != width:
                raise DataError(f"{path}:{lineno}: expected {width} tab-separated fields")
            for name, value in zip(ids, parts):
                if not value:
                    raise DataError(f"{path}:{lineno}: empty {name} id")
            yield lineno, parts


# most plays one (user, item) pair may count, over every line that names it: a
# sum of fewer than 2**32 such counts, as duplicate lines and artist aggregation
# make, stays below 2**63
MAX_COUNT = 2**31 - 1


def load_triples(path) -> FeedbackMatrix:
    """Read a `user<TAB>item<TAB>count` TSV into a FeedbackMatrix.

    Each count is in [1, `MAX_COUNT`]. Duplicate (user, item) lines sum their
    counts, and each sum is in the same range, so `save_triples` writes back
    only counts this reads. Identifier order is first-appearance order.
    """
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    counts: list[int] = []
    for lineno, (user, item, count_s) in _tsv_lines(path, ("user", "item"), 3):
        try:
            count = int(count_s)
        except ValueError:
            raise DataError(f"{path}:{lineno}: count {count_s!r} is not an integer") from None
        if not 1 <= count <= MAX_COUNT:
            raise DataError(f"{path}:{lineno}: count must be in [1, {MAX_COUNT}], got {count}")
        rows.append(user_index.setdefault(user, len(user_index)))
        cols.append(item_index.setdefault(item, len(item_index)))
        counts.append(count)
    if not counts:
        raise DataError(f"{path}: empty triples file")
    m = FeedbackMatrix(list(user_index), list(item_index), rows, cols, counts)
    over = np.flatnonzero(m.counts > MAX_COUNT)
    if len(over):
        r, c, summed = (a[over[0]] for a in m.entries())
        raise DataError(f"{path}: the lines of user {m.user_ids[r]!r} and item "
                        f"{m.item_ids[c]!r} sum to {summed} plays, above {MAX_COUNT}")
    return m


def save_triples(m: FeedbackMatrix, path) -> None:
    """Write a FeedbackMatrix as a TSV, one line per nonzero in row-major order.

    load_triples reads back the same counts and user order; items come back
    in their first appearance in the file, which can differ from ``item_ids``.
    """
    rows, cols, counts = m.entries()
    users = np.array(m.user_ids, dtype=object)[rows]
    items = np.array(m.item_ids, dtype=object)[cols]
    with replacing(path) as fh:
        fh.writelines(f"{u}\t{i}\t{c}\n" for u, i, c in zip(users, items, counts.tolist()))


def load_artist_map(path) -> dict[str, str]:
    """Read an `item<TAB>artist` TSV; an empty id or an item listed twice is a DataError."""
    mapping: dict[str, str] = {}
    for lineno, (item, artist) in _tsv_lines(path, ("item", "artist"), 2):
        if item in mapping:
            raise DataError(f"{path}:{lineno}: duplicate item {item!r}")
        mapping[item] = artist
    return mapping


def save_artist_map(am: dict[str, str], path) -> None:
    with replacing(path) as fh:
        for item, artist in am.items():
            fh.write(f"{item}\t{artist}\n")


def aggregate_to_artist(m: FeedbackMatrix, am: dict[str, str]) -> FeedbackMatrix:
    """Sum each user's play counts over every artist's songs.

    Result rows are the users of ``m``; columns are the distinct artists of
    its items in first-appearance order.
    """
    artist_index: dict[str, int] = {}
    col_to_artist = np.empty(m.n_items, dtype=np.int64)
    for i, item in enumerate(m.item_ids):
        artist = artist_of(am, item)
        col_to_artist[i] = artist_index.setdefault(artist, len(artist_index))
    rows, cols, counts = m.entries()
    return FeedbackMatrix(list(m.user_ids), list(artist_index), rows, col_to_artist[cols], counts)


def check_ratios(ratios: tuple[float, float, float]) -> None:
    """Split ratios, one per part of `PARTS`, must be >= 0 and sum to 1."""
    for part, ratio in zip(PARTS, ratios):
        if ratio < 0:
            raise DataError(f"split ratio for {part!r} must be >= 0, got {ratio:g}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"split ratios must sum to 1, got {ratios}")


def split_by_artist(
    m: FeedbackMatrix,
    am: dict[str, str],
    ratios: tuple[float, float, float],
    seed: int,
) -> tuple[dict[str, FeedbackMatrix], dict[str, str]]:
    """Partition a feedback matrix by artist into train/val/test.

    Artists are shuffled by a seeded generator and partitioned by the ratios:
    validation and test sizes are floored, the remainder goes to train. Each
    item's whole feedback column follows its artist. Users are shared across
    the parts. Returns the part matrices keyed by `PARTS` and the
    artist -> part assignment.
    """
    check_ratios(ratios)
    r_train, r_val, r_test = ratios
    artists = sorted({artist_of(am, item) for item in m.item_ids})
    n = len(artists)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = int(n * r_val)
    n_test = int(n * r_test)
    n_train = n - n_val - n_test
    for count, ratio, name in ((n_train, r_train, "train"), (n_val, r_val, "val"), (n_test, r_test, "test")):
        if ratio > 0 and count == 0:
            raise DataError(f"partition {name!r} has positive ratio but received zero artists")
    assignment: dict[str, str] = {}
    for rank, idx in enumerate(perm):
        if rank < n_train:
            part = "train"
        elif rank < n_train + n_val:
            part = "val"
        else:
            part = "test"
        assignment[artists[idx]] = part
    parts = {}
    for part in PARTS:
        parts[part] = m.select(cols=[i for i, item in enumerate(m.item_ids)
                                     if assignment[artist_of(am, item)] == part])
    return parts, assignment


def save_split(split: tuple[dict[str, FeedbackMatrix], dict[str, str]], out_dir) -> None:
    """Persist `split_by_artist`'s result as one triples file per part plus
    artist_assignment.tsv."""
    parts, assignment = split
    os.makedirs(out_dir, exist_ok=True)
    for part in PARTS:
        save_triples(parts[part], os.path.join(out_dir, f"{part}.tsv"))
    with replacing(os.path.join(out_dir, "artist_assignment.tsv")) as fh:
        for artist, part in sorted(assignment.items()):
            fh.write(f"{artist}\t{part}\n")


def load_assignment(path) -> dict[str, str]:
    assignment: dict[str, str] = {}
    for lineno, (artist, part) in _tsv_lines(path, ("artist",), 2):
        if part not in PARTS:
            raise DataError(f"{path}:{lineno}: unknown partition {part!r}")
        assignment[artist] = part
    return assignment
