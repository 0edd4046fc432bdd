"""Feedback matrices, artist maps, and artist-disjoint splitting."""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


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


@dataclass
class FeedbackMatrix:
    """Sparse user x item play-count matrix.

    Stored counts are always >= 1; a zero count is simply absent. Row/column
    indices are dense, 0-based, and aligned with ``user_ids`` / ``item_ids``.
    """

    user_ids: list[str]
    item_ids: list[str]
    counts: sp.csr_matrix  # int64, shape (len(user_ids), len(item_ids))

    def __post_init__(self):
        self.counts = sp.csr_matrix(self.counts, dtype=np.int64)
        self.counts.eliminate_zeros()
        if self.counts.shape != (len(self.user_ids), len(self.item_ids)):
            raise DataError(
                f"count matrix shape {self.counts.shape} does not match "
                f"{len(self.user_ids)} users x {len(self.item_ids)} items"
            )
        if self.counts.nnz and self.counts.data.min() < 1:
            raise DataError("feedback counts must be >= 1")

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)


@dataclass
class ArtistMap:
    """Total map from item identifier to artist identifier."""

    item_to_artist: dict[str, str]

    def artist_of(self, item: str) -> str:
        try:
            return self.item_to_artist[item]
        except KeyError:
            raise DataError(f"item {item!r} has no artist mapping") from None


# the parts of an artist-disjoint split, in the order artists are dealt to them
PARTS = ("train", "val", "test")


def load_triples(path) -> FeedbackMatrix:
    """Read a `user<TAB>item<TAB>count` TSV into a FeedbackMatrix.

    Duplicate (user, item) lines sum their counts. Identifier order is
    first-appearance order.
    """
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    counts: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
            user, item, count_s = parts
            try:
                count = int(count_s)
            except ValueError:
                raise DataError(f"{path}:{lineno}: count {count_s!r} is not an integer") from None
            if count < 1:
                raise DataError(f"{path}:{lineno}: count must be >= 1, got {count}")
            rows.append(user_index.setdefault(user, len(user_index)))
            cols.append(item_index.setdefault(item, len(item_index)))
            counts.append(count)
    if not counts:
        raise DataError(f"{path}: empty triples file")
    # the COO -> CSR conversion sums duplicate (user, item) pairs
    mat = sp.csr_matrix((np.array(counts, dtype=np.int64), (rows, cols)),
                        shape=(len(user_index), len(item_index)))
    return FeedbackMatrix(list(user_index), list(item_index), mat)


def save_triples(m: FeedbackMatrix, path) -> None:
    """Write a FeedbackMatrix as a TSV, one line per nonzero in row-major order.

    load_triples reads back the same counts and user order; items come back
    in their first appearance in the file, which can differ from ``item_ids``.
    """
    coo = m.counts.tocoo()
    order = np.lexsort((coo.col, coo.row))
    users = np.array(m.user_ids, dtype=object)[coo.row[order]]
    items = np.array(m.item_ids, dtype=object)[coo.col[order]]
    with replacing(path) as fh:
        fh.writelines(f"{u}\t{i}\t{c}\n"
                      for u, i, c in zip(users, items, coo.data[order].tolist()))


def load_artist_map(path) -> ArtistMap:
    """Read an `item<TAB>artist` TSV; an item listed twice is a DataError."""
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 tab-separated fields")
            if parts[0] in mapping:
                raise DataError(f"{path}:{lineno}: duplicate item {parts[0]!r}")
            mapping[parts[0]] = parts[1]
    return ArtistMap(mapping)


def save_artist_map(am: ArtistMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item, artist in am.item_to_artist.items():
            fh.write(f"{item}\t{artist}\n")


def aggregate_to_artist(m: FeedbackMatrix, am: ArtistMap) -> FeedbackMatrix:
    """Sum each user's play counts over every artist's songs.

    Result rows are the users of ``m``; columns are the distinct artists of
    its items in first-appearance order.
    """
    artist_index: dict[str, int] = {}
    col_to_artist = np.empty(m.n_items, dtype=np.int64)
    for i, item in enumerate(m.item_ids):
        artist = am.artist_of(item)
        col_to_artist[i] = artist_index.setdefault(artist, len(artist_index))
    n_artists = len(artist_index)
    # item -> artist aggregation as a sparse 0/1 matrix product
    agg = sp.csr_matrix(
        (np.ones(m.n_items, dtype=np.int64), (np.arange(m.n_items), col_to_artist)),
        shape=(m.n_items, n_artists),
    )
    return FeedbackMatrix(list(m.user_ids), list(artist_index), m.counts @ agg)


def split_by_artist(
    m: FeedbackMatrix,
    am: ArtistMap,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[dict[str, FeedbackMatrix], dict[str, str]]:
    """Partition a feedback matrix by artist into train/val/test.

    Artists are shuffled by a seeded generator and partitioned by the ratios:
    validation and test sizes are floored, the remainder goes to train. Each
    item's whole feedback column follows its artist. Users are shared across
    the parts. Returns the part matrices keyed by `PARTS` and the
    artist -> part assignment.
    """
    r_train, r_val, r_test = ratios
    for part, ratio in zip(PARTS, ratios):
        if ratio < 0:
            raise DataError(f"split ratio for {part!r} must be >= 0, got {ratio:g}")
    if abs(r_train + r_val + r_test - 1.0) > 1e-9:
        raise DataError(f"split ratios must sum to 1, got {ratios}")
    artists = sorted({am.artist_of(item) for item in m.item_ids})
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
        cols = [i for i, item in enumerate(m.item_ids) if assignment[am.artist_of(item)] == part]
        sub = m.counts[:, cols] if cols else sp.csr_matrix((m.n_users, 0), dtype=np.int64)
        parts[part] = FeedbackMatrix(list(m.user_ids), [m.item_ids[i] for i in cols], sub)
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
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            artist, _, part = line.partition("\t")
            if part not in PARTS:
                raise DataError(f"{path}:{lineno}: unknown partition {part!r}")
            assignment[artist] = part
    return assignment
