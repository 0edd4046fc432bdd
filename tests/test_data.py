import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldrec.data import (PARTS, DataError, FeedbackMatrix,
                          aggregate_to_artist, artist_of, load_artist_map, load_triples, save_triples,
                          split_by_artist)
from feedback_oracle import feedback, to_dense


def write_lines(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestLoadTriples:
    def test_single_entry(self, tmp_path):
        m = load_triples(write_lines(tmp_path, "t.tsv", ["u1\ts1\t3"]))
        assert m.user_ids == ["u1"]
        assert m.item_ids == ["s1"]
        assert to_dense(m)[0, 0] == 3

    def test_duplicates_sum(self, tmp_path):
        m = load_triples(write_lines(tmp_path, "t.tsv", ["u1\ts1\t2", "u1\ts1\t3"]))
        assert to_dense(m)[0, 0] == 5

    def test_zero_count_rejected_with_line_number(self, tmp_path):
        path = write_lines(tmp_path, "t.tsv", ["u1\ts1\t0"])
        with pytest.raises(DataError, match=r":1:"):
            load_triples(path)

    @pytest.mark.parametrize("line, field", [("\ts1\t1", "user"), ("u2\t\t1", "item")])
    def test_empty_id_names_file_and_line(self, tmp_path, line, field):
        path = write_lines(tmp_path, "t.tsv", ["u1\ts1\t1", line])
        with pytest.raises(DataError, match=re.escape(f"{path}:2: empty {field} id")):
            load_triples(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = write_lines(tmp_path, "t.tsv", ["u1\ts1\t1", "garbage line"])
        with pytest.raises(DataError, match=r":2:"):
            load_triples(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_triples(write_lines(tmp_path, "t.tsv", []))

    def test_first_appearance_order(self, tmp_path):
        m = load_triples(write_lines(tmp_path, "t.tsv",
                                     ["u2\tsB\t1", "u1\tsA\t1", "u2\tsA\t4"]))
        assert m.user_ids == ["u2", "u1"]
        assert m.item_ids == ["sB", "sA"]

    @settings(max_examples=50, deadline=None)
    @given(triples=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(1, 9)),
                            min_size=1, max_size=40))
    def test_matches_dense_sum_in_any_line_order(self, tmp_path_factory, triples):
        """Lines in any order, repeated pairs included: counts sum, ids keep
        first-appearance order, and save_triples writes the same counts back."""
        users = list(dict.fromkeys(f"u{u}" for u, _, _ in triples))
        items = list(dict.fromkeys(f"s{i}" for _, i, _ in triples))
        dense = np.zeros((len(users), len(items)), dtype=np.int64)
        for u, i, c in triples:
            dense[users.index(f"u{u}"), items.index(f"s{i}")] += c
        tmp = tmp_path_factory.mktemp("triples")
        m = load_triples(write_lines(tmp, "t.tsv", [f"u{u}\ts{i}\t{c}" for u, i, c in triples]))
        assert m.user_ids == users
        assert m.item_ids == items
        assert np.array_equal(to_dense(m), dense)

        save_triples(m, tmp / "out.tsv")
        m2 = load_triples(tmp / "out.tsv")
        assert m2.user_ids == m.user_ids
        assert sorted(m2.item_ids) == sorted(m.item_ids)
        # columns come back in their first appearance in the saved file
        cols = [m.item_ids.index(item) for item in m2.item_ids]
        assert np.array_equal(to_dense(m2), dense[:, cols])

    def test_round_trip(self, tmp_path):
        m = load_triples(write_lines(tmp_path, "t.tsv",
                                     ["u1\ts1\t3", "u2\ts2\t7", "u1\ts2\t1"]))
        save_triples(m, tmp_path / "out.tsv")
        m2 = load_triples(tmp_path / "out.tsv")
        assert m2.user_ids == m.user_ids
        assert m2.item_ids == m.item_ids
        assert np.array_equal(to_dense(m2), to_dense(m))

    def test_save_writes_the_per_line_writers_bytes(self, tmp_path):
        """One-pass formatting writes what one write per nonzero wrote, with
        entries given out of column order, an empty row and non-ASCII ids."""
        m = FeedbackMatrix(["u1", "ünï", "用户"], ["s0", "søng", "曲"],
                           [0, 0, 2, 2, 2], [2, 0, 1, 0, 2], [5, 2, 7, 1, 3])

        def per_line(m, path):
            dense = to_dense(m)
            with open(path, "w", encoding="utf-8") as fh:
                for u, i in zip(*np.nonzero(dense)):
                    fh.write(f"{m.user_ids[u]}\t{m.item_ids[i]}\t{dense[u, i]}\n")

        per_line(m, tmp_path / "want.tsv")
        save_triples(m, tmp_path / "got.tsv")
        got = (tmp_path / "got.tsv").read_bytes()
        assert got == (tmp_path / "want.tsv").read_bytes()
        assert got.decode("utf-8").splitlines()[0] == "u1\ts0\t2"


entry_lists = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 9)),
                       max_size=40)


def dense_sum(entries, shape=(5, 6)):
    dense = np.zeros(shape, dtype=np.int64)
    for r, c, n in entries:
        dense[r, c] += n
    return dense


def build(entries, shape=(5, 6)):
    rows, cols, counts = (list(field) for field in zip(*entries)) if entries else ([], [], [])
    return FeedbackMatrix([f"u{i}" for i in range(shape[0])], [f"s{i}" for i in range(shape[1])],
                          rows, cols, counts)


class TestFeedbackMatrix:
    @settings(max_examples=60, deadline=None)
    @given(entries=entry_lists)
    def test_sums_duplicates_drops_zeros_and_sorts_rows(self, entries):
        m = build(entries)
        assert np.array_equal(to_dense(m), dense_sum(entries))
        assert m.indptr[0] == 0 and m.indptr[-1] == len(m.indices) == len(m.counts)
        assert (m.counts >= 1).all()
        for u in range(m.n_users):
            assert (np.diff(m.indices[m.indptr[u]:m.indptr[u + 1]]) > 0).all()

    @settings(max_examples=40, deadline=None)
    @given(entries=entry_lists, rows=st.lists(st.integers(0, 4), unique=True),
           cols=st.lists(st.integers(0, 5), unique=True))
    def test_select_matches_dense(self, entries, rows, cols):
        m = build(entries)
        dense = dense_sum(entries)
        sub = m.select(rows=rows, cols=cols)
        assert sub.user_ids == [f"u{r}" for r in rows]
        assert sub.item_ids == [f"s{c}" for c in cols]
        assert np.array_equal(to_dense(sub), dense[np.ix_(rows, cols)])
        assert np.array_equal(to_dense(m.select(rows=rows)), dense[rows])
        assert np.array_equal(to_dense(m.select(cols=cols)), dense[:, cols])
        # the CSR arrays the entry constructor builds for the same submatrix
        for got, part in ((sub, dense[np.ix_(rows, cols)]), (m.select(rows=rows), dense[rows]),
                          (m.select(cols=cols), dense[:, cols])):
            want = feedback(part, got.user_ids, got.item_ids)
            for field in ("indptr", "indices", "counts"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
                assert getattr(got, field).dtype == getattr(want, field).dtype, field

    @settings(max_examples=40, deadline=None)
    @given(entries=entry_lists)
    def test_item_major_view_round_trips(self, entries):
        m = build(entries)
        t = m.transpose()
        assert (t.user_ids, t.item_ids) == (m.item_ids, m.user_ids)
        assert np.array_equal(to_dense(t), dense_sum(entries).T)
        back = t.transpose()
        for field in ("indptr", "indices", "counts"):
            assert np.array_equal(getattr(back, field), getattr(m, field))
        rows, cols, counts = m.entries()
        assert np.array_equal(to_dense(FeedbackMatrix(m.user_ids, m.item_ids, rows, cols, counts)),
                              to_dense(m))

    def test_negative_sum_rejected(self):
        with pytest.raises(DataError, match="^feedback counts must be >= 1$"):
            build([(0, 0, 2), (1, 1, -3)])

    @pytest.mark.parametrize("entry", [(5, 0, 1), (0, 6, 1), (-1, 0, 1)])
    def test_entry_outside_the_ids_rejected(self, entry):
        with pytest.raises(DataError, match=r"^count matrix shape \(-?\d+, -?\d+\) does not match "
                                            r"5 users x 6 items$"):
            build([(0, 0, 1), entry])


class TestLoadArtistMap:
    def test_duplicate_item_names_line(self, tmp_path):
        path = write_lines(tmp_path, "m.tsv", ["s1\ta1", "s2\ta1", "s1\ta2"])
        with pytest.raises(DataError, match=re.escape(f"{path}:3: duplicate item 's1'")):
            load_artist_map(path)

    def test_plain_dict_and_missing_item_named(self, tmp_path):
        path = write_lines(tmp_path, "m.tsv", ["s2\ta1", "s1\ta2"])
        am = load_artist_map(path)
        assert type(am) is dict and list(am.items()) == [("s2", "a1"), ("s1", "a2")]
        assert artist_of(am, "s1") == "a2"
        with pytest.raises(DataError, match="^item 's3' has no artist mapping$"):
            artist_of(am, "s3")


class TestAggregate:
    def test_same_artist_sums(self):
        m = feedback([[2, 3]], ["u"], ["s1", "s2"])
        r = aggregate_to_artist(m, {"s1": "a", "s2": "a"})
        assert r.item_ids == ["a"]
        assert to_dense(r)[0, 0] == 5

    def test_one_song_per_artist_is_identity(self):
        m = feedback([[1, 0], [0, 4]], ["u1", "u2"], ["s1", "s2"])
        r = aggregate_to_artist(m, {"s1": "a1", "s2": "a2"})
        assert np.array_equal(to_dense(r), to_dense(m))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        dense = rng.integers(0, 4, size=(3, 4))
        users = [f"u{i}" for i in range(3)]
        songs = [f"s{i}" for i in range(4)]
        artists = {"s0": "a0", "s1": "a0", "s2": "a1", "s3": "a1"}
        m = feedback(dense, users, songs)
        r = aggregate_to_artist(m, artists)
        expected = np.zeros((3, 2), dtype=np.int64)
        for u in range(3):
            for s in range(4):
                expected[u, int(artists[songs[s]][1])] += dense[u, s]
        assert np.array_equal(to_dense(r), expected)

    def test_missing_artist_errors(self):
        m = feedback([[1]], ["u"], ["s1"])
        with pytest.raises(DataError, match="s1"):
            aggregate_to_artist(m, {})

    def test_preserves_total_plays(self):
        rng = np.random.default_rng(3)
        dense = rng.integers(0, 5, size=(4, 6))
        m = feedback(dense)
        am = {f"s{i}": f"a{i % 2}" for i in range(6)}
        assert aggregate_to_artist(m, am).counts.sum() == dense.sum()


def _matrix_with_artists(n_artists=10, songs_per=2, n_users=4, seed=0):
    rng = np.random.default_rng(seed)
    songs = [f"a{a}_s{s}" for a in range(n_artists) for s in range(songs_per)]
    am = {s: s.split("_")[0] for s in songs}
    dense = rng.integers(0, 3, size=(n_users, len(songs)))
    dense[0, 0] = 1  # never fully empty
    m = feedback(dense, item_ids=songs)
    return m, am


class TestSplit:
    def test_floor_rounding(self):
        m, am = _matrix_with_artists(n_artists=10)
        _, assignment = split_by_artist(m, am, (0.8, 0.1, 0.1), seed=1)
        sizes = {p: sum(1 for v in assignment.values() if v == p) for p in PARTS}
        assert sizes == {"train": 8, "val": 1, "test": 1}

    def test_degenerate_all_train(self):
        m, am = _matrix_with_artists()
        parts, _ = split_by_artist(m, am, (1.0, 0.0, 0.0), seed=0)
        assert parts["val"].n_items == 0
        assert parts["test"].n_items == 0
        assert parts["train"].n_items == m.n_items

    def test_deterministic(self):
        m, am = _matrix_with_artists()
        _, a1 = split_by_artist(m, am, (0.8, 0.1, 0.1), seed=42)
        _, a2 = split_by_artist(m, am, (0.8, 0.1, 0.1), seed=42)
        assert a1 == a2

    def test_bad_ratios(self):
        m, am = _matrix_with_artists()
        with pytest.raises(DataError, match="sum to 1"):
            split_by_artist(m, am, (0.5, 0.2, 0.2), seed=0)

    @pytest.mark.parametrize("ratios, part", [((1.0, -0.1, 0.1), "val"),
                                              ((-0.2, 0.6, 0.6), "train")])
    def test_negative_ratio_rejected(self, ratios, part):
        m, am = _matrix_with_artists()
        with pytest.raises(DataError, match=rf"'{part}' must be >= 0, got -0\.\d"):
            split_by_artist(m, am, ratios, seed=0)

    def test_zero_artist_partition_rejected(self):
        m, am = _matrix_with_artists(n_artists=3)
        with pytest.raises(DataError, match="zero artists"):
            split_by_artist(m, am, (0.98, 0.01, 0.01), seed=0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n_artists=st.integers(5, 20))
    def test_artist_disjointness_and_totals(self, seed, n_artists):
        m, am = _matrix_with_artists(n_artists=n_artists, seed=seed % 17)
        parts, assignment = split_by_artist(m, am, (0.6, 0.2, 0.2), seed=seed)
        by_part = {p: {a for a, v in assignment.items() if v == p} for p in PARTS}
        assert not by_part["train"] & by_part["val"]
        assert not by_part["train"] & by_part["test"]
        assert not by_part["val"] & by_part["test"]
        assert sum(to_dense(parts[p]).sum() for p in PARTS) == to_dense(m).sum()
        assert set().union(*(parts[p].item_ids for p in PARTS)) == set(m.item_ids)
