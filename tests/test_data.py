import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from coldrec.data import (PARTS, ArtistMap, DataError, FeedbackMatrix,
                          aggregate_to_artist, load_artist_map, load_triples, save_triples,
                          split_by_artist)


def write_lines(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestLoadTriples:
    def test_single_entry(self, tmp_path):
        m = load_triples(write_lines(tmp_path, "t.tsv", ["u1\ts1\t3"]))
        assert m.user_ids == ["u1"]
        assert m.item_ids == ["s1"]
        assert m.counts[0, 0] == 3

    def test_duplicates_sum(self, tmp_path):
        m = load_triples(write_lines(tmp_path, "t.tsv", ["u1\ts1\t2", "u1\ts1\t3"]))
        assert m.counts[0, 0] == 5

    def test_zero_count_rejected_with_line_number(self, tmp_path):
        path = write_lines(tmp_path, "t.tsv", ["u1\ts1\t0"])
        with pytest.raises(DataError, match=r":1:"):
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
        assert np.array_equal(m.counts.toarray(), dense)

        save_triples(m, tmp / "out.tsv")
        m2 = load_triples(tmp / "out.tsv")
        assert m2.user_ids == m.user_ids
        assert sorted(m2.item_ids) == sorted(m.item_ids)
        # columns come back in their first appearance in the saved file
        cols = [m.item_ids.index(item) for item in m2.item_ids]
        assert np.array_equal(m2.counts.toarray(), dense[:, cols])

    def test_round_trip(self, tmp_path):
        m = load_triples(write_lines(tmp_path, "t.tsv",
                                     ["u1\ts1\t3", "u2\ts2\t7", "u1\ts2\t1"]))
        save_triples(m, tmp_path / "out.tsv")
        m2 = load_triples(tmp_path / "out.tsv")
        assert m2.user_ids == m.user_ids
        assert m2.item_ids == m.item_ids
        assert (m2.counts != m.counts).nnz == 0

    def test_save_writes_the_per_line_writers_bytes(self, tmp_path):
        """One-pass formatting writes what one write per nonzero wrote, with
        unsorted CSR indices, an empty row and non-ASCII ids."""
        counts = sp.csr_matrix((np.array([5, 2, 7, 1, 3]), np.array([2, 0, 1, 0, 2]),
                                np.array([0, 2, 2, 5])), shape=(3, 3))
        assert not counts.has_sorted_indices
        m = FeedbackMatrix(["u1", "ünï", "用户"], ["s0", "søng", "曲"], counts)

        def per_line(m, path):
            coo = m.counts.tocoo()
            order = np.lexsort((coo.col, coo.row))
            with open(path, "w", encoding="utf-8") as fh:
                for idx in order:
                    u, i, c = coo.row[idx], coo.col[idx], coo.data[idx]
                    fh.write(f"{m.user_ids[u]}\t{m.item_ids[i]}\t{c}\n")

        per_line(m, tmp_path / "want.tsv")
        save_triples(m, tmp_path / "got.tsv")
        got = (tmp_path / "got.tsv").read_bytes()
        assert got == (tmp_path / "want.tsv").read_bytes()
        assert got.decode("utf-8").splitlines()[0] == "u1\ts0\t2"


class TestLoadArtistMap:
    def test_duplicate_item_names_line(self, tmp_path):
        path = write_lines(tmp_path, "m.tsv", ["s1\ta1", "s2\ta1", "s1\ta2"])
        with pytest.raises(DataError, match=re.escape(f"{path}:3: duplicate item 's1'")):
            load_artist_map(path)


class TestAggregate:
    def test_same_artist_sums(self):
        m = FeedbackMatrix(["u"], ["s1", "s2"], sp.csr_matrix([[2, 3]]))
        r = aggregate_to_artist(m, ArtistMap({"s1": "a", "s2": "a"}))
        assert r.item_ids == ["a"]
        assert r.counts[0, 0] == 5

    def test_one_song_per_artist_is_identity(self):
        m = FeedbackMatrix(["u1", "u2"], ["s1", "s2"], sp.csr_matrix([[1, 0], [0, 4]]))
        r = aggregate_to_artist(m, ArtistMap({"s1": "a1", "s2": "a2"}))
        assert (r.counts != m.counts).nnz == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        dense = rng.integers(0, 4, size=(3, 4))
        users = [f"u{i}" for i in range(3)]
        songs = [f"s{i}" for i in range(4)]
        artists = {"s0": "a0", "s1": "a0", "s2": "a1", "s3": "a1"}
        m = FeedbackMatrix(users, songs, sp.csr_matrix(dense))
        r = aggregate_to_artist(m, ArtistMap(artists))
        expected = np.zeros((3, 2), dtype=np.int64)
        for u in range(3):
            for s in range(4):
                expected[u, int(artists[songs[s]][1])] += dense[u, s]
        assert np.array_equal(r.counts.toarray(), expected)

    def test_missing_artist_errors(self):
        m = FeedbackMatrix(["u"], ["s1"], sp.csr_matrix([[1]]))
        with pytest.raises(DataError, match="s1"):
            aggregate_to_artist(m, ArtistMap({}))

    def test_preserves_total_plays(self):
        rng = np.random.default_rng(3)
        dense = rng.integers(0, 5, size=(4, 6))
        m = FeedbackMatrix([f"u{i}" for i in range(4)], [f"s{i}" for i in range(6)],
                           sp.csr_matrix(dense))
        am = ArtistMap({f"s{i}": f"a{i % 2}" for i in range(6)})
        assert aggregate_to_artist(m, am).counts.sum() == m.counts.sum()


def _matrix_with_artists(n_artists=10, songs_per=2, n_users=4, seed=0):
    rng = np.random.default_rng(seed)
    songs = [f"a{a}_s{s}" for a in range(n_artists) for s in range(songs_per)]
    am = ArtistMap({s: s.split("_")[0] for s in songs})
    dense = rng.integers(0, 3, size=(n_users, len(songs)))
    dense[0, 0] = 1  # never fully empty
    m = FeedbackMatrix([f"u{i}" for i in range(n_users)], songs, sp.csr_matrix(dense))
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
        assert sum(parts[p].counts.sum() for p in PARTS) == m.counts.sum()
        assert set().union(*(parts[p].item_ids for p in PARTS)) == set(m.item_ids)
