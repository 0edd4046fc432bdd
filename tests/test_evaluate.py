import itertools

import numpy as np
import pytest
from scipy import integrate
from scipy import special

from coldrec.evaluate import (average_precision, make_baseline_factors,
                              map_at_k, paired_ttest, random_factors, rank_items)
from feedback_oracle import feedback, to_dense


class TestRankItems:
    def test_descending_scores(self):
        items = np.array([[1.0], [3.0], [2.0]])
        assert rank_items(np.array([1.0]), items, 3).tolist() == [1, 2, 0]

    def test_ties_broken_by_index(self):
        items = np.array([[2.0], [2.0], [2.0]])
        assert rank_items(np.array([1.0]), items, 3).tolist() == [0, 1, 2]

    def test_cutoff_truncates(self):
        items = np.array([[1.0], [3.0], [2.0]])
        assert rank_items(np.array([1.0]), items, 1).tolist() == [1]

    def test_negative_user_flips_order(self):
        items = np.array([[1.0], [3.0], [2.0]])
        assert rank_items(np.array([-1.0]), items, 3).tolist() == [0, 2, 1]

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            rank_items(np.array([1.0]), np.ones((2, 1)), 0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            rank_items(np.ones(2), np.ones((2, 3)), 1)


class TestAveragePrecision:
    def test_perfect_two(self):
        assert average_precision([0, 1], {0, 1}, 5) == pytest.approx(1.0)

    def test_relevant_second(self):
        assert average_precision([1, 0], {0}, 5) == pytest.approx(0.5)

    def test_two_of_three(self):
        # relevant {A, C} ranked [A, B, C]: (1/1 + 2/3) / 2
        assert average_precision([0, 1, 2], {0, 2}, 5) == pytest.approx(0.833333, abs=1e-6)

    def test_min_normalizer_uses_cutoff(self):
        # 3 relevant but k=1: normalizer is 1, hit in first place -> AP 1.0
        assert average_precision([0, 1, 2], {0, 1, 2}, 1) == pytest.approx(1.0)

    def test_no_hits_zero(self):
        assert average_precision([3, 4], {0}, 5) == 0.0

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            average_precision([0], set(), 5)


def matrix_from_triples(triples, extra_users=()):
    users = list(dict.fromkeys([u for u, _, _ in triples] + list(extra_users)))
    items = list(dict.fromkeys(i for _, i, _ in triples))
    dense = np.zeros((len(users), len(items)), dtype=np.int64)
    for u, i, c in triples:
        dense[users.index(u), items.index(i)] += int(c)
    return feedback(dense, users, items)


def ap_oracle(ranked, relevant, k):
    """Literal prefix-precision enumeration, written independently."""
    score = 0.0
    for pos in range(min(k, len(ranked))):
        if ranked[pos] in relevant:
            prefix = ranked[:pos + 1]
            score += sum(1 for x in prefix if x in relevant) / (pos + 1)
    return score / min(len(relevant), k)


class TestExhaustiveEnumeration:
    def test_all_small_configurations_exact(self):
        """Every ranking of <=5 items against <=3 relevant, exact agreement."""
        for n_items in range(1, 6):
            items = list(range(n_items))
            for r in range(1, min(3, n_items) + 1):
                for relevant in itertools.combinations(items, r):
                    for perm in itertools.permutations(items):
                        for k in (1, 2, n_items):
                            got = average_precision(list(perm), set(relevant), k)
                            want = ap_oracle(list(perm), set(relevant), k)
                            assert abs(got - want) < 1e-12

    def test_map_matches_per_user_mean(self):
        entries = [("u1", "i0", 2.0), ("u2", "i1", 1.0), ("u2", "i2", 3.0)]
        test = matrix_from_triples(entries)
        rng = np.random.default_rng(0)
        uf = rng.normal(size=(test.n_users, 4))
        itf = rng.normal(size=(test.n_items, 4))
        report = map_at_k(uf, itf, test, k=3)
        want = np.mean([
            ap_oracle(rank_items(uf[u], itf, 3).tolist(),
                      set(np.flatnonzero(to_dense(test)[u]).tolist()), 3)
            for u in range(test.n_users)
        ])
        assert report.map_score == pytest.approx(want, abs=1e-12)


class TestMapAtK:
    def _matrix(self):
        entries = [("u1", "a", 1.0), ("u1", "b", 2.0), ("u2", "c", 1.0)]
        return matrix_from_triples(entries)

    def test_skips_empty_users(self):
        test = self._matrix()
        # u3 never appears, so only matrices built with them explicitly can
        # produce empty rows; rebuild with an extra all-zero user
        entries = [("u1", "a", 1.0), ("u2", "b", 1.0)]
        m2 = matrix_from_triples(entries, extra_users=["u3"])
        assert m2.user_ids == ["u1", "u2", "u3"]
        report = map_at_k(np.ones((3, 2)), np.ones((2, 2)), m2, k=2)
        assert report.n_skipped == 1
        assert report.n_users == 2

    def test_row_mismatch_rejected(self):
        test = self._matrix()
        with pytest.raises(ValueError):
            map_at_k(np.ones((1, 2)), np.ones((test.n_items, 2)), test, k=3)

    def test_perfect_factors_give_map_one(self):
        test = self._matrix()
        # item factors = one-hot on relevance per user -> relevant ranked first
        uf = np.array([[1.0, 0.0], [0.0, 1.0]])
        itf = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        report = map_at_k(uf, itf, test, k=3)
        assert report.map_score == pytest.approx(1.0)

    def test_standard_error(self):
        test = self._matrix()
        rng = np.random.default_rng(1)
        report = map_at_k(rng.normal(size=(2, 3)), rng.normal(size=(3, 3)), test, k=3)
        aps = report.ap_vector()
        assert report.standard_error() == pytest.approx(aps.std(ddof=1) / np.sqrt(2))

    def test_random_factors_match_permutation_model(self):
        """Random unit factors should score like a uniformly random ranking."""
        n_items, n_rel, k = 20, 3, 20
        entries = [(f"u{u}", f"i{i}", 1.0) for u in range(300) for i in range(n_rel)]
        # make all 20 items exist by giving one user full coverage
        entries += [("uall", f"i{i}", 1.0) for i in range(n_items)]
        test = matrix_from_triples(entries)
        rng = np.random.default_rng(2)
        uf = rng.normal(size=(test.n_users, 8))
        itf = rng.normal(size=(test.n_items, 8))
        report = map_at_k(uf, itf, test, k=k)
        # Monte-Carlo permutation oracle
        sim_rng = np.random.default_rng(3)
        sims = []
        for _ in range(4000):
            perm = sim_rng.permutation(n_items).tolist()
            sims.append(ap_oracle(perm, set(range(n_rel)), k))
        mean, sd = np.mean(sims), np.std(sims, ddof=1)
        se = np.sqrt(sd**2 / len(sims) + report.standard_error()**2)
        assert abs(report.map_score - mean) < 4 * se + 0.02


class TestPairedTTest:
    def test_identical_vectors_degenerate(self):
        r = paired_ttest([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        assert r.degenerate

    def test_symmetric_differences_give_p_one(self):
        r = paired_ttest([1.0, -1.0], [0.0, 0.0])
        assert r.t == pytest.approx(0.0)
        assert r.p == pytest.approx(1.0)

    def test_hand_example(self):
        # d = (0.1, 0.2, 0.3): mean 0.2, sd 0.1, t = 0.2/(0.1/sqrt(3))
        r = paired_ttest([0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
        assert r.t == pytest.approx(np.sqrt(12), abs=1e-4)
        assert r.p == pytest.approx(0.0742, abs=1e-4)

    def test_sign_symmetry(self):
        a = [0.5, 0.7, 0.2, 0.9]
        b = [0.1, 0.4, 0.3, 0.5]
        fwd = paired_ttest(a, b)
        rev = paired_ttest(b, a)
        assert fwd.t == pytest.approx(-rev.t)
        assert fwd.p == pytest.approx(rev.p)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            paired_ttest([0.1], [0.2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_ttest([0.1, 0.2], [0.1])

    def test_p_matches_numerical_integration(self):
        """Two-sided p computed by integrating the t density with quad."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            a = rng.normal(0.02, 0.05, size=n)
            b = rng.normal(0.0, 0.05, size=n)
            r = paired_ttest(a, b)
            if r.degenerate:
                continue
            nu = n - 1

            def density(x):
                c = special.gamma((nu + 1) / 2) / (np.sqrt(nu * np.pi) * special.gamma(nu / 2))
                return c * (1 + x * x / nu) ** (-(nu + 1) / 2)

            tail, _ = integrate.quad(density, abs(r.t), np.inf)
            assert r.p == pytest.approx(2 * tail, abs=1e-6)


class TestBaselines:
    def _test_matrix(self):
        rng = np.random.default_rng(5)
        entries = []
        for u in range(30):
            for i in rng.choice(40, size=5, replace=False):
                entries.append((f"u{u}", f"i{i}", float(1 + rng.integers(0, 5))))
        return matrix_from_triples(entries)

    def test_random_unit_rows(self):
        f = random_factors(40, k=8, seed=1)
        assert f.shape == (40, 8)
        assert np.allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-9)

    def test_random_deterministic(self):
        assert np.array_equal(random_factors(40, k=8, seed=1), random_factors(40, k=8, seed=1))

    def test_upper_bound_beats_random(self):
        from coldrec.wmf import WmfConfig
        test = self._test_matrix()
        itf, uf = make_baseline_factors(test, WmfConfig(k=8, iterations=10), 0)
        assert itf.shape == (test.n_items, 8) and uf.shape == (test.n_users, 8)
        upper = map_at_k(uf, itf, test, k=40).map_score
        rf = random_factors(test.n_items, k=8, seed=3)
        rng = np.random.default_rng(6)
        ruf = rng.normal(size=(test.n_users, 8))
        rand = map_at_k(ruf, rf, test, k=40).map_score
        assert upper > rand
