import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack

from coldrec.data import FeedbackMatrix
from coldrec.evaluate import rank_items
from coldrec.wmf import (INIT_SCALE, FactorModel, WmfConfig, _half_sweep, als_objective,
                         factorize_wmf, solve_row)


def random_matrix(n_users, n_items, seed=0, density=0.5):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_users, n_items)) < density) * rng.integers(1, 6, (n_users, n_items))
    dense[0, 0] = max(dense[0, 0], 1)
    return FeedbackMatrix([f"u{i}" for i in range(n_users)],
                          [f"s{i}" for i in range(n_items)],
                          sp.csr_matrix(dense))


def brute_objective(x, y, dense, alpha, lam):
    total = 0.0
    for u in range(dense.shape[0]):
        for i in range(dense.shape[1]):
            c = 1.0 + alpha * dense[u, i]
            p = 1.0 if dense[u, i] > 0 else 0.0
            total += c * (p - x[u] @ y[i]) ** 2
    return total + lam * ((x * x).sum() + (y * y).sum())


def solve(y, indices, counts, alpha, lam):
    """solve_row with the per-half-sweep inputs built as _half_sweep builds them."""
    conf = 1.0 + alpha * np.asarray(counts, dtype=np.float64)
    return solve_row(y, indices, conf, y.T @ y, lam * np.eye(y.shape[1]))


def reference_factorize(m, cfg):
    """Reference ALS with all work per row: every row casts its counts and rebuilds lam*I,
    and the item rows are transposed again on every sweep."""
    rng = np.random.default_rng(cfg.seed)
    x = rng.normal(0.0, INIT_SCALE, size=(m.n_users, cfg.k))
    y = rng.normal(0.0, INIT_SCALE, size=(m.n_items, cfg.k))

    def half_sweep(target, other, rows):
        gram = other.T @ other
        for r in range(target.shape[0]):
            lo, hi = rows.indptr[r], rows.indptr[r + 1]
            if lo == hi:
                target[r] = np.zeros(cfg.k)
                continue
            y_nz = other[rows.indices[lo:hi]]
            conf = 1.0 + cfg.alpha * rows.data[lo:hi].astype(np.float64)
            a = gram + y_nz.T @ ((conf - 1.0)[:, None] * y_nz) + cfg.lam * np.eye(cfg.k)
            _, target[r], info = lapack.dposv(a, y_nz.T @ conf)
            assert info == 0

    csc = m.counts.tocsc()
    for _ in range(cfg.iterations):
        half_sweep(x, y, m.counts.tocsr())
        half_sweep(y, x, csc.T.tocsr())
    return x, y


class TestSolveRow:
    def test_empty_row_is_zero(self):
        y = np.random.default_rng(0).normal(size=(5, 3))
        x = solve(y, np.array([], dtype=int), np.array([]), alpha=10, lam=0.1)
        assert np.array_equal(x, np.zeros(3))

    def test_scalar_closed_form(self):
        # k=1, one item y=1, count=1, alpha=1: x = c/(c + lam) with c = 2
        y = np.array([[1.0]])
        lam = 1e-9
        x = solve(y, np.array([0]), np.array([1]), alpha=1.0, lam=lam)
        assert x[0] == pytest.approx(2.0 / (2.0 + lam), rel=1e-9)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            y = rng.normal(size=(8, 4))
            counts_dense = (rng.random(8) < 0.6) * rng.integers(1, 5, 8)
            idx = np.flatnonzero(counts_dense)
            alpha, lam = 7.0, 0.05
            x = solve(y, idx, counts_dense[idx], alpha, lam)
            conf = 1.0 + alpha * counts_dense
            p = (counts_dense > 0).astype(float)
            a = y.T @ np.diag(conf) @ y + lam * np.eye(4)
            b = y.T @ (conf * p)
            expected = np.linalg.solve(a, b)
            assert np.allclose(x, expected, atol=1e-10)

    @pytest.mark.parametrize("alpha, lam", [(-10.0, 0.1), (1.0, -10.0)],
                             ids=["indefinite", "negative-lambda"])
    def test_bad_system_rejected(self, alpha, lam):
        y = np.array([[1.0], [1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            solve(y, np.array([1]), np.array([1]), alpha=alpha, lam=lam)


# direct calls run outside factorize_wmf's errstate, so overflow warns here
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestHalfSweepGuard:
    rows = sp.csr_matrix(np.array([[0, 1]]))

    @pytest.mark.parametrize("y", [
        np.array([[np.nan], [1.0]]),
        # an infinite factor outside the row's items: the Cholesky solve alone
        # would return a finite 0 here
        np.array([[np.inf], [1.0]]),
    ], ids=["nan", "inf-outside-row"])
    def test_non_finite_other_factors_rejected(self, y):
        target = np.zeros((1, 1))
        with pytest.raises(ValueError, match="non-finite factors in sweep 3"):
            _half_sweep(target, y, self.rows, 1.0, 0.1, sweep=3)

    def test_overflowing_confidence_rejected(self):
        with pytest.raises(ValueError, match=r"alpha 1e\+308, lambda 0\.1"):
            _half_sweep(np.zeros((1, 1)), np.array([[2.0], [2.0]]), self.rows * 10,
                        1e308, 0.1, sweep=1)

    def test_overflowing_output_rejected(self):
        # every row system is finite (diagonal 4e307), but its right-hand
        # side, ten entries of 1e308 * 0.2, overflows
        with pytest.raises(ValueError, match="sweep 1"):
            _half_sweep(np.zeros((1, 1)), np.full((10, 1), 0.2), sp.csr_matrix(np.ones((1, 10))),
                        1e308, 0.1, sweep=1)


class TestObjective:
    def test_all_zero(self):
        m = FeedbackMatrix(["u"], ["s"], sp.csr_matrix(np.array([[1]])))
        m.counts = sp.csr_matrix((1, 1), dtype=np.int64)
        model = FactorModel(np.zeros((1, 2)), np.zeros((1, 2)))
        assert als_objective(model, m, alpha=40, lam=0.1) == 0.0

    def test_single_entry(self):
        m = FeedbackMatrix(["u"], ["s"], sp.csr_matrix([[1]]))
        model = FactorModel(np.zeros((1, 2)), np.zeros((1, 2)))
        # c = 41, p = 1, prediction 0 -> 41
        assert als_objective(model, m, alpha=40, lam=0.1) == pytest.approx(41.0)

    def test_matches_brute_force(self):
        m = random_matrix(3, 3, seed=11)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 2))
        y = rng.normal(size=(3, 2))
        model = FactorModel(x, y)
        expected = brute_objective(x, y, m.counts.toarray(), 10.0, 0.3)
        assert als_objective(model, m, 10.0, 0.3) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n_users, n_items, density, seed", [
        (1, 1, 1.0, 0), (7, 5, 0.0, 1), (12, 30, 0.1, 2), (20, 9, 1.0, 3), (40, 60, 0.3, 4),
    ])
    @pytest.mark.parametrize("fitted", [False, True], ids=["random", "fitted"])
    def test_matches_dense_prediction_oracle(self, n_users, n_items, density, seed, fitted):
        """The Gram-trick objective equals the one from the dense X Y^T matrix."""
        m = random_matrix(n_users, n_items, seed=seed, density=density)
        alpha, lam = 40.0, 0.1
        if fitted:
            cfg = WmfConfig(k=4, alpha=alpha, lam=lam, iterations=3, seed=seed,
                            early_stop_tol=None)
            model = factorize_wmf(m, cfg)
        else:
            rng = np.random.default_rng(seed)
            model = FactorModel(rng.normal(size=(n_users, 4)), rng.normal(size=(n_items, 4)))
        x, y = model.user_factors, model.item_factors
        dense = m.counts.toarray()
        pred = x @ y.T
        expected = (float(np.sum((1.0 + alpha * dense) * ((dense > 0) - pred) ** 2))
                    + lam * (float(np.sum(x * x)) + float(np.sum(y * y))))
        assert als_objective(model, m, alpha, lam) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        m = random_matrix(3, 3)
        model = FactorModel(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            als_objective(model, m, 10, 0.1)

    def test_factor_width_mismatch(self):
        with pytest.raises(ValueError, match="differ in width"):
            FactorModel(np.zeros((2, 2)), np.zeros((3, 3)))


class TestFactorize:
    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            factorize_wmf(random_matrix(2, 2), WmfConfig(k=2, iterations=0))

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda must be > 0"):
            factorize_wmf(random_matrix(2, 2), WmfConfig(k=2, lam=0.0))

    def test_alpha_overflow_is_one_value_error(self, recwarn):
        with pytest.raises(ValueError, match=r"sweep \d+ \(alpha 1e\+308, lambda 0\.01\)"):
            factorize_wmf(random_matrix(6, 8, seed=2), WmfConfig(k=3, alpha=1e308, seed=1))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("n_users, n_items, density, seed", [
        (6, 8, 0.5, 0), (30, 20, 0.2, 1), (40, 60, 0.1, 2),
    ])
    @pytest.mark.parametrize("unsorted", [False, True], ids=["sorted", "unsorted"])
    def test_bit_identical_to_per_row_formula(self, n_users, n_items, density, seed, unsorted):
        m = random_matrix(n_users, n_items, seed=seed, density=density)
        dense = m.counts.toarray()
        dense[-1, :] = 0  # an empty user row
        dense[:, -1] = 0  # an empty item column
        counts = sp.csr_matrix(dense)
        if unsorted:
            # reversed column order within each row, as a summed product may leave it
            order = np.concatenate([np.arange(hi - 1, lo - 1, -1)
                                    for lo, hi in zip(counts.indptr, counts.indptr[1:])])
            counts = sp.csr_matrix((counts.data[order], counts.indices[order], counts.indptr),
                                   shape=counts.shape)
        m = FeedbackMatrix(m.user_ids, m.item_ids, counts)
        cfg = WmfConfig(k=4, alpha=40.0, lam=0.1, iterations=4, seed=seed, early_stop_tol=None)
        model = factorize_wmf(m, cfg)
        x, y = reference_factorize(m, cfg)
        assert np.array_equal(model.user_factors, x)
        assert np.array_equal(model.item_factors, y)
        assert np.array_equal(x[-1], np.zeros(4)) and np.array_equal(y[-1], np.zeros(4))

    def test_objective_monotone_over_sweeps(self):
        m = random_matrix(6, 8, seed=2)
        cfg = WmfConfig(k=3, alpha=10, lam=0.1, iterations=1, seed=3,
                        early_stop_tol=None)
        values = []
        for iters in range(1, 8):
            cfg.iterations = iters
            model = factorize_wmf(m, cfg)
            values.append(als_objective(model, m, cfg.alpha, cfg.lam))
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-9

    def test_deterministic(self):
        m = random_matrix(5, 7, seed=4)
        cfg = WmfConfig(k=3, alpha=10, lam=0.1, iterations=5, seed=9)
        m1 = factorize_wmf(m, cfg)
        m2 = factorize_wmf(m, cfg)
        assert np.array_equal(m1.user_factors, m2.user_factors)
        assert np.array_equal(m1.item_factors, m2.item_factors)

    def test_zero_interaction_user_gets_zero_row(self):
        dense = np.array([[2, 3], [0, 0]])
        m = FeedbackMatrix(["u0", "u1"], ["s0", "s1"], sp.csr_matrix(dense))
        model = factorize_wmf(m, WmfConfig(k=2, alpha=10, lam=0.1, iterations=3, seed=0))
        assert np.array_equal(model.user_factors[1], np.zeros(2))

    def test_row_solve_optimality(self):
        # a freshly solved row is a minimizer of its partial objective
        m = random_matrix(5, 7, seed=6)
        cfg = WmfConfig(k=3, alpha=10, lam=0.1, iterations=10, seed=1)
        model = factorize_wmf(m, cfg)
        dense = m.counts.toarray()
        u = 0
        row_counts = m.counts.getrow(u)
        solved = solve(model.item_factors, row_counts.indices,
                       row_counts.data, cfg.alpha, cfg.lam)

        def partial(row):
            conf = 1.0 + cfg.alpha * dense[u]
            p = (dense[u] > 0).astype(float)
            resid = p - model.item_factors @ row
            return float(conf @ resid**2) + cfg.lam * float(row @ row)

        base = partial(solved)
        for j in range(cfg.k):
            for delta in (1e-4, -1e-4):
                perturbed = solved.copy()
                perturbed[j] += delta
                assert partial(perturbed) >= base - 1e-12

    def test_ranking_invariant_under_item_scaling(self):
        m = random_matrix(5, 7, seed=8)
        model = factorize_wmf(m, WmfConfig(k=3, alpha=10, lam=0.1, iterations=5, seed=2))
        for u in range(5):
            assert np.array_equal(rank_items(model.user_factors[u], model.item_factors, 7),
                                  rank_items(model.user_factors[u], 3.7 * model.item_factors, 7))


def gradient_descent_oracle(x0, y0, dense, alpha, lam,
                            max_iter=50_000, grad_tol=1e-12):
    """Full-batch gradient descent with backtracking on the WMF objective.

    Started from (x0, y0) it converges to the nearby stationary point; if the
    starting point is already optimal it cannot improve the objective.
    """
    x, y = x0.copy(), y0.copy()
    conf = 1.0 + alpha * dense
    pref = (dense > 0).astype(float)

    def f(x, y):
        resid = pref - x @ y.T
        return float((conf * resid**2).sum()) + lam * ((x * x).sum() + (y * y).sum())

    step = 1e-3
    val = f(x, y)
    for _ in range(max_iter):
        resid = pref - x @ y.T
        gx = -2 * (conf * resid) @ y + 2 * lam * x
        gy = -2 * (conf * resid).T @ x + 2 * lam * y
        gnorm2 = (gx * gx).sum() + (gy * gy).sum()
        if gnorm2 < grad_tol:
            break
        while True:
            nx, ny = x - step * gx, y - step * gy
            nval = f(nx, ny)
            if nval <= val - 0.25 * step * gnorm2:
                break
            step *= 0.5
            if step < 1e-18:
                return x, y, val
        x, y, val = nx, ny, nval
        step *= 1.5
    return x, y, val


class TestGradientDescentOracle:
    # the objective is non-convex, so independent trajectories can land in
    # different basins; the oracle therefore polishes the ALS solution and
    # must find nothing left to gain

    def test_als_solution_is_gd_optimal(self):
        m = random_matrix(5, 7, seed=21, density=0.5)
        cfg = WmfConfig(k=3, alpha=10, lam=0.1, iterations=2000, seed=13,
                        early_stop_tol=None)
        model = factorize_wmf(m, cfg)
        als_obj = als_objective(model, m, cfg.alpha, cfg.lam)
        _, _, gd_obj = gradient_descent_oracle(
            model.user_factors, model.item_factors,
            m.counts.toarray().astype(float), cfg.alpha, cfg.lam)
        assert als_obj == pytest.approx(gd_obj, rel=1e-5)

    def test_oracle_detects_suboptimal_factors(self):
        m = random_matrix(5, 7, seed=21, density=0.5)
        cfg = WmfConfig(k=3, alpha=10, lam=0.1, iterations=2000, seed=13,
                        early_stop_tol=None)
        model = factorize_wmf(m, cfg)
        bad_users = model.user_factors * 1.2
        bad_obj = als_objective(
            FactorModel(bad_users, model.item_factors), m, cfg.alpha, cfg.lam)
        _, _, gd_obj = gradient_descent_oracle(
            bad_users, model.item_factors,
            m.counts.toarray().astype(float), cfg.alpha, cfg.lam)
        assert (bad_obj - gd_obj) / gd_obj > 1e-2
