from unittest import mock

import numpy as np
import pytest
from scipy.linalg import lapack

from coldrec.data import FeedbackMatrix
from coldrec.evaluate import rank_items
from coldrec.wmf import (INIT_SCALE, FactorModel, WmfConfig, _half_sweep, als_objective,
                         factorize_wmf, solve_row)
from feedback_oracle import feedback, to_dense


def random_matrix(n_users, n_items, seed=0, density=0.5):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_users, n_items)) < density) * rng.integers(1, 6, (n_users, n_items))
    dense[0, 0] = max(dense[0, 0], 1)
    return feedback(dense)


def brute_objective(x, y, dense, alpha, lam):
    total = 0.0
    for u in range(dense.shape[0]):
        for i in range(dense.shape[1]):
            c = 1.0 + alpha * dense[u, i]
            p = 1.0 if dense[u, i] > 0 else 0.0
            total += c * (p - x[u] @ y[i]) ** 2
    return total + lam * ((x * x).sum() + (y * y).sum())


def row_system(y, indices, counts, alpha, lam):
    """One row's ALS system (a, b), built by the per-row formula."""
    y_nz = y[indices]
    conf = 1.0 + alpha * np.asarray(counts, dtype=np.float64)
    a = y.T @ y + y_nz.T @ ((conf - 1.0)[:, None] * y_nz) + lam * np.eye(y.shape[1])
    return a, y_nz.T @ conf


def solve(y, indices, counts, alpha, lam):
    """One row's solution: its system solved by the library as a stack of one."""
    a, b = row_system(y, indices, counts, alpha, lam)
    return solve_row(a[None], b[None])[0]


def spd_stack(rng, n, k):
    m = rng.normal(size=(n, k, k + 2))
    return m @ m.transpose(0, 2, 1) + 0.1 * np.eye(k), rng.normal(size=(n, k))


def reference_factorize(m, cfg, seed):
    """Reference ALS with all work per row: every row gathers its factors, casts its
    counts, rebuilds Y^T Y and lam*I, forms its own system and solves it alone, the
    item rows are rebuilt from the dense counts on every sweep, and the objective
    comes from the dense X Y^T. Returns the factors and the sweeps run."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, INIT_SCALE, size=(m.n_users, cfg.k))
    y = rng.normal(0.0, INIT_SCALE, size=(m.n_items, cfg.k))

    def half_sweep(target, other, rows):
        for r in range(target.shape[0]):
            lo, hi = rows.indptr[r], rows.indptr[r + 1]
            if lo == hi:
                target[r] = np.zeros(cfg.k)
                continue
            target[r] = solve(other, rows.indices[lo:hi], rows.counts[lo:hi], cfg.alpha, cfg.lam)

    dense = to_dense(m)
    prev_obj = None
    for sweep in range(1, cfg.iterations + 1):
        half_sweep(x, y, m)
        half_sweep(y, x, feedback(dense.T))
        if cfg.early_stop_tol is not None:
            pred = x @ y.T
            obj = (float(np.sum((1.0 + cfg.alpha * dense) * ((dense > 0) - pred) ** 2))
                   + cfg.lam * (float(np.sum(x * x)) + float(np.sum(y * y))))
            if prev_obj is not None and prev_obj - obj < cfg.early_stop_tol * abs(prev_obj):
                break
            prev_obj = obj
    return x, y, sweep


def assert_matches_reference(m, cfg, seed):
    model = factorize_wmf(m, cfg, seed)
    x, y, sweeps = reference_factorize(m, cfg, seed)
    assert np.array_equal(model.user_factors, x)
    assert np.array_equal(model.item_factors, y)
    return sweeps


def unsorted_feedback(dense):
    """The matrix of ``dense`` built from its entries in reverse order, each row's
    columns descending, as a summed product may leave them."""
    rows, cols = np.nonzero(dense)
    rows, cols = rows[::-1], cols[::-1]
    return FeedbackMatrix([f"u{i}" for i in range(dense.shape[0])],
                          [f"s{i}" for i in range(dense.shape[1])],
                          rows, cols, dense[rows, cols])


def equal_nnz_rows(rng):
    # 60 users with exactly 5 items each: one group of 60 user rows
    dense = np.zeros((60, 40), dtype=np.int64)
    for u in range(60):
        dense[u, rng.choice(40, 5, replace=False)] = rng.integers(1, 6, 5)
    return dense


def single_nonzero_rows(rng):
    # every user and most items have one nonzero
    dense = np.zeros((30, 45), dtype=np.int64)
    dense[np.arange(30), rng.permutation(45)[:30]] = rng.integers(1, 6, 30)
    return dense


def long_rows(rng):
    # a few artist-like rows with more than 100 nonzeros among short ones
    dense = (rng.random((20, 300)) < 0.05) * rng.integers(1, 6, (20, 300))
    dense[:3] = (rng.random((3, 300)) < 0.6) * rng.integers(1, 40, (3, 300))
    assert (np.count_nonzero(dense[:3], axis=1) > 100).all()
    return dense


def empty_rows(rng):
    # empty users and empty items, first, in the middle and last
    dense = (rng.random((25, 30)) < 0.3) * rng.integers(1, 6, (25, 30))
    dense[[0, 12, 24], :] = 0
    dense[:, [0, 15, 29]] = 0
    return dense


class TestSolveRow:
    def test_scalar_closed_form(self):
        # k=1, one item y=1, count=1, alpha=1: x = c/(c + lam) with c = 2
        lam = 1e-9
        x = solve_row(np.array([[[2.0 + lam]]]), np.array([[2.0]]))
        assert x[0, 0] == pytest.approx(2.0 / (2.0 + lam), rel=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 16])
    def test_stack_matches_lapack_dposv(self, k):
        a, b = spd_stack(np.random.default_rng(k), 40, k)
        expected = np.stack([lapack.dposv(a_r, b_r)[1] for a_r, b_r in zip(a, b)])
        x = solve_row(a, b)
        assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max()

    @pytest.mark.parametrize("k", [1, 2, 16])
    def test_row_alone_has_its_bits_in_a_stack(self, k):
        a, b = spd_stack(np.random.default_rng(10 + k), 300, k)
        stacked = solve_row(a, b)
        for r in (0, 1, 137, 299):
            assert np.array_equal(solve_row(a[r:r + 1], b[r:r + 1])[0], stacked[r])
        assert np.array_equal(solve_row(a[100:200], b[100:200]), stacked[100:200])

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


class TestHalfSweep:
    def test_empty_row_is_zero(self):
        y = np.random.default_rng(0).normal(size=(5, 3))
        target = np.full((3, 3), 7.0)
        rows = feedback(np.array([[0, 2, 0, 0, 1], [0, 0, 0, 0, 0], [3, 0, 0, 0, 0]]))
        _half_sweep(target, y, rows, 10.0, 0.1, 1, "user")
        assert np.array_equal(target[1], np.zeros(3))
        assert np.array_equal(target[0], solve(y, [1, 4], [2, 1], 10.0, 0.1))
        assert np.array_equal(target[2], solve(y, [0], [3], 10.0, 0.1))

    def test_matrix_without_plays_gives_zero_factors(self):
        m = feedback(np.zeros((3, 4), dtype=np.int64))
        model = factorize_wmf(m, WmfConfig(k=2, alpha=40.0, lam=0.1, iterations=3), 0)
        assert not model.user_factors.any() and not model.item_factors.any()

    def test_one_solve_per_nonempty_row(self):
        m = feedback(empty_rows(np.random.default_rng(3)))
        cfg = WmfConfig(k=4, alpha=40.0, lam=0.1, iterations=3, early_stop_tol=None)
        dense = to_dense(m)
        nonempty = sum(np.count_nonzero(dense.any(axis=axis)) for axis in (0, 1))
        with mock.patch("coldrec.wmf.solve_row", wraps=solve_row) as spy:
            factorize_wmf(m, cfg, 0)
        assert sum(len(call.args[1]) for call in spy.call_args_list) == cfg.iterations * nonempty

    def test_not_positive_definite_names_row(self):
        # k = 16 over two items: every user system is lam*I plus rank <= 2
        m = feedback(np.array([[1, 2], [0, 3], [4, 0]]))
        with pytest.raises(ValueError, match=r"^ALS system of user row 1 is not positive definite "
                                             r"in sweep 1 \(alpha 40, lambda 1e-20\); "
                                             r"raise lambda or lower k$"):
            factorize_wmf(m, WmfConfig(k=16, alpha=40.0, lam=1e-20), 0)

    def test_not_positive_definite_row_inside_a_chunk_is_named(self, monkeypatch):
        # chunks of 3 rows over 7 one-nonzero rows; with alpha < 0 only row 4,
        # the middle of the second chunk, has a negative system (5 - 9 + lam)
        monkeypatch.setattr("coldrec.wmf.SOLVE_CHUNK_BYTES", 3 * 8 * 1 * 2)
        dense = np.zeros((7, 5), dtype=np.int64)
        dense[np.arange(7), np.arange(7) % 5] = 1
        dense[4, 4] = 9
        with pytest.raises(ValueError, match=r"^ALS system of user row 4 is not positive definite "
                                             r"in sweep 2 \(alpha -1, lambda 0\.1\)"):
            _half_sweep(np.zeros((7, 1)), np.ones((5, 1)), feedback(dense), -1.0, 0.1,
                        sweep=2, side="user")

    @pytest.mark.parametrize("rows_per_chunk", [1, 3, 10])
    def test_chunks_leave_the_bits(self, monkeypatch, rows_per_chunk):
        m = feedback(long_rows(np.random.default_rng(2)))
        cfg = WmfConfig(k=4, alpha=40.0, lam=0.1, iterations=3, early_stop_tol=None)
        whole = factorize_wmf(m, cfg, 1)
        monkeypatch.setattr("coldrec.wmf.SOLVE_CHUNK_BYTES", rows_per_chunk * 8 * 4 * 5)
        with mock.patch("coldrec.wmf.solve_row", wraps=solve_row) as spy:
            chunked = factorize_wmf(m, cfg, 1)
        assert max(len(call.args[1]) for call in spy.call_args_list) == rows_per_chunk
        assert np.array_equal(chunked.user_factors, whole.user_factors)
        assert np.array_equal(chunked.item_factors, whole.item_factors)


# direct calls run outside factorize_wmf's errstate, so overflow warns here
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestHalfSweepGuard:
    rows = feedback(np.array([[0, 1]]))

    @pytest.mark.parametrize("y", [
        np.array([[np.nan], [1.0]]),
        # an infinite factor outside the row's items: the Cholesky solve alone
        # would return a finite 0 here
        np.array([[np.inf], [1.0]]),
    ], ids=["nan", "inf-outside-row"])
    def test_non_finite_other_factors_rejected(self, y):
        target = np.zeros((1, 1))
        with pytest.raises(ValueError, match="non-finite factors in sweep 3"):
            _half_sweep(target, y, self.rows, 1.0, 0.1, sweep=3, side="user")

    def test_overflowing_confidence_rejected(self):
        with pytest.raises(ValueError, match=r"alpha 1e\+308, lambda 0\.1"):
            _half_sweep(np.zeros((1, 1)), np.array([[2.0], [2.0]]), feedback(np.array([[0, 10]])),
                        1e308, 0.1, sweep=1, side="user")

    def test_overflowing_output_rejected(self):
        # every row system is finite (diagonal 4e307), but its right-hand
        # side, ten entries of 1e308 * 0.2, overflows
        with pytest.raises(ValueError, match="sweep 1"):
            _half_sweep(np.zeros((1, 1)), np.full((10, 1), 0.2), feedback(np.ones((1, 10), int)),
                        1e308, 0.1, sweep=1, side="user")


class TestObjective:
    def test_all_zero(self):
        m = feedback(np.zeros((1, 1), int))
        model = FactorModel(np.zeros((1, 2)), np.zeros((1, 2)))
        assert als_objective(model, m, alpha=40, lam=0.1) == 0.0

    def test_single_entry(self):
        m = feedback([[1]])
        model = FactorModel(np.zeros((1, 2)), np.zeros((1, 2)))
        # c = 41, p = 1, prediction 0 -> 41
        assert als_objective(model, m, alpha=40, lam=0.1) == pytest.approx(41.0)

    def test_matches_brute_force(self):
        m = random_matrix(3, 3, seed=11)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 2))
        y = rng.normal(size=(3, 2))
        model = FactorModel(x, y)
        expected = brute_objective(x, y, to_dense(m), 10.0, 0.3)
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
            cfg = WmfConfig(k=4, alpha=alpha, lam=lam, iterations=3, early_stop_tol=None)
            model = factorize_wmf(m, cfg, seed)
        else:
            rng = np.random.default_rng(seed)
            model = FactorModel(rng.normal(size=(n_users, 4)), rng.normal(size=(n_items, 4)))
        x, y = model.user_factors, model.item_factors
        dense = to_dense(m)
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
            factorize_wmf(random_matrix(2, 2), WmfConfig(k=2, iterations=0), 0)

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda must be > 0"):
            factorize_wmf(random_matrix(2, 2), WmfConfig(k=2, lam=0.0), 0)

    def test_alpha_overflow_is_one_value_error(self, recwarn):
        with pytest.raises(ValueError, match=r"sweep \d+ \(alpha 1e\+308, lambda 0\.01\)"):
            factorize_wmf(random_matrix(6, 8, seed=2), WmfConfig(k=3, alpha=1e308), 1)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("n_users, n_items, density, seed", [
        (6, 8, 0.5, 0), (30, 20, 0.2, 1), (40, 60, 0.1, 2),
    ])
    @pytest.mark.parametrize("unsorted", [False, True], ids=["sorted", "unsorted"])
    def test_bit_identical_to_per_row_formula(self, n_users, n_items, density, seed, unsorted):
        m = random_matrix(n_users, n_items, seed=seed, density=density)
        dense = to_dense(m)
        dense[-1, :] = 0  # an empty user row
        dense[:, -1] = 0  # an empty item column
        m = unsorted_feedback(dense) if unsorted else feedback(dense)
        for k in (4, 16):
            cfg = WmfConfig(k=k, alpha=40.0, lam=0.1, iterations=4, early_stop_tol=None)
            assert_matches_reference(m, cfg, seed)
        model = factorize_wmf(m, cfg, seed)
        assert np.array_equal(model.user_factors[-1], np.zeros(16))
        assert np.array_equal(model.item_factors[-1], np.zeros(16))

    @pytest.mark.parametrize("make", [equal_nnz_rows, single_nonzero_rows, long_rows, empty_rows],
                             ids=["equal-nnz", "single-nonzero", "over-100-nonzeros", "empty"])
    @pytest.mark.parametrize("unsorted", [False, True], ids=["sorted", "unsorted"])
    def test_bit_identical_on_row_groups(self, make, unsorted):
        """Row shapes that group unusually: one large group, groups of one nonzero,
        groups of one long row, and empty rows in both halves."""
        dense = make(np.random.default_rng(7))
        m = unsorted_feedback(dense) if unsorted else feedback(dense)
        cfg = WmfConfig(k=16, alpha=40.0, lam=0.1, iterations=3, early_stop_tol=None)
        assert_matches_reference(m, cfg, 5)

    def test_bit_identical_with_early_stopping(self):
        m = random_matrix(30, 20, seed=4, density=0.3)
        settings = dict(k=16, alpha=40.0, lam=10.0)
        cfg = WmfConfig(iterations=60, early_stop_tol=1e-4, **settings)
        sweeps = assert_matches_reference(m, cfg, 4)
        assert 1 < sweeps < cfg.iterations
        # one sweep more or fewer gives other factors
        stopped = factorize_wmf(m, cfg, 4).user_factors
        for other in (sweeps - 1, sweeps + 1):
            x, _, _ = reference_factorize(m, WmfConfig(iterations=other, early_stop_tol=None,
                                                       **settings), 4)
            assert not np.array_equal(stopped, x)

    @pytest.mark.parametrize("make", [equal_nnz_rows, single_nonzero_rows, long_rows, empty_rows],
                             ids=["equal-nnz", "single-nonzero", "over-100-nonzeros", "empty"])
    def test_early_stopping_sweep_matches_reference_on_row_groups(self, make):
        m = feedback(make(np.random.default_rng(7)))
        cfg = WmfConfig(k=16, alpha=40.0, lam=10.0, iterations=60, early_stop_tol=1e-2)
        sweeps = assert_matches_reference(m, cfg, 5)
        assert 1 < sweeps < cfg.iterations

    def test_objective_read_off_the_solves_matches_als_objective(self):
        """After each item half-sweep, sum over nonzeros of (1 + alpha*count)
        - sum_r b_r . y_r + lam*|X|^2, read off the solves, is the objective."""
        m = random_matrix(30, 20, seed=4, density=0.3)
        cfg = WmfConfig(k=8, alpha=40.0, lam=0.5, iterations=6, early_stop_tol=None)
        seen = []

        def spy(target, other, rows, alpha, lam, sweep, side):
            fit = _half_sweep(target, other, rows, alpha, lam, sweep, side)
            if side == "item":
                read_off = (float(np.sum(1.0 + alpha * to_dense(m)[to_dense(m) > 0])) - fit
                            + lam * float(np.sum(other * other)))
                seen.append((read_off, als_objective(FactorModel(other, target), m, alpha, lam)))
            return fit

        with mock.patch("coldrec.wmf._half_sweep", side_effect=spy):
            factorize_wmf(m, cfg, 2)
        assert len(seen) == cfg.iterations
        for read_off, exact in seen:
            assert read_off == pytest.approx(exact, rel=1e-12)

    def test_objective_monotone_over_sweeps(self):
        m = random_matrix(6, 8, seed=2)
        cfg = WmfConfig(k=3, alpha=10, lam=0.1, iterations=1, early_stop_tol=None)
        values = []
        for iters in range(1, 8):
            cfg.iterations = iters
            model = factorize_wmf(m, cfg, 3)
            values.append(als_objective(model, m, cfg.alpha, cfg.lam))
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-9

    def test_deterministic(self):
        m = random_matrix(5, 7, seed=4)
        cfg = WmfConfig(k=3, alpha=10, lam=0.1, iterations=5)
        m1 = factorize_wmf(m, cfg, 9)
        m2 = factorize_wmf(m, cfg, 9)
        assert np.array_equal(m1.user_factors, m2.user_factors)
        assert np.array_equal(m1.item_factors, m2.item_factors)

    def test_zero_interaction_user_gets_zero_row(self):
        dense = np.array([[2, 3], [0, 0]])
        m = feedback(dense)
        model = factorize_wmf(m, WmfConfig(k=2, alpha=10, lam=0.1, iterations=3), 0)
        assert np.array_equal(model.user_factors[1], np.zeros(2))

    def test_row_solve_optimality(self):
        # a freshly solved row is a minimizer of its partial objective
        m = random_matrix(5, 7, seed=6)
        cfg = WmfConfig(k=3, alpha=10, lam=0.1, iterations=10)
        model = factorize_wmf(m, cfg, 1)
        dense = to_dense(m)
        u = 0
        lo, hi = m.indptr[u], m.indptr[u + 1]
        solved = solve(model.item_factors, m.indices[lo:hi], m.counts[lo:hi], cfg.alpha, cfg.lam)

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
        model = factorize_wmf(m, WmfConfig(k=3, alpha=10, lam=0.1, iterations=5), 2)
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
        cfg = WmfConfig(k=3, alpha=10, lam=0.1, iterations=2000, early_stop_tol=None)
        model = factorize_wmf(m, cfg, 13)
        als_obj = als_objective(model, m, cfg.alpha, cfg.lam)
        _, _, gd_obj = gradient_descent_oracle(
            model.user_factors, model.item_factors,
            to_dense(m).astype(float), cfg.alpha, cfg.lam)
        assert als_obj == pytest.approx(gd_obj, rel=1e-5)

    def test_oracle_detects_suboptimal_factors(self):
        m = random_matrix(5, 7, seed=21, density=0.5)
        cfg = WmfConfig(k=3, alpha=10, lam=0.1, iterations=2000, early_stop_tol=None)
        model = factorize_wmf(m, cfg, 13)
        bad_users = model.user_factors * 1.2
        bad_obj = als_objective(
            FactorModel(bad_users, model.item_factors), m, cfg.alpha, cfg.lam)
        _, _, gd_obj = gradient_descent_oracle(
            bad_users, model.item_factors,
            to_dense(m).astype(float), cfg.alpha, cfg.lam)
        assert (bad_obj - gd_obj) / gd_obj > 1e-2
