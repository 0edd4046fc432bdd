"""Confidence-weighted matrix factorization via alternating least squares."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .data import FeedbackMatrix


# standard deviation of the random initial factors
INIT_SCALE = 0.01


@dataclass
class WmfConfig:
    k: int = 200
    alpha: float = 40.0
    lam: float = 0.01
    iterations: int = 15
    seed: int = 0
    # stop early once a sweep improves the objective by less than this
    # relative amount; None disables the check (and the per-sweep objective)
    early_stop_tol: float | None = 1e-6

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.lam <= 0:
            raise ValueError("lambda must be > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class FactorModel:
    user_factors: np.ndarray  # (n_users, k) float64
    item_factors: np.ndarray  # (n_items, k) float64

    def __post_init__(self):
        if self.user_factors.shape[1] != self.item_factors.shape[1]:
            raise ValueError("user and item factor matrices differ in width")


def solve_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve one row's system a x = b, with a symmetric positive definite.

    LAPACK's Cholesky solve directly: scipy.linalg.solve adds ~40 us per call.
    Raises np.linalg.LinAlgError on a system that is not positive definite.
    """
    _, x, info = lapack.dposv(a, b)
    if info != 0:
        raise np.linalg.LinAlgError(f"not positive definite (LAPACK info {info})")
    return x


def als_objective(model: FactorModel, m: FeedbackMatrix, alpha: float, lam: float) -> float:
    """Exact weighted regularized squared error over all (user, item) pairs.

    Zero-count pairs contribute with confidence 1 and preference 0. The
    all-pairs term sum((X Y^T)^2) is <X^T X, Y^T Y>, so no dense prediction
    matrix is built: O((U + N) k^2 + nnz k) work.
    """
    x, y = model.user_factors, model.item_factors
    if x.shape[0] != m.n_users or y.shape[0] != m.n_items:
        raise ValueError("factor model dimensions do not match the feedback matrix")
    coo = m.counts.tocoo()
    pred_nz = np.einsum("ij,ij->i", x[coo.row], y[coo.col])
    conf = 1.0 + alpha * coo.data.astype(np.float64)
    err_nz = 1.0 - pred_nz
    # all pairs at confidence 1 / preference 0, then correct the nonzeros
    total = float(np.sum((x.T @ x) * (y.T @ y)))
    total -= float(np.sum(pred_nz * pred_nz))
    total += float(np.sum(conf * err_nz * err_nz))
    total += lam * (float(np.sum(x * x)) + float(np.sum(y * y)))
    return total


# overflow surfaces as non-finite factors, which are reported as divergence
@np.errstate(over="ignore", invalid="ignore")
def factorize_wmf(m: FeedbackMatrix, cfg: WmfConfig) -> FactorModel:
    """Alternating least squares on the binarized-preference WMF objective.

    Once per factorization: the initial factors and the item-major copy of
    the counts. Once per sweep: a user and an item half-sweep (see
    ``_half_sweep``), then the objective if early stopping is on.
    """
    cfg.validate()
    if m.n_users == 0 or m.n_items == 0:
        raise ValueError("cannot factorize an empty matrix")
    rng = np.random.default_rng(cfg.seed)
    x = rng.normal(0.0, INIT_SCALE, size=(m.n_users, cfg.k))
    y = rng.normal(0.0, INIT_SCALE, size=(m.n_items, cfg.k))
    item_rows = m.counts.tocsc().T  # one CSR row per item
    prev_obj = None
    for sweep in range(1, cfg.iterations + 1):
        _half_sweep(x, y, m.counts, cfg.alpha, cfg.lam, sweep, "user")
        _half_sweep(y, x, item_rows, cfg.alpha, cfg.lam, sweep, "item")
        if cfg.early_stop_tol is not None:
            obj = als_objective(FactorModel(x, y), m, cfg.alpha, cfg.lam)
            if prev_obj is not None and prev_obj - obj < cfg.early_stop_tol * abs(prev_obj):
                break
            prev_obj = obj
    return FactorModel(x, y)


def _half_sweep(target: np.ndarray, other: np.ndarray, rows: sp.csr_matrix,
                alpha: float, lam: float, sweep: int, side: str) -> None:
    """Solve every row of ``target`` in place against the finite ``other``.

    Row r solves (gram + Y_r^T diag(c_r - 1) Y_r + lam*I) x = Y_r^T c_r,
    with gram = Y^T Y, Y_r the rows of ``other`` at row r's nonzeros and
    c_r = 1 + alpha*counts their confidences (Hu, Koren & Volinsky 2008).
    Once per half-sweep: gram, lam*I and every confidence. Once per group of
    the R rows that share a nonzero count n: the (R, n, k) stack of Y_r, its
    confidence-weighted copy, the (R, k, k) systems and the (R, k)
    right-hand sides, about 2*R*n*k + R*k*(k + 1) float64 at the peak. numpy's
    matmul hands BLAS every slice in the orientation and memory order of the
    one-row formula, so the results equal it bit for bit. Once per row: the
    Cholesky solve (``solve_row``). A row with no nonzeros is zero.

    (1 + alpha*max count)*max diag(gram) + lam bounds every row system's
    diagonal, and so its off-diagonal (the system is PSD): one finite bound,
    doubled for rounding, keeps all systems finite. An overflowing right-hand
    side shows up in the checked output, which raises a ValueError; so does
    a system that is not positive definite, naming its ``side`` row.
    """
    gram = other.T @ other
    lam_eye = lam * np.eye(other.shape[1])
    conf = 1.0 + alpha * rows.data.astype(np.float64)
    bound = conf.max(initial=1.0) * gram.diagonal().max() + lam
    if np.isfinite(2.0 * bound):
        indptr, indices = rows.indptr, rows.indices
        nnz = np.diff(indptr)
        order = np.argsort(nnz, kind="stable")
        for group in np.split(order, np.flatnonzero(np.diff(nnz[order])) + 1):
            n = nnz[group[0]]
            if n == 0:
                target[group] = 0.0
                continue
            at = indptr[group][:, None] + np.arange(n)
            y_nz = other[indices[at]]  # (R, n, k), C-contiguous
            c = conf[at]
            y_t = y_nz.transpose(0, 2, 1)
            a = gram + y_t @ ((c - 1.0)[..., None] * y_nz) + lam_eye
            b = (y_t @ c[..., None])[..., 0]
            try:
                for r, a_r, b_r in zip(group, a, b):
                    target[r] = solve_row(a_r, b_r)
            except np.linalg.LinAlgError:
                raise ValueError(f"ALS system of {side} row {r} is not positive definite in "
                                 f"sweep {sweep} (alpha {alpha:g}, lambda {lam:g}); "
                                 f"raise lambda or lower k") from None
        if np.isfinite(target).all():
            return
    raise ValueError(f"ALS diverged: non-finite factors in sweep {sweep} "
                     f"(alpha {alpha:g}, lambda {lam:g}); lower alpha or raise lambda")
