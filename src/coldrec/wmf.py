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


def solve_row(other_factors: np.ndarray, indices: np.ndarray, conf: np.ndarray,
              gram: np.ndarray, lam_eye: np.ndarray) -> np.ndarray:
    """Closed-form ridge update for one user (or item) row.

    Solves (Y^T C Y + lam*I) x = Y^T C p, C = diag(conf) on the row's nonzeros
    and 1 elsewhere, p the nonzero indicator, in the rank-restricted form
    gram + Y_nz^T diag(conf - 1) Y_nz + lam_eye with the half-sweep's
    gram = Y^T Y and lam_eye = lam*I. Raises np.linalg.LinAlgError on a
    system that is not positive definite.
    """
    if len(indices) == 0:
        return np.zeros(other_factors.shape[1])
    y_nz = other_factors[indices]
    a = gram + y_nz.T @ ((conf - 1.0)[:, None] * y_nz) + lam_eye
    b = y_nz.T @ conf
    # LAPACK's Cholesky solve directly: scipy.linalg.solve adds ~40 us per call
    _, x, info = lapack.dposv(a, b)
    if info != 0:
        raise np.linalg.LinAlgError(f"ALS row system is not positive definite (LAPACK info {info})")
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
    """Alternating least squares on the binarized-preference WMF objective."""
    cfg.validate()
    if m.n_users == 0 or m.n_items == 0:
        raise ValueError("cannot factorize an empty matrix")
    rng = np.random.default_rng(cfg.seed)
    x = rng.normal(0.0, INIT_SCALE, size=(m.n_users, cfg.k))
    y = rng.normal(0.0, INIT_SCALE, size=(m.n_items, cfg.k))
    item_rows = m.counts.tocsc().T  # one CSR row per item
    prev_obj = None
    for sweep in range(1, cfg.iterations + 1):
        _half_sweep(x, y, m.counts, cfg.alpha, cfg.lam, sweep)
        _half_sweep(y, x, item_rows, cfg.alpha, cfg.lam, sweep)
        if cfg.early_stop_tol is not None:
            obj = als_objective(FactorModel(x, y), m, cfg.alpha, cfg.lam)
            if prev_obj is not None and prev_obj - obj < cfg.early_stop_tol * abs(prev_obj):
                break
            prev_obj = obj
    return FactorModel(x, y)


def _half_sweep(target: np.ndarray, other: np.ndarray, rows: sp.csr_matrix,
                alpha: float, lam: float, sweep: int) -> None:
    """Solve every row of ``target`` in place against the finite ``other``.

    (1 + alpha*max count)*max diag(gram) + lam bounds every row system's
    diagonal, and so its off-diagonal (the system is PSD): one finite bound,
    doubled for rounding, keeps all systems finite. An overflowing right-hand
    side shows up in the checked output, which raises a ValueError.
    """
    gram = other.T @ other
    lam_eye = lam * np.eye(other.shape[1])
    conf = 1.0 + alpha * rows.data.astype(np.float64)
    bound = conf.max(initial=1.0) * gram.diagonal().max() + lam
    if np.isfinite(2.0 * bound):
        indptr, indices = rows.indptr, rows.indices
        for r in range(target.shape[0]):
            lo, hi = indptr[r], indptr[r + 1]
            target[r] = solve_row(other, indices[lo:hi], conf[lo:hi], gram, lam_eye)
        if np.isfinite(target).all():
            return
    raise ValueError(f"ALS diverged: non-finite factors in sweep {sweep} "
                     f"(alpha {alpha:g}, lambda {lam:g}); lower alpha or raise lambda")
