"""Confidence-weighted matrix factorization via alternating least squares."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .data import FeedbackMatrix


# standard deviation of the random initial factors
INIT_SCALE = 0.01


class FactorizationError(RuntimeError):
    pass


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
    k: int

    def __post_init__(self):
        if self.user_factors.shape[1] != self.k or self.item_factors.shape[1] != self.k:
            raise ValueError("factor matrices do not have k columns")


def solve_row(other_factors: np.ndarray, indices: np.ndarray, counts: np.ndarray,
              alpha: float, lam: float, gram: np.ndarray | None = None) -> np.ndarray:
    """Closed-form ridge update for one user (or item) row.

    Solves (Y^T C Y + lam*I) x = Y^T C p with C = diag(1 + alpha*count) and
    p the nonzero indicator, using the rank-restricted form
    Y^T Y + Y_nz^T diag(alpha*count) Y_nz over the nonzero entries only.
    Raises ValueError on a non-finite system and np.linalg.LinAlgError on
    one that is not positive definite.
    """
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    k = other_factors.shape[1]
    if len(indices) == 0:
        return np.zeros(k)
    if gram is None:
        gram = other_factors.T @ other_factors
    y_nz = other_factors[indices]
    conf = 1.0 + alpha * counts.astype(np.float64)
    a = gram + y_nz.T @ ((conf - 1.0)[:, None] * y_nz) + lam * np.eye(k)
    b = y_nz.T @ conf
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("non-finite values in an ALS row system")
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


def factorize_wmf(m: FeedbackMatrix, cfg: WmfConfig) -> FactorModel:
    """Alternating least squares on the binarized-preference WMF objective."""
    cfg.validate()
    if m.n_users == 0 or m.n_items == 0:
        raise ValueError("cannot factorize an empty matrix")
    rng = np.random.default_rng(cfg.seed)
    x = rng.normal(0.0, INIT_SCALE, size=(m.n_users, cfg.k))
    y = rng.normal(0.0, INIT_SCALE, size=(m.n_items, cfg.k))
    csr = m.counts.tocsr()
    csc = m.counts.tocsc()
    prev_obj = None
    for _ in range(cfg.iterations):
        _half_sweep(x, y, csr, cfg.alpha, cfg.lam)
        _half_sweep(y, x, csc.T.tocsr(), cfg.alpha, cfg.lam)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise FactorizationError(
                "non-finite factor values during ALS; the system is "
                "ill-conditioned, try raising lambda"
            )
        if cfg.early_stop_tol is not None:
            obj = als_objective(FactorModel(x, y, cfg.k), m, cfg.alpha, cfg.lam)
            if prev_obj is not None and prev_obj - obj < cfg.early_stop_tol * abs(prev_obj):
                break
            prev_obj = obj
    return FactorModel(x, y, cfg.k)


def _half_sweep(target: np.ndarray, other: np.ndarray, rows: sp.csr_matrix,
                alpha: float, lam: float) -> None:
    gram = other.T @ other
    indptr, indices, data = rows.indptr, rows.indices, rows.data
    for r in range(target.shape[0]):
        lo, hi = indptr[r], indptr[r + 1]
        target[r] = solve_row(other, indices[lo:hi], data[lo:hi], alpha, lam, gram=gram)
