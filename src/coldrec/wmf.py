"""Confidence-weighted matrix factorization via alternating least squares."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeedbackMatrix


# standard deviation of the random initial factors
INIT_SCALE = 0.01
# confidence of a play count c: 1 + ALPHA*c (Hu, Koren & Volinsky 2008)
ALPHA = 40.0
# L2 weight on both factor matrices
LAMBDA = 0.01
# bytes of row systems (k x k and a right-hand side each) solved as one stack, so
# that a large k never holds every row's system at once; at k = 16, budgets from
# 0.5 to 16 MiB timed alike, and at k = 200 a larger chunk was faster
SOLVE_CHUNK_BYTES = 8 << 20


@dataclass
class WmfConfig:
    k: int = 200
    iterations: int = 15

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
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
    """Solve a stack of systems a[r] x[r] = b[r], each a[r] symmetric positive definite.

    One Cholesky factorization over the (R, k, k) stack, then forward and
    back substitution vectorized over the R rows; a single system is a stack
    of one. The substitution runs on k-major copies, (k, k, R) and (k, R), so
    that each of its steps is one elementwise pass over contiguous rows. No
    step mixes rows, so a row's solution has the same bits alone as inside
    any stack. Raises np.linalg.LinAlgError if any system is not positive
    definite.
    """
    low = np.linalg.cholesky(a).transpose(1, 2, 0).copy()
    x = b.T.copy()
    for j in range(len(x)):  # L z = b
        x[j] /= low[j, j]
        x[j + 1:] -= low[j + 1:, j] * x[j]
    for j in range(len(x) - 1, -1, -1):  # L^T x = z
        x[j] /= low[j, j]
        x[:j] -= low[j, :j] * x[j]
    return x.T


def als_objective(model: FactorModel, m: FeedbackMatrix, alpha: float, lam: float) -> float:
    """Exact weighted regularized squared error over all (user, item) pairs.

    Zero-count pairs contribute with confidence 1 and preference 0. The
    all-pairs term sum((X Y^T)^2) is <X^T X, Y^T Y>, so no dense prediction
    matrix is built: O((U + N) k^2 + nnz k) work.
    """
    x, y = model.user_factors, model.item_factors
    if x.shape[0] != m.n_users or y.shape[0] != m.n_items:
        raise ValueError("factor model dimensions do not match the feedback matrix")
    rows, cols, counts = m.entries()
    pred_nz = np.einsum("ij,ij->i", x[rows], y[cols])
    conf = 1.0 + alpha * counts.astype(np.float64)
    err_nz = 1.0 - pred_nz
    # all pairs at confidence 1 / preference 0, then correct the nonzeros
    total = float(np.sum((x.T @ x) * (y.T @ y)))
    total -= float(np.sum(pred_nz * pred_nz))
    total += float(np.sum(conf * err_nz * err_nz))
    total += lam * (float(np.sum(x * x)) + float(np.sum(y * y)))
    return total


# overflow surfaces as non-finite factors, which are reported as divergence
@np.errstate(over="ignore", invalid="ignore")
def factorize_wmf(m: FeedbackMatrix, cfg: WmfConfig, seed: int) -> FactorModel:
    """Alternating least squares on the binarized-preference WMF objective.

    Once per factorization: the initial factors and the item-major copy of
    the counts. Then exactly ``cfg.iterations`` sweeps, each a user and an
    item half-sweep (see ``_half_sweep``) at `ALPHA` and `LAMBDA`.
    """
    cfg.validate()
    if m.n_users == 0 or m.n_items == 0:
        raise ValueError("cannot factorize an empty matrix")
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, INIT_SCALE, size=(m.n_users, cfg.k))
    y = rng.normal(0.0, INIT_SCALE, size=(m.n_items, cfg.k))
    item_rows = m.transpose()
    for sweep in range(1, cfg.iterations + 1):
        _half_sweep(x, y, m, ALPHA, LAMBDA, sweep, "user")
        _half_sweep(y, x, item_rows, ALPHA, LAMBDA, sweep, "item")
    return FactorModel(x, y)


def _half_sweep(target: np.ndarray, other: np.ndarray, rows: FeedbackMatrix,
                alpha: float, lam: float, sweep: int, side: str) -> None:
    """Solve every row of ``target`` in place against the finite ``other``.

    Row r solves (gram + Y_r^T diag(c_r - 1) Y_r + lam*I) x = Y_r^T c_r = b_r,
    with gram = Y^T Y, Y_r the rows of ``other`` at row r's nonzeros and
    c_r = 1 + alpha*counts their confidences (Hu, Koren & Volinsky 2008).
    Once per half-sweep: gram, lam*I and every confidence. The nonempty rows,
    ordered by nonzero count, are cut into chunks of at most
    SOLVE_CHUNK_BYTES of systems. Per chunk, once per group of the R rows
    that share a nonzero count n: the (R, n, k) stack of Y_r, its
    confidence-weighted copy, the (R, k, k) systems and the (R, k)
    right-hand sides. numpy's matmul hands BLAS every slice in the
    orientation and memory order of the one-row formula, so the systems
    equal it bit for bit. Then one stacked Cholesky solve (``solve_row``)
    for the whole chunk. A row with no nonzeros is zero.

    (1 + alpha*max count)*max diag(gram) + lam bounds every row system's
    diagonal, and so its off-diagonal (the system is PSD): one finite bound,
    doubled for rounding, keeps all systems finite. An overflowing right-hand
    side shows up in the checked output, which raises a ValueError; so does
    a system that is not positive definite, naming its ``side`` row.
    """
    k = other.shape[1]
    gram = other.T @ other
    lam_eye = lam * np.eye(k)
    conf = 1.0 + alpha * rows.counts.astype(np.float64)
    bound = conf.max(initial=1.0) * gram.diagonal().max() + lam
    if np.isfinite(2.0 * bound):
        indptr, indices = rows.indptr, rows.indices
        nnz = np.diff(indptr)
        target[nnz == 0] = 0.0
        order = np.argsort(nnz, kind="stable")
        order = order[nnz[order] > 0]
        chunk = max(1, SOLVE_CHUNK_BYTES // (8 * k * (k + 1)))
        for start in range(0, len(order), chunk):
            chunk_rows = order[start:start + chunk]
            sizes = nnz[chunk_rows]
            a = np.empty((len(chunk_rows), k, k))
            b = np.empty((len(chunk_rows), k))
            edges = [0, *(np.flatnonzero(np.diff(sizes)) + 1), len(chunk_rows)]
            for lo, hi in zip(edges, edges[1:]):
                at = indptr[chunk_rows[lo:hi]][:, None] + np.arange(sizes[lo])
                y_nz = other[indices[at]]  # (R, n, k), C-contiguous
                c = conf[at]
                y_t = y_nz.transpose(0, 2, 1)
                a[lo:hi] = gram + y_t @ ((c - 1.0)[..., None] * y_nz) + lam_eye
                b[lo:hi] = (y_t @ c[..., None])[..., 0]
            try:
                target[chunk_rows] = solve_row(a, b)
            except np.linalg.LinAlgError:
                # only here is the failing system looked for, one row at a time
                for r, a_r in zip(chunk_rows, a):
                    try:
                        np.linalg.cholesky(a_r)
                    except np.linalg.LinAlgError:
                        break
                raise ValueError(f"ALS system of {side} row {r} is not positive definite in sweep "
                                 f"{sweep} (alpha {alpha:g}, lambda {lam:g}); lower k") from None
        if np.isfinite(target).all():
            return
    raise ValueError(f"ALS diverged: non-finite factors in sweep {sweep} "
                     f"(alpha {alpha:g}, lambda {lam:g})")

