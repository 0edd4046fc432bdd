"""Dense count arrays in and out of `coldrec.data.FeedbackMatrix`: tests build
their matrices from dense arrays and check them against dense arrays."""

import numpy as np

from coldrec.data import FeedbackMatrix


def feedback(dense, user_ids=None, item_ids=None) -> FeedbackMatrix:
    """The matrix of a dense count array, from its nonzero entries in row-major order."""
    dense = np.asarray(dense)
    rows, cols = np.nonzero(dense)
    return FeedbackMatrix(user_ids or [f"u{i}" for i in range(dense.shape[0])],
                          item_ids or [f"s{i}" for i in range(dense.shape[1])],
                          rows, cols, dense[rows, cols])


def to_dense(m: FeedbackMatrix) -> np.ndarray:
    """The counts as a dense (n_users, n_items) array, read row by row off the CSR arrays."""
    dense = np.zeros((m.n_users, m.n_items), dtype=np.int64)
    for u in range(m.n_users):
        lo, hi = m.indptr[u], m.indptr[u + 1]
        dense[u, m.indices[lo:hi]] = m.counts[lo:hi]
    return dense
