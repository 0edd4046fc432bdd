"""Reference `conv1d_time`: one `np.einsum` per kernel tap, forward and backward.

`coldrec.nn` runs the same same-padded time correlation as one GEMM per tap
over an unrolled input; the tests compare it against this direct form.
"""

import numpy as np


def conv_forward(w, b, x):
    """(B, C, T) input, (F, C, width) weights -> (B, F, T) output and the padded input."""
    width = w.shape[2]
    left = (width - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (left, width - 1 - left)))
    t = x.shape[2]
    y = np.zeros((x.shape[0], w.shape[0], t))
    for dt in range(width):
        y += np.einsum("bct,fc->bft", xp[:, :, dt:dt + t], w[:, :, dt], optimize=True)
    return y + b[None, :, None], xp


def conv_backward(w, xp, dy):
    """Gradients (dx, dW, db) for the output gradient ``dy``."""
    width = w.shape[2]
    t = dy.shape[2]
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for dt in range(width):
        dw[:, :, dt] = np.einsum("bft,bct->fc", dy, xp[:, :, dt:dt + t], optimize=True)
        dxp[:, :, dt:dt + t] += np.einsum("bft,fc->bct", dy, w[:, :, dt], optimize=True)
    left = (width - 1) // 2
    return dxp[:, :, left:left + t], dw, dy.sum(axis=(0, 2))
