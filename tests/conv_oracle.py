"""Reference `conv1d_time` in two forms, forward and backward.

`coldrec.nn` runs the same-padded time correlation as one GEMM over an
unrolled input. `unroll`, `gemm_forward` and `gemm_backward` rebuild that
unroll with plain loops over channels and taps and feed it the same GEMMs, so
they must agree with the library bit for bit. `conv_forward` and
`conv_backward` are the direct form, one `np.einsum` per kernel tap; they sum
in another order and agree only to rounding.
"""

import numpy as np


def _pad(x, width):
    left = (width - 1) // 2
    return np.pad(x, ((0, 0), (0, 0), (left, width - 1 - left)))


def unroll(x, width):
    """(B, C, T) input -> cols[c*width + dt, b*T + t] = xp[b, c, t + dt] for the padded xp."""
    b, c, t = x.shape
    xp = _pad(x, width)
    cols = np.empty((c, width, b, t))
    for ci in range(c):
        for dt in range(width):
            cols[ci, dt] = xp[:, ci, dt:dt + t]
    return cols.reshape(c * width, b * t)


def gemm_forward(w, b, x):
    """(B, C, T) input, (F, C, width) weights -> (B, F, T) output and the column matrix."""
    f = w.shape[0]
    bsz, _, t = x.shape
    cols = unroll(x, w.shape[2])
    y = w.reshape(f, -1) @ cols + b[:, None]
    return y.reshape(f, bsz, t).transpose(1, 0, 2), cols


def gemm_backward(w, cols, dy):
    """Gradients (dx, dW, db) from the column matrix; dx is summed onto zeros in tap order."""
    f, c, width = w.shape
    bsz, _, t = dy.shape
    dy_f = dy.transpose(1, 0, 2).reshape(f, bsz * t)
    dw = (dy_f @ cols.T).reshape(w.shape)
    dcols = (w.reshape(f, -1).T @ dy_f).reshape(c, width, bsz, t)
    dxp = np.zeros((bsz, c, t + width - 1))
    for dt in range(width):
        dxp[:, :, dt:dt + t] += dcols[:, dt].transpose(1, 0, 2)
    left = (width - 1) // 2
    return dxp[:, :, left:left + t], dw, dy.sum(axis=(0, 2))


def conv_forward(w, b, x):
    """(B, C, T) input, (F, C, width) weights -> (B, F, T) output and the padded input."""
    width = w.shape[2]
    xp = _pad(x, width)
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
