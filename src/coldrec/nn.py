"""Minimal deterministic neural kernel in float64 numpy.

Layer vocabulary: dense, conv1d_time, maxpool_time, relu, dropout,
batchnorm, l2norm, flatten, concat. Networks are a flat trunk, optionally
fed by named input branches that merge at a concat layer. Everything is
seeded and reproducible; no autodiff, gradients are hand-derived (the
tests check them by finite differences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

EPS_NORM = 1e-12
BN_EPS = 1e-5
BN_MOMENTUM = 0.9
# Adam's moment decay rates and denominator offset (Kingma & Ba 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# elements per in-place Adam block; on the zoo nets 4K blocks or whole tensors took 1.2-1.4x as long
ADAM_CHUNK = 16384

KINDS = ("dense", "conv1d_time", "maxpool_time", "relu", "dropout",
         "batchnorm", "l2norm", "flatten", "concat")


class ShapeError(ValueError):
    pass


@dataclass
class LayerSpec:
    kind: str
    units: int = 0               # dense
    filters: int = 0             # conv1d_time
    width: int = 0               # conv1d_time kernel width (same-padded)
    pool: int = 0                # maxpool_time window
    rate: float = 0.0            # dropout

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "dropout" and not 0.0 <= self.rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        if self.kind == "maxpool_time" and self.pool < 1:
            raise ValueError("maxpool_time needs a window pool >= 1")


@dataclass
class NetworkSpec:
    trunk: list[LayerSpec]
    branches: dict[str, list[LayerSpec]] = field(default_factory=dict)
    input_shapes: dict[str, tuple] = field(default_factory=dict)  # branch (or "") -> shape sans batch
    embed_tap: int = -2  # trunk index whose output is the embedding

    def layer_items(self):
        """(name, spec) pairs in deterministic flattened order."""
        for branch, layers in self.branches.items():
            for i, spec in enumerate(layers):
                yield f"{branch}/{i}", spec
        for i, spec in enumerate(self.trunk):
            yield f"trunk/{i}", spec


def layer_out_shape(spec: LayerSpec, shape: tuple) -> tuple:
    """Output shape (sans batch) of one layer applied to ``shape``."""
    if spec.kind == "dense":
        if len(shape) != 1:
            raise ShapeError(f"dense expects a vector input, got {shape}")
        return (spec.units,)
    if spec.kind == "conv1d_time":
        if len(shape) != 2:
            raise ShapeError(f"conv1d_time expects (channels, time), got {shape}")
        return (spec.filters, shape[1])
    if spec.kind == "maxpool_time":
        if len(shape) != 2:
            raise ShapeError(f"maxpool_time expects (channels, time), got {shape}")
        c, t = shape
        if t < spec.pool:
            raise ShapeError(f"pool {spec.pool} larger than {t} frames")
        return (c, t // spec.pool)
    if spec.kind == "flatten":
        return (int(np.prod(shape)),)
    if spec.kind == "batchnorm":
        if len(shape) != 1:
            raise ShapeError(f"batchnorm expects a vector input, got {shape}")
        return shape
    return shape  # relu, dropout, l2norm keep shape


def infer_shapes(net: NetworkSpec) -> dict[str, tuple]:
    """Propagate shapes through the network; raises ShapeError on mismatch."""
    shapes: dict[str, tuple] = {}
    branch_out: dict[str, tuple] = {}
    for branch, layers in net.branches.items():
        shape = net.input_shapes[branch]
        for i, spec in enumerate(layers):
            shape = layer_out_shape(spec, shape)
            shapes[f"{branch}/{i}"] = shape
        branch_out[branch] = shape
    if net.branches:
        if not net.trunk or net.trunk[0].kind != "concat":
            raise ShapeError("branched network must start its trunk with concat")
        for s in branch_out.values():
            if len(s) != 1:
                raise ShapeError("concat expects vector branch outputs")
        shape = (sum(s[0] for s in branch_out.values()),)
        shapes["trunk/0"] = shape
        rest = enumerate(net.trunk[1:], start=1)
    else:
        shape = net.input_shapes[""]
        rest = enumerate(net.trunk)
    for i, spec in rest:
        if spec.kind == "concat":
            raise ShapeError("concat is only valid as the first trunk layer")
        shape = layer_out_shape(spec, shape)
        shapes[f"trunk/{i}"] = shape
    return shapes


# ---------------------------------------------------------------------------
# Parameters

def param_shapes(net: NetworkSpec) -> dict[str, dict[str, tuple]]:
    """Every layer's tensor shapes by layer and tensor name, in ``init_params``'s order."""
    out_shapes = infer_shapes(net)
    shapes: dict[str, dict[str, tuple]] = {}
    for name, spec in net.layer_items():
        # a layer's input is the previous layer's output, or the net input for a first layer
        branch, i = name.rsplit("/", 1)
        in_shape = (out_shapes[f"{branch}/{int(i) - 1}"] if i != "0"
                    else net.input_shapes.get("" if branch == "trunk" else branch))
        if spec.kind == "dense":
            shapes[name] = {"W": (in_shape[0], spec.units), "b": (spec.units,)}
        elif spec.kind == "conv1d_time":
            shapes[name] = {"W": (spec.filters, in_shape[0], spec.width), "b": (spec.filters,)}
        elif spec.kind == "batchnorm":
            shapes[name] = dict.fromkeys(("gamma", "beta", "running_mean", "running_var"),
                                         (in_shape[0],))
        else:
            shapes[name] = {}
    return shapes


def init_params(net: NetworkSpec, seed: int) -> dict[str, dict[str, np.ndarray]]:
    """Glorot-normal weights, zero biases, identity batchnorm."""
    rng = np.random.default_rng(seed)
    params: dict[str, dict[str, np.ndarray]] = {}
    for name, shapes in param_shapes(net).items():
        params[name] = {}
        for key, shape in shapes.items():
            if key == "W":
                # fan in + fan out: a dense W is (in, out), a conv W (out, in, width)
                std = math.sqrt(2.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
                params[name][key] = rng.normal(0.0, std, size=shape)
            elif key in ("gamma", "running_var"):
                params[name][key] = np.ones(shape)
            else:
                params[name][key] = np.zeros(shape)
    return params


TRAINABLE = {"W", "b", "gamma", "beta"}


class FactoredGrad:
    """A dense layer's weight gradient ``x.T @ dy``, held as its two factors.

    ``adam_step`` forms it a block of rows at a time, so the whole gradient
    never exists in training; ``np.asarray`` forms it whole.
    """

    __slots__ = ("x", "dy")

    def __init__(self, x: np.ndarray, dy: np.ndarray):
        self.x, self.dy = x, dy

    @property
    def shape(self) -> tuple[int, int]:
        return self.x.shape[1], self.dy.shape[1]

    @property
    def size(self) -> int:
        return self.x.shape[1] * self.dy.shape[1]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.x.T @ self.dy, dtype=dtype)


# ---------------------------------------------------------------------------
# Single-layer forward / backward

def layer_forward(spec: LayerSpec, params: dict, x, mode: str = "train",
                  rng: np.random.Generator | None = None):
    """Apply one layer to a batched input; returns (output, cache).

    The cache is what ``layer_backward`` reads after a train-mode forward. No
    backward follows an eval-mode forward, so ``net_forward`` drops its caches,
    and maxpool_time returns an empty one rather than track its maxima.
    """
    if spec.kind == "dense":
        y = x @ params["W"] + params["b"]
        return y, {"x": x}
    if spec.kind == "conv1d_time":
        return _conv_forward(spec, params, x)
    if spec.kind == "maxpool_time":
        return _pool_forward(spec, x, mode)
    if spec.kind == "relu":
        mask = x > 0
        return x * mask, {"mask": mask}
    if spec.kind == "dropout":
        if mode == "eval" or spec.rate == 0.0:
            return x, {"mask": None}
        if rng is None:
            raise ValueError("train-mode dropout requires a generator")
        mask = (rng.random(x.shape) >= spec.rate) / (1.0 - spec.rate)
        return x * mask, {"mask": mask}
    if spec.kind == "batchnorm":
        return _bn_forward(params, x, mode)
    if spec.kind == "l2norm":
        norms = np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), EPS_NORM)
        return x / norms, {"x": x, "norms": norms}
    if spec.kind == "flatten":
        return x.reshape(x.shape[0], -1), {"shape": x.shape}
    if spec.kind == "concat":
        parts = list(x)  # sequence of (B, D_i) arrays in branch order
        return np.concatenate(parts, axis=-1), {"dims": [p.shape[-1] for p in parts]}
    raise ValueError(f"unknown layer kind {spec.kind!r}")


def layer_backward(spec: LayerSpec, params: dict, cache: dict, dy, skip_dx: bool = False):
    """Gradient of one layer; returns (input gradient, parameter gradients).

    With ``skip_dx`` a dense, conv1d_time or batchnorm layer returns None as its input gradient.
    A dense layer's weight gradient stays factored (``FactoredGrad``).
    """
    if spec.kind == "dense":
        dx = None if skip_dx else dy @ params["W"].T
        return dx, {"W": FactoredGrad(cache["x"], dy), "b": dy.sum(axis=0)}
    if spec.kind == "conv1d_time":
        return _conv_backward(spec, params, cache, dy, skip_dx)
    if spec.kind == "maxpool_time":
        return _pool_backward(spec, cache, dy), {}
    if spec.kind == "relu":
        return dy * cache["mask"], {}
    if spec.kind == "dropout":
        mask = cache["mask"]
        return (dy if mask is None else dy * mask), {}
    if spec.kind == "batchnorm":
        return _bn_backward(params, cache, dy, skip_dx)
    if spec.kind == "l2norm":
        x, norms = cache["x"], cache["norms"]
        dot = np.sum(x * dy, axis=-1, keepdims=True)
        raw_norm = np.linalg.norm(x, axis=-1, keepdims=True)
        clamped = raw_norm < EPS_NORM
        dx = dy / norms - x * dot / norms**3
        if np.any(clamped):
            dx = np.where(clamped, dy / EPS_NORM, dx)
        return dx, {}
    if spec.kind == "flatten":
        return dy.reshape(cache["shape"]), {}
    if spec.kind == "concat":
        splits = np.cumsum(cache["dims"])[:-1]
        return np.split(dy, splits, axis=-1), {}
    raise ValueError(f"unknown layer kind {spec.kind!r}")


def _conv_forward(spec: LayerSpec, params: dict, x):
    # x: (B, C, T); correlation along time only, all channels mixed; the
    # output keeps T steps (zero padding, the extra one on the right).
    # The padded input is unrolled once into the column matrix
    # cols[c*width + dt, b*T + t] = xp[b, c, t + dt], and the layer is one
    # GEMM over channels x taps (Chellapilla, Puri & Simard 2006), so its sums
    # round in BLAS's (channel, tap) order (tests/conv_oracle.py).
    w, b = params["W"], params["b"]
    bsz, c, t = x.shape
    total = spec.width - 1
    left = total // 2
    xp = np.pad(x, ((0, 0), (0, 0), (left, total - left)))
    windows = sliding_window_view(xp, t, axis=2).transpose(1, 2, 0, 3)  # (C, width, B, T)
    # copied even at T = 1, where a reshape alone would hand BLAS a strided
    # view, which rounds unlike the contiguous matrix
    cols = np.ascontiguousarray(windows).reshape(c * spec.width, bsz * t)
    y = w.reshape(spec.filters, -1) @ cols
    y += b[:, None]
    y = np.ascontiguousarray(y.reshape(spec.filters, bsz, t).transpose(1, 0, 2))
    return y, {"cols": cols}


def _conv_backward(spec: LayerSpec, params: dict, cache: dict, dy, skip_dx: bool):
    w, cols = params["W"], cache["cols"]
    bsz, f, t = dy.shape
    dy_f = dy.transpose(1, 0, 2).reshape(f, bsz * t)
    grads = {"W": (dy_f @ cols.T).reshape(w.shape), "b": dy.sum(axis=(0, 2))}
    if skip_dx:
        return None, grads
    # col2im: each tap's rows of W2.T @ dy_f summed onto the padded input gradient in tap order
    dcols = (w.reshape(f, -1).T @ dy_f).reshape(-1, spec.width, bsz, t)
    dxp = np.zeros((dcols.shape[0], bsz, t + spec.width - 1))
    for dt in range(spec.width):
        dxp[:, :, dt:dt + t] += dcols[:, dt]
    left = (spec.width - 1) // 2
    return dxp[:, :, left:left + t].transpose(1, 0, 2), grads


def _pool_forward(spec: LayerSpec, x, mode: str):
    b, c, t = x.shape
    t_out = t // spec.pool
    if t_out < 1:
        raise ShapeError(f"pool {spec.pool} larger than {t} frames")
    xw = x[:, :, :t_out * spec.pool].reshape(b, c, t_out, spec.pool)
    # a running max over the window's strided columns; on equal values
    # np.maximum returns its second operand, the earlier frame's value
    y = xw[..., 0].copy()
    if mode == "eval":
        for k in range(1, spec.pool):
            np.maximum(xw[..., k], y, out=y)
        return y, {}
    # window-local index of each window's first maximum: a frame takes it
    # only if it is strictly greater than every frame before it
    arg = np.zeros(y.shape, np.min_scalar_type(spec.pool - 1))
    for k in range(1, spec.pool):
        np.copyto(arg, k, where=xw[..., k] > y)
        np.maximum(xw[..., k], y, out=y)
    return y, {"arg": arg, "in_shape": x.shape}


def _pool_backward(spec: LayerSpec, cache: dict, dy):
    dx = np.zeros(cache["in_shape"])
    b, c, t_out = dy.shape
    dxw = dx[:, :, :t_out * spec.pool].reshape(b, c, t_out, spec.pool)
    # windows are disjoint, so each gradient lands on its own frame and one put
    # suffices; + 0.0 maps -0.0 to the +0.0 a sum onto zeros gives
    np.put_along_axis(dxw, cache["arg"][..., None], dy[..., None] + 0.0, axis=3)
    return dx


def _bn_forward(params: dict, x, mode: str):
    if mode == "train":
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        params["running_mean"] = BN_MOMENTUM * params["running_mean"] + (1 - BN_MOMENTUM) * mu
        params["running_var"] = BN_MOMENTUM * params["running_var"] + (1 - BN_MOMENTUM) * var
    else:
        mu, var = params["running_mean"], params["running_var"]
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mu) * inv
    return params["gamma"] * xhat + params["beta"], {"xhat": xhat, "inv": inv}


def _bn_backward(params: dict, cache: dict, dy, skip_dx: bool):
    xhat, inv = cache["xhat"], cache["inv"]
    grads = {"gamma": np.sum(dy * xhat, axis=0), "beta": np.sum(dy, axis=0)}
    if skip_dx:
        return None, grads
    n = dy.shape[0]
    dxhat = dy * params["gamma"]
    dx = (inv / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * np.sum(dxhat * xhat, axis=0))
    return dx, grads


# ---------------------------------------------------------------------------
# Whole-network forward / backward

def _layer_rngs(net: NetworkSpec, seed: int) -> dict[str, np.random.Generator]:
    rngs = {}
    for idx, (name, spec) in enumerate(net.layer_items()):
        if spec.kind == "dropout":
            rngs[name] = np.random.default_rng([seed, idx])
    return rngs


def net_forward(net: NetworkSpec, params, inputs, mode: str = "train", seed: int = 0):
    """Run the whole network; returns (output, caches, embedding).

    ``inputs`` is a (B, ...) array, or a dict keyed by branch name for
    branched networks. ``embedding`` is the output of trunk layer
    ``net.embed_tap``. Caches are kept in train mode only: in eval mode each
    layer's cache dies with its call, and of its output only the tap's
    outlives the next layer.
    """
    rngs = _layer_rngs(net, seed) if mode == "train" else {}
    caches: dict[str, dict] = {}

    def run(name, spec, x):
        y, cache = layer_forward(spec, params.get(name, {}), x, mode, rngs.get(name))
        if mode == "train":
            caches[name] = cache
        return y

    branch_out = []
    for branch, layers in net.branches.items():
        x = np.asarray(inputs[branch], dtype=np.float64)
        for i, spec in enumerate(layers):
            x = run(f"{branch}/{i}", spec, x)
        branch_out.append(x)
    x = branch_out if net.branches else np.asarray(inputs, dtype=np.float64)
    tap = net.embed_tap % len(net.trunk)
    for i, spec in enumerate(net.trunk):
        x = run(f"trunk/{i}", spec, x)
        if i == tap:
            embedding = x
    return x, caches, embedding


def _lowest_trained(prefix: str, layers: list[LayerSpec], params) -> int:
    """Index of the chain's lowest layer with trainable tensors, or len(layers) if none."""
    return next((i for i in range(len(layers))
                 if TRAINABLE & params.get(f"{prefix}/{i}", {}).keys()), len(layers))


def net_backward(net: NetworkSpec, params, caches, dy) -> dict[str, dict[str, np.ndarray]]:
    """Reverse-mode pass; returns {layer: {tensor: grad}}.

    Each chain (the trunk, every branch) stops at its lowest layer with trainable
    tensors and skips that layer's input gradient; a branch without one is not walked.
    """
    grads: dict[str, dict[str, np.ndarray]] = {}

    def walk(prefix, layers, g, stop, skip_dx):
        for i in range(len(layers) - 1, stop - 1, -1):
            name = f"{prefix}/{i}"
            g, pg = layer_backward(layers[i], params.get(name, {}), caches[name], g,
                                   skip_dx=skip_dx and i == stop)
            if pg:
                grads[name] = pg
        return g

    stops = {b: _lowest_trained(b, layers, params) for b, layers in net.branches.items()}
    if any(stops[b] < len(layers) for b, layers in net.branches.items()):
        parts = walk("trunk", net.trunk, dy, 0, False)  # down to the concat
        for part, (branch, layers) in zip(parts, net.branches.items()):
            walk(branch, layers, part, stops[branch], True)
    else:
        walk("trunk", net.trunk, dy, _lowest_trained("trunk", net.trunk, params), True)
    return grads


# ---------------------------------------------------------------------------
# Loss and optimizer

def cosine_loss(pred: np.ndarray, target: np.ndarray):
    """Negative cosine similarity, averaged over the batch.

    Returns (loss, gradient wrt pred). Inputs are (B, D) or single vectors.
    """
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    tn = np.linalg.norm(target, axis=1, keepdims=True)
    if np.any(tn == 0):
        raise ValueError("cosine loss is undefined for a zero target vector")
    pn_raw = np.linalg.norm(pred, axis=1, keepdims=True)
    pn = np.maximum(pn_raw, EPS_NORM)
    dot = np.sum(pred * target, axis=1, keepdims=True)
    losses = -dot / (pn * tn)
    n = pred.shape[0]
    grad = (-target / (pn * tn) + pred * dot / (pn**3 * tn)) / n
    grad = np.where(pn_raw < EPS_NORM, -target / (EPS_NORM * tn) / n, grad)
    return float(losses.mean()), grad


@dataclass
class AdamState:
    """Adam's step count and moments, per trained tensor.

    The moments are held pre-divided by one minus their decay rate:
    ``m`` holds M = m/(1-b1) and ``v`` holds V = v/(1-b2), where m and v
    are Kingma & Ba's first and second moment estimates. So M = b1*M + g and
    V = b2*V + g*g, with no (1-b) multiply per element.
    """

    m: dict[str, dict[str, np.ndarray]]
    v: dict[str, dict[str, np.ndarray]]
    lr: float
    t: int = 0

    @staticmethod
    def for_params(params, lr: float) -> "AdamState":
        zeros = lambda: {
            layer: {k: np.zeros_like(v) for k, v in tensors.items() if k in TRAINABLE}
            for layer, tensors in params.items()
        }
        return AdamState(m=zeros(), v=zeros(), lr=lr)


def _blocks(g) -> list[tuple[int, int]]:
    """Adam's blocks over a gradient's flat elements, as (lo, hi) pairs.

    An array is cut every ADAM_CHUNK elements. A factored gradient is cut every
    max(2, ADAM_CHUNK // units) rows, and a 1-row tail joins the block before it:
    numpy hands a 1-row product to gemv, which rounds unlike the gemm of ``x.T @ dy``.
    """
    if not isinstance(g, FactoredGrad):
        return [(lo, min(lo + ADAM_CHUNK, g.size)) for lo in range(0, g.size, ADAM_CHUNK)]
    rows, units = g.shape
    bounds = list(range(0, rows, max(2, ADAM_CHUNK // units))) + [rows]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [(lo * units, hi * units) for lo, hi in zip(bounds, bounds[1:])]


def adam_step(params, grads, state: AdamState) -> None:
    """One Adam update, in place over every gradient tensor, a block at a time (``_blocks``).

    A factored gradient's block is one GEMM, ``x.T[lo:hi] @ dy``, formed just before its
    update; its rows come out bit-identical to those of ``x.T @ dy``. With the scaled
    moments of ``AdamState``, each element sees ten float operations, in this order::

        M *= b1;  M += g;  s = g*g;  V *= b2;  V += s
        s = sqrt(V);  s += eps';  s = M/s;  s *= lr';  p -= s

    with c2 = (1-b2)/(1-b2**t), lr' = lr*(1-b1)/((1-b1**t)*sqrt(c2)) and
    eps' = eps/sqrt(c2). In exact arithmetic this is Kingma & Ba's
    ``p -= lr*m_hat/(sqrt(v_hat) + eps)``; in floats it differs in the last bits.
    """
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    root_c2 = math.sqrt((1 - b2) / (1 - b2**state.t))
    lr = state.lr * (1 - b1) / ((1 - b1**state.t) * root_c2)
    eps = ADAM_EPS / root_c2
    for layer, tensors in grads.items():
        for key, g in tensors.items():
            p = params[layer][key]
            if not p.flags.c_contiguous:
                raise ValueError(f"Adam updates {layer}/{key} in place, so it must be C-contiguous")
            blocks = _blocks(g)
            scratch = np.empty(max((hi - lo for lo, hi in blocks), default=0))
            flat = (p.reshape(-1), state.m[layer][key].reshape(-1),
                    state.v[layer][key].reshape(-1))
            g_flat = None if isinstance(g, FactoredGrad) else g.reshape(-1)
            for lo, hi in blocks:
                pc, mc, vc = (a[lo:hi] for a in flat)
                s = scratch[:hi - lo]
                if g_flat is not None:
                    gc = g_flat[lo:hi]
                else:
                    # formed in the scratch, which s = g*g then overwrites: g is not read after it
                    units = g.shape[1]
                    np.matmul(g.x.T[lo // units:hi // units], g.dy, out=s.reshape(-1, units))
                    gc = s
                mc *= b1
                mc += gc
                np.multiply(gc, gc, out=s)
                vc *= b2
                vc += s
                np.sqrt(vc, out=s)
                s += eps
                np.divide(mc, s, out=s)
                s *= lr
                pc -= s
