"""Minimal deterministic neural kernel in float64 numpy.

Layer vocabulary: dense, conv1d_time, maxpool_time, relu, dropout,
batchnorm, l2norm, flatten, concat. Networks are a flat trunk, optionally
fed by named input branches that merge at a concat layer. Everything is
seeded and reproducible; no autodiff, gradients are hand-derived and
verified by finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EPS_NORM = 1e-12
BN_EPS = 1e-5
BN_MOMENTUM = 0.9
# Adam's moment decay rates and denominator offset (Kingma & Ba 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

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
    pool: int = 0                # maxpool_time window (0 if adaptive)
    output_steps: int = 0        # maxpool_time adaptive target (0 if windowed)
    rate: float = 0.0            # dropout

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "dropout" and not 0.0 <= self.rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        if self.kind == "maxpool_time" and (self.pool <= 0) == (self.output_steps <= 0):
            raise ValueError("maxpool_time needs exactly one of pool, output_steps")


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

    def output_dim(self) -> int:
        shape = infer_shapes(self)[f"trunk/{len(self.trunk) - 1}"]
        if len(shape) != 1:
            raise ShapeError(f"network output is not a vector: {shape}")
        return shape[0]

    def embed_dim(self) -> int:
        shape = infer_shapes(self)[f"trunk/{self.embed_tap % len(self.trunk)}"]
        return int(np.prod(shape))


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
        if spec.pool > 0:
            t_out = t // spec.pool
            if t_out < 1:
                raise ShapeError(f"pool {spec.pool} larger than {t} frames")
            return (c, t_out)
        return (c, spec.output_steps)
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

def init_params(net: NetworkSpec, seed: int) -> dict[str, dict[str, np.ndarray]]:
    """Glorot-normal weights, zero biases, identity batchnorm."""
    rng = np.random.default_rng(seed)
    params: dict[str, dict[str, np.ndarray]] = {}
    out_shapes = infer_shapes(net)
    for name, spec in net.layer_items():
        # a layer's input is the previous layer's output, or the net input for a first layer
        branch, i = name.rsplit("/", 1)
        in_shape = (out_shapes[f"{branch}/{int(i) - 1}"] if i != "0"
                    else net.input_shapes.get("" if branch == "trunk" else branch))
        if spec.kind == "dense":
            fan_in, fan_out = in_shape[0], spec.units
            std = math.sqrt(2.0 / (fan_in + fan_out))
            params[name] = {
                "W": rng.normal(0.0, std, size=(fan_in, spec.units)),
                "b": np.zeros(spec.units),
            }
        elif spec.kind == "conv1d_time":
            c = in_shape[0]
            fan_in, fan_out = c * spec.width, spec.filters * spec.width
            std = math.sqrt(2.0 / (fan_in + fan_out))
            params[name] = {
                "W": rng.normal(0.0, std, size=(spec.filters, c, spec.width)),
                "b": np.zeros(spec.filters),
            }
        elif spec.kind == "batchnorm":
            n = in_shape[0]
            params[name] = {
                "gamma": np.ones(n),
                "beta": np.zeros(n),
                "running_mean": np.zeros(n),
                "running_var": np.ones(n),
            }
        else:
            params[name] = {}
    return params


TRAINABLE = {"W", "b", "gamma", "beta"}


# ---------------------------------------------------------------------------
# Single-layer forward / backward

def layer_forward(spec: LayerSpec, params: dict, x, mode: str = "train",
                  rng: np.random.Generator | None = None):
    """Apply one layer to a batched input; returns (output, cache)."""
    if spec.kind == "dense":
        y = x @ params["W"] + params["b"]
        return y, {"x": x}
    if spec.kind == "conv1d_time":
        return _conv_forward(spec, params, x)
    if spec.kind == "maxpool_time":
        return _pool_forward(spec, x)
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


def layer_backward(spec: LayerSpec, params: dict, cache: dict, dy):
    """Gradient of one layer; returns (input gradient, parameter gradients)."""
    if spec.kind == "dense":
        x = cache["x"]
        return dy @ params["W"].T, {"W": x.T @ dy, "b": dy.sum(axis=0)}
    if spec.kind == "conv1d_time":
        return _conv_backward(spec, params, cache, dy)
    if spec.kind == "maxpool_time":
        return _pool_backward(cache, dy), {}
    if spec.kind == "relu":
        return dy * cache["mask"], {}
    if spec.kind == "dropout":
        mask = cache["mask"]
        return (dy if mask is None else dy * mask), {}
    if spec.kind == "batchnorm":
        return _bn_backward(params, cache, dy)
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
    # output keeps T steps (zero padding, the extra one on the right)
    w, b = params["W"], params["b"]
    total = spec.width - 1
    left = total // 2
    xp = np.pad(x, ((0, 0), (0, 0), (left, total - left)))
    t_out = x.shape[2]
    y = np.zeros((x.shape[0], spec.filters, t_out))
    for dt in range(spec.width):
        # (B, C, t_out) x (F, C) -> (B, F, t_out)
        y += np.einsum("bct,fc->bft", xp[:, :, dt:dt + t_out], w[:, :, dt], optimize=True)
    y += b[None, :, None]
    return y, {"xp": xp}


def _conv_backward(spec: LayerSpec, params: dict, cache: dict, dy):
    w = params["W"]
    xp = cache["xp"]
    t_out = dy.shape[2]
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for dt in range(spec.width):
        dw[:, :, dt] = np.einsum("bft,bct->fc", dy, xp[:, :, dt:dt + t_out], optimize=True)
        dxp[:, :, dt:dt + t_out] += np.einsum("bft,fc->bct", dy, w[:, :, dt], optimize=True)
    db = dy.sum(axis=(0, 2))
    left = (spec.width - 1) // 2
    return dxp[:, :, left:left + t_out], {"W": dw, "b": db}


def _pool_segments(t: int, out_steps: int) -> list[tuple[int, int]]:
    # adaptive segments; may overlap / repeat when t < out_steps
    return [(i * t // out_steps, max(-(-((i + 1) * t) // out_steps), i * t // out_steps + 1))
            for i in range(out_steps)]


def _pool_forward(spec: LayerSpec, x):
    b, c, t = x.shape
    if spec.pool > 0:
        t_out = t // spec.pool
        if t_out < 1:
            raise ShapeError(f"pool {spec.pool} larger than {t} frames")
        xw = x[:, :, :t_out * spec.pool].reshape(b, c, t_out, spec.pool)
        arg = xw.argmax(axis=3)
        y = np.take_along_axis(xw, arg[..., None], axis=3)[..., 0]
        # absolute time index of each window max
        src = arg + np.arange(t_out)[None, None, :] * spec.pool
        return y, {"src": src, "in_shape": x.shape}
    segs = _pool_segments(t, spec.output_steps)
    cols = []
    src_cols = []
    for lo, hi in segs:
        seg = x[:, :, lo:hi]
        arg = seg.argmax(axis=2)
        cols.append(np.take_along_axis(seg, arg[..., None], axis=2)[..., 0])
        src_cols.append(arg + lo)
    y = np.stack(cols, axis=2)
    src = np.stack(src_cols, axis=2)
    return y, {"src": src, "in_shape": x.shape}


def _pool_backward(cache: dict, dy):
    src = cache["src"]
    dx = np.zeros(cache["in_shape"])
    b, c, _ = src.shape
    # one scatter; repeated sources (overlapping adaptive segments) accumulate
    np.add.at(dx, (np.arange(b)[:, None, None], np.arange(c)[None, :, None], src), dy)
    return dx


def _bn_forward(params: dict, x, mode: str):
    gamma, beta = params["gamma"], params["beta"]
    if mode == "train":
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mu) * inv
        params["running_mean"] = BN_MOMENTUM * params["running_mean"] + (1 - BN_MOMENTUM) * mu
        params["running_var"] = BN_MOMENTUM * params["running_var"] + (1 - BN_MOMENTUM) * var
        return gamma * xhat + beta, {"xhat": xhat, "inv": inv, "x": x, "mu": mu, "mode": "train"}
    inv = 1.0 / np.sqrt(params["running_var"] + BN_EPS)
    xhat = (x - params["running_mean"]) * inv
    return gamma * xhat + beta, {"xhat": xhat, "inv": inv, "mode": "eval"}


def _bn_backward(params: dict, cache: dict, dy):
    gamma = params["gamma"]
    xhat, inv = cache["xhat"], cache["inv"]
    dgamma = np.sum(dy * xhat, axis=0)
    dbeta = np.sum(dy, axis=0)
    if cache["mode"] == "eval":
        return dy * gamma * inv, {"gamma": dgamma, "beta": dbeta}
    n = dy.shape[0]
    dxhat = dy * gamma
    dx = (inv / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * np.sum(dxhat * xhat, axis=0))
    return dx, {"gamma": dgamma, "beta": dbeta}


# ---------------------------------------------------------------------------
# Whole-network forward / backward

def _layer_rngs(net: NetworkSpec, seed: int) -> dict[str, np.random.Generator]:
    rngs = {}
    for idx, (name, spec) in enumerate(net.layer_items()):
        if spec.kind == "dropout":
            rngs[name] = np.random.default_rng([seed, idx])
    return rngs


def net_forward(net: NetworkSpec, params, inputs, mode: str = "train", seed: int = 0):
    """Run the whole network; returns (output, caches, activations).

    ``inputs`` is a (B, ...) array, or a dict keyed by branch name for
    branched networks. Activations are recorded per layer name so the
    embedding tap can be read back.
    """
    rngs = _layer_rngs(net, seed) if mode == "train" else {}
    caches: dict[str, dict] = {}
    acts: dict[str, np.ndarray] = {}
    branch_out = []
    for branch, layers in net.branches.items():
        x = np.asarray(inputs[branch], dtype=np.float64)
        for i, spec in enumerate(layers):
            name = f"{branch}/{i}"
            x, caches[name] = layer_forward(spec, params.get(name, {}), x, mode, rngs.get(name))
            acts[name] = x
        branch_out.append(x)
    if net.branches:
        x = branch_out
    else:
        x = np.asarray(inputs, dtype=np.float64)
    for i, spec in enumerate(net.trunk):
        name = f"trunk/{i}"
        x, caches[name] = layer_forward(spec, params.get(name, {}), x, mode, rngs.get(name))
        acts[name] = x
    return x, caches, acts


def net_backward(net: NetworkSpec, params, caches, dy):
    """Reverse-mode pass; returns ({layer: {tensor: grad}}, input gradient(s))."""
    grads: dict[str, dict[str, np.ndarray]] = {}
    g = dy
    branch_grads = None
    for i in range(len(net.trunk) - 1, -1, -1):
        name = f"trunk/{i}"
        spec = net.trunk[i]
        g, pg = layer_backward(spec, params.get(name, {}), caches[name], g)
        if pg:
            grads[name] = pg
        if spec.kind == "concat":
            branch_grads = g
    if not net.branches:
        return grads, g
    din: dict[str, np.ndarray] = {}
    for bidx, (branch, layers) in enumerate(net.branches.items()):
        g = branch_grads[bidx]
        for i in range(len(layers) - 1, -1, -1):
            name = f"{branch}/{i}"
            g, pg = layer_backward(layers[i], params.get(name, {}), caches[name], g)
            if pg:
                grads[name] = pg
        din[branch] = g
    return grads, din


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
    m: dict[str, dict[str, np.ndarray]]
    v: dict[str, dict[str, np.ndarray]]
    t: int = 0
    lr: float = 0.001

    @staticmethod
    def for_params(params, lr: float = 0.001) -> "AdamState":
        zeros = lambda: {
            layer: {k: np.zeros_like(v) for k, v in tensors.items() if k in TRAINABLE}
            for layer, tensors in params.items()
        }
        return AdamState(m=zeros(), v=zeros(), lr=lr)


def adam_step(params, grads, state: AdamState) -> None:
    """One Adam update, in place over every gradient tensor."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for layer, tensors in grads.items():
        for key, g in tensors.items():
            m = state.m[layer][key]
            v = state.v[layer][key]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            params[layer][key] -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Verification

def gradient_check(net: NetworkSpec, params, inputs, target, h: float = 1e-5,
                   seed: int = 0, samples_per_tensor: int = 5,
                   check_seed: int = 12345) -> float:
    """Max relative error between analytic and central-difference gradients.

    The forward seed is fixed, so dropout masks are frozen across the
    perturbed evaluations.
    """
    def loss_at() -> float:
        out, _, _ = net_forward(net, params, inputs, mode="train", seed=seed)
        return cosine_loss(out, target)[0]

    out, caches, _ = net_forward(net, params, inputs, mode="train", seed=seed)
    _, dpred = cosine_loss(out, target)
    grads, _ = net_backward(net, params, caches, dpred)

    rng = np.random.default_rng(check_seed)
    worst = 0.0
    for layer in sorted(grads):
        for key in sorted(grads[layer]):
            tensor = params[layer][key]
            flat = tensor.reshape(-1)
            n = flat.size
            coords = rng.choice(n, size=min(samples_per_tensor, n), replace=False)
            for c in coords:
                orig = flat[c]
                flat[c] = orig + h
                up = loss_at()
                flat[c] = orig - h
                down = loss_at()
                flat[c] = orig
                numeric = (up - down) / (2 * h)
                analytic = grads[layer][key].reshape(-1)[c]
                denom = max(abs(analytic), abs(numeric), 1e-8)
                worst = max(worst, abs(analytic - numeric) / denom)
    return worst
