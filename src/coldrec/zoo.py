"""Network builders for the three architectures, plus mapping training."""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import replacing
from .nn import LayerSpec, NetworkSpec

TRACK_FILTERS = (256, 512, 1024, 1024)
ARTIST_HIDDEN = 2048
FUSION_HIDDEN = 512
FUSION_DROPOUT = 0.7
TRACK_DROPOUT = 0.5
TRACK_WIDTH = 4  # conv kernel width in frames
TRACK_POOL = 4
# rows per eval-mode forward; `pipeline` reads extract's patches in chunks of this size
EVAL_BATCH = 256


@dataclass
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    lr: float = 0.001

    def validate(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError(f"max epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not self.lr > 0:
            raise ValueError(f"learning rate must be > 0, got {self.lr}")


@dataclass
class TrainLog:
    epochs: list[tuple[int, float, float]] = field(default_factory=list)  # (epoch, train, val)
    best_epoch: int = -1
    best_val: float = math.inf

    def write_tsv(self, path) -> None:
        with replacing(path) as fh:
            fh.write("epoch\ttrain_loss\tval_loss\n")
            for epoch, tr, va in self.epochs:
                fh.write(f"{epoch}\t{tr:.10f}\t{va:.10f}\n")


def build_artist_net(vocab_size: int, k: int) -> NetworkSpec:
    """Feedforward text net: two wide relu layers, linear unit-norm head."""
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    trunk = [
        LayerSpec("dense", units=ARTIST_HIDDEN), LayerSpec("relu"),
        LayerSpec("dense", units=ARTIST_HIDDEN), LayerSpec("relu"),
        LayerSpec("dense", units=k), LayerSpec("l2norm"),
    ]
    tap = len(trunk) - 3  # after the second relu
    return NetworkSpec(trunk=trunk, input_shapes={"": (vocab_size,)}, embed_tap=tap)


def build_track_net(bins: int, frames: int, k: int, scale: float = 1.0) -> NetworkSpec:
    """Time-axis CNN over spectrogram patches.

    Four conv layers with widths scaled from 256/512/1024/1024, max-pool 4
    after the first three, then one max-pool window over every frame the
    pyramid leaves (``frames // 64``), so the flattened embedding is the last
    filter count.
    """
    if bins < 1 or frames < 1:
        raise ValueError("bins and frames must be >= 1")
    if not 0 < scale <= 1:
        raise ValueError("scale must be in (0, 1]")
    if frames // TRACK_POOL**3 < 1:
        raise ValueError(
            f"patch of {frames} frames is too short for the pooling pyramid "
            f"(needs >= {TRACK_POOL**3})"
        )
    filters = [math.ceil(scale * f) for f in TRACK_FILTERS]
    trunk: list[LayerSpec] = []
    for layer_idx, f in enumerate(filters):
        trunk += [
            LayerSpec("conv1d_time", filters=f, width=TRACK_WIDTH),
            LayerSpec("relu"),
            LayerSpec("dropout", rate=TRACK_DROPOUT),
        ]
        if layer_idx < 3:
            trunk.append(LayerSpec("maxpool_time", pool=TRACK_POOL))
    trunk += [
        LayerSpec("maxpool_time", pool=frames // TRACK_POOL**3),
        LayerSpec("flatten"),
        LayerSpec("dense", units=k),
        LayerSpec("l2norm"),
    ]
    tap = len(trunk) - 3  # flatten output
    return NetworkSpec(trunk=trunk, input_shapes={"": (bins, frames)}, embed_tap=tap)


def build_fusion_net(variant: str, dim_a: int, dim_t: int, k: int) -> NetworkSpec:
    """Late-fusion of artist and track embeddings.

    ``lin``: per-branch l2-norm and heavy input dropout, concatenation
    straight into the linear unit-norm head. ``h1``: per-branch batchnorm,
    dropout and a 512-unit relu layer before the head.
    """
    if dim_a < 1 or dim_t < 1:
        raise ValueError("embedding dimensions must be >= 1")
    if variant == "lin":
        branch = [LayerSpec("l2norm"), LayerSpec("dropout", rate=FUSION_DROPOUT)]
    elif variant == "h1":
        branch = [
            LayerSpec("batchnorm"),
            LayerSpec("dropout", rate=FUSION_DROPOUT),
            LayerSpec("dense", units=FUSION_HIDDEN), LayerSpec("relu"),
        ]
    else:
        raise ValueError(f"unknown fusion variant {variant!r} (expected 'lin' or 'h1')")
    trunk = [LayerSpec("concat"), LayerSpec("dense", units=k), LayerSpec("l2norm")]
    return NetworkSpec(
        trunk=trunk,
        branches={"artist": branch, "track": list(branch)},
        input_shapes={"artist": (dim_a,), "track": (dim_t,)},
        embed_tap=0,  # concat output
    )


def build_single_branch_net(dim: int, k: int) -> NetworkSpec:
    """Linear mapping from one embedding modality to factors (sem-emb style)."""
    if dim < 1:
        raise ValueError("embedding dimension must be >= 1")
    trunk = [
        LayerSpec("l2norm"), LayerSpec("dropout", rate=FUSION_DROPOUT),
        LayerSpec("dense", units=k), LayerSpec("l2norm"),
    ]
    return NetworkSpec(trunk=trunk, input_shapes={"": (dim,)}, embed_tap=0)


# ---------------------------------------------------------------------------
# Training

def _take(features, idx):
    if isinstance(features, dict):
        return {k: v[idx] for k, v in features.items()}
    return features[idx]


def _save_params(params, fh) -> None:
    """Overwrite the checkpoint with every tensor's bytes, in iteration order."""
    fh.seek(0)
    for tensors in params.values():
        for value in tensors.values():
            fh.write(memoryview(value).cast("B"))


def _load_params(params, fh) -> None:
    """Read the checkpoint back into the tensors in place, in the order it was written."""
    fh.seek(0)
    for layer, tensors in params.items():
        for key, value in tensors.items():
            if fh.readinto(memoryview(value).cast("B")) != value.nbytes:
                raise OSError(f"best-epoch checkpoint is short at {layer}/{key}")


# overflow surfaces as a non-finite loss, which is reported as divergence
@np.errstate(over="ignore", invalid="ignore")
def train_mapping(net: NetworkSpec, features, targets: np.ndarray,
                  val_features, val_targets: np.ndarray,
                  cfg: TrainConfig) -> tuple[dict, TrainLog]:
    """Train a content-to-factor mapping with Adam and cosine loss.

    ``features`` is a (n, ...) matrix, a dict of branch matrices, or a
    callable epoch -> features for per-epoch resampling (audio patches).
    Returns the parameters of the best validation epoch and the loss log.
    A non-finite training or validation loss (a learning rate too high) is
    a ValueError that names the epoch and the learning rate.
    """
    cfg.validate()
    n = targets.shape[0]
    if len(val_targets) == 0:
        raise ValueError("early stopping needs at least one validation row")
    params = nn.init_params(net, cfg.seed)
    state = nn.AdamState.for_params(params, lr=cfg.lr)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    log = TrainLog()
    # the best epoch lives in an unlinked file under TMPDIR, not in a resident copy:
    # it is written on each improving epoch but the last and read back once, at
    # the end, unless the last epoch run was the best
    with tempfile.TemporaryFile() as best:
        since_best = 0
        for epoch in range(cfg.max_epochs):
            feats = features(epoch) if callable(features) else features
            n_feat = next(iter(feats.values())).shape[0] if isinstance(feats, dict) else feats.shape[0]
            if n_feat != n:
                raise ValueError(f"{n_feat} feature rows vs {n} target rows")
            order = shuffle_rng.permutation(n)
            train_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                # a step's caches stay bound until the next step's forward replaces
                # them: freed at the end of each step instead, glibc trimmed the heap
                # and faulted it back in (desk-train on a 2-CPU VM: 3x the page
                # faults, train-track about 15% slower)
                out, caches, _ = nn.net_forward(net, params, _take(feats, idx),
                                                mode="train", seed=_batch_seed(cfg.seed, epoch, start))
                loss, dpred = nn.cosine_loss(out, targets[idx])
                if not math.isfinite(loss):
                    raise ValueError(f"training diverged: non-finite loss at epoch {epoch}, "
                                     f"batch offset {start}, learning rate {cfg.lr:g}")
                # the gradients die with this call, before the next step's backward
                nn.adam_step(params, nn.net_backward(net, params, caches, dpred), state)
                train_loss += loss * len(idx)
            # not held through validation; a provider's next epoch is built without this one's
            out = caches = dpred = feats = None
            train_loss /= n
            val_loss = eval_loss(net, params, val_features, val_targets)
            if not math.isfinite(val_loss):
                raise ValueError(f"training diverged: non-finite validation loss at epoch {epoch}, "
                                 f"learning rate {cfg.lr:g}")
            log.epochs.append((epoch, train_loss, val_loss))
            if val_loss < log.best_val:
                log.best_val = val_loss
                log.best_epoch = epoch
                if epoch < cfg.max_epochs - 1:
                    _save_params(params, best)
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break
        if log.best_epoch != epoch:
            state = None  # the moments go before the best epoch is read back
            _load_params(params, best)
    return params, log


def _batch_seed(seed: int, epoch: int, offset: int) -> int:
    return (seed * 1_000_003 + epoch * 7919 + offset) % 2**31


def eval_loss(net: NetworkSpec, params, features, targets: np.ndarray) -> float:
    out, _, _ = nn.net_forward(net, params, features, mode="eval")
    return nn.cosine_loss(out, targets)[0]


def extract_embeddings(net: NetworkSpec, params, features,
                       batch_size: int = EVAL_BATCH) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode activations at the network's embedding tap, and its outputs.

    One forward per batch yields both: rows are flattened embeddings and
    unit-norm predicted factors. ``features`` holds at least one row.
    """
    tap = f"trunk/{net.embed_tap % len(net.trunk)}"
    embeddings, outputs = [], []
    for idx in _batches(features, batch_size):
        out, _, acts = nn.net_forward(net, params, _take(features, idx), mode="eval")
        a = acts[tap]
        embeddings.append(a.reshape(a.shape[0], -1))
        outputs.append(out)
    return np.concatenate(embeddings), np.concatenate(outputs)


def predict_factors(net: NetworkSpec, params, features,
                    batch_size: int = EVAL_BATCH) -> np.ndarray:
    """Eval-mode full forward; rows are unit-norm predicted factors."""
    return extract_embeddings(net, params, features, batch_size)[1]


def _batches(features, batch_size: int):
    n = next(iter(features.values())).shape[0] if isinstance(features, dict) else features.shape[0]
    for start in range(0, n, batch_size):
        yield np.arange(start, min(start + batch_size, n))
