"""In-memory spans around coldrec's public functions, and the layer metrics
derived from them.

`install` patches each traced function at the name its caller looks it up
under (``pipeline.load_triples``, not ``data.load_triples``), so the program
itself is unchanged. Spans nest by a call stack: one process, one thread.
Nothing here imports numpy; `install` imports coldrec when called.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

STAGES = (
    "split", "factorize-songs", "factorize-artists", "enrich", "vectorize",
    "train-artist", "train-track", "extract", "train-fusion", "evaluate", "report",
)
LAYER_KINDS = ("dense", "conv1d_time", "maxpool_time", "relu", "dropout",
               "batchnorm", "l2norm", "flatten", "concat")
NETS = ("artist", "track", "fusion-lin", "fusion-h1", "sememb")
# Adam reads param, grad, m and v and writes param, m and v: 7 float64 per element
ADAM_BYTES_PER_UPDATE = 7 * 8
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
MIB = 1024.0  # ru_maxrss is in KiB on Linux


class Span(NamedTuple):
    id: int
    parent: int  # -1 at the root
    run: str
    name: str
    start: float
    end: float


class Tracer:
    """Records spans in memory; `counters` holds exact counts taken at the same calls."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[tuple[int, str]] = []  # (span id, name), innermost last
        self._patched: list[tuple[object, str, object]] = []

    def _begin(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1][0] if self._open else -1
        self._open.append((sid, name))
        return sid, parent, perf_counter()

    def _end(self, sid: int, parent: int, name: str, start: float) -> None:
        end = perf_counter()
        self._open.pop()
        self.spans[sid] = Span(sid, parent, self.run_id, name, start, end)

    @contextmanager
    def span(self, name: str):
        sid, parent, start = self._begin(name)
        try:
            yield
        finally:
            self._end(sid, parent, name, start)

    def wrap(self, owner, attr: str, name, on_exit=None, skip_inside: str = "") -> None:
        """Replace ``owner.attr`` with a traced call.

        ``name`` is a span name or a function of the call's (args, kwargs).
        ``on_exit(args, kwargs, result)`` updates counters after a call.
        A call made while the innermost open span is named ``skip_inside``
        passes straight through, so a wrapped function that calls another
        of its group (``save_params`` -> ``save_matrix``) is counted once.
        """
        fn = getattr(owner, attr)
        namer = name if callable(name) else (lambda args, kwargs: name)

        def traced(*args, **kwargs):
            if skip_inside and self._open and self._open[-1][1] == skip_inside:
                return fn(*args, **kwargs)
            label = namer(args, kwargs)
            sid, parent, start = self._begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(sid, parent, label, start)
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def finished(self) -> list[Span]:
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        return list(self.spans)


# ---------------------------------------------------------------------------
# Instrumentation of coldrec

def net_label(net) -> str:
    """Which of the zoo's five mapping nets a NetworkSpec is, from its layers."""
    if net.branches:
        artist_branch = net.branches["artist"]
        return "fusion-h1" if any(s.kind == "dense" for s in artist_branch) else "fusion-lin"
    kinds = [s.kind for s in net.trunk]
    if "conv1d_time" in kinds:
        return "track"
    return "artist" if kinds.count("dense") > 1 else "sememb"


def _forward_mode(args, kwargs) -> str:
    return args[3] if len(args) > 3 else kwargs.get("mode", "train")


def install(tracer: Tracer) -> None:
    """Wrap every traced coldrec function; undo with ``tracer.uninstall()``."""
    from coldrec import audio, evaluate, matrixio, nn, pipeline, textfeat, wmf, zoo

    counters = tracer.counters
    w = tracer.wrap

    def count_params(args, kwargs, result):
        grads = args[1]
        counters["nn.adam_step.param_updates"] += sum(
            g.size for tensors in grads.values() for g in tensors.values())

    def record_training(args, kwargs, result):
        net = net_label(args[0])
        log = result[1]
        counters[f"zoo.train_mapping.{net}.epochs"] += len(log.epochs)
        counters[f"zoo.train_mapping.{net}.best_epoch"] = log.best_epoch

    def file_bytes(metric):
        def on_exit(args, kwargs, result):
            counters[metric] += os.path.getsize(args[0] if args else kwargs["path"])
        return on_exit

    w(pipeline, "load_triples", "data.load_triples")
    w(pipeline, "split_by_artist", "data.split_by_artist")
    w(pipeline, "aggregate_to_artist", "data.aggregate_to_artist")
    w(pipeline, "factorize_wmf", "wmf.factorize_wmf")
    w(evaluate, "factorize_wmf", "wmf.factorize_wmf")
    w(wmf, "solve_row", "wmf.solve_row")
    w(wmf, "als_objective", "wmf.als_objective")
    w(textfeat, "enrich_document", "textfeat.enrich_document")
    w(textfeat, "tfidf_matrix", "textfeat.tfidf_matrix")
    w(audio, "load_spectrogram", "audio.load_spectrogram")
    w(audio, "sample_patch", "audio.sample_patch")
    w(nn, "layer_forward", lambda a, k: f"nn.layer_forward.{a[0].kind}")
    w(nn, "layer_backward", lambda a, k: f"nn.layer_backward.{a[0].kind}")
    w(nn, "net_forward", lambda a, k: f"nn.net_forward.{_forward_mode(a, k)}")
    w(nn, "net_backward", "nn.net_backward")
    w(nn, "cosine_loss", "nn.cosine_loss")
    w(nn, "adam_step", "nn.adam_step", on_exit=count_params)
    w(zoo, "train_mapping", lambda a, k: f"zoo.train_mapping.{net_label(a[0])}",
      on_exit=record_training)
    w(zoo, "extract_embeddings", "zoo.extract_embeddings")
    w(zoo, "predict_factors", "zoo.predict_factors")
    w(evaluate, "map_at_k", "evaluate.map_at_k")
    w(evaluate, "make_baseline_factors", "evaluate.make_baseline_factors")
    for fn in ("save_matrix", "save_ids", "save_params"):
        w(matrixio, fn, "matrixio.save", on_exit=file_bytes("matrixio.save.bytes"),
          skip_inside="matrixio.save")
    for fn in ("load_matrix", "load_ids", "load_params"):
        w(matrixio, fn, "matrixio.load", on_exit=file_bytes("matrixio.load.bytes"),
          skip_inside="matrixio.load")


# ---------------------------------------------------------------------------
# Span arithmetic

def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def children_of(spans) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            kids[s.parent].append(s)
    return kids


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    kids = children_of(spans)
    return {s.id: (s.end - s.start) - covered_length(
                s.start, s.end, [(c.start, c.end) for c in kids.get(s.id, ())])
            for s in spans}


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least 10 of n samples beyond it.

    Below 20 samples no percentile qualifies and the median stands in.
    """
    for p in TAIL_LADDER:
        if round(n * (100.0 - p) / 100.0, 6) >= TAIL_MIN_BEYOND:  # 100 - 99.9 is inexact
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile, as numpy.percentile's default."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def step_times(spans, train_span: Span, kids=None) -> list[float]:
    """Per-step times inside one train_mapping span.

    A step runs from the start of a train-mode forward to the end of the
    Adam update that follows it, so it covers forward, loss, backward and Adam.
    """
    kids = children_of(spans) if kids is None else kids
    steps, begun = [], None
    for c in kids.get(train_span.id, ()):
        if c.name == "nn.net_forward.train":
            begun = c.start
        elif c.name == "nn.adam_step" and begun is not None:
            steps.append(c.end - begun)
            begun = None
    return steps


# ---------------------------------------------------------------------------
# Layer metrics

def layer_metrics(spans, counters, stage_rss_kb: dict[str, int], cpu_s: float) -> dict:
    """Per-layer metrics of a traced stages process, as {name: (value, unit)}."""
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        secs[s.name] += s.end - s.start
    kids = children_of(spans)
    m: dict[str, tuple[float, str]] = {}

    for stage in STAGES:
        m[f"pipeline.{stage}.s"] = (secs[f"pipeline.{stage}"], "s")
        m[f"pipeline.{stage}.rss_hwm_mb"] = (stage_rss_kb.get(stage, 0) / MIB, "MiB")
    m["pipeline.cpu_s"] = (cpu_s, "s")
    m["pipeline.self_s"] = (sum(stage_self_times(spans).values()), "s")

    for name in ("data.load_triples", "wmf.factorize_wmf", "wmf.solve_row",
                 "wmf.als_objective", "audio.load_spectrogram", "audio.sample_patch",
                 "nn.adam_step", "evaluate.map_at_k", "matrixio.save", "matrixio.load"):
        m[f"{name}.calls"] = (calls[name], "count")
    for name in ("data.load_triples", "data.split_by_artist", "data.aggregate_to_artist",
                 "wmf.factorize_wmf", "wmf.solve_row", "wmf.als_objective",
                 "textfeat.enrich_document", "textfeat.tfidf_matrix",
                 "audio.load_spectrogram", "audio.sample_patch",
                 "nn.net_forward.train", "nn.net_forward.eval", "nn.net_backward",
                 "nn.cosine_loss", "nn.adam_step",
                 "zoo.extract_embeddings", "zoo.predict_factors",
                 "evaluate.map_at_k", "evaluate.make_baseline_factors",
                 "matrixio.save", "matrixio.load"):
        m[f"{name}.s"] = (secs[name], "s")
    for kind in LAYER_KINDS:
        for way in ("forward", "backward"):
            m[f"nn.layer_{way}.{kind}.s"] = (secs[f"nn.layer_{way}.{kind}"], "s")
    updates = counters.get("nn.adam_step.param_updates", 0)
    m["nn.adam_step.param_updates"] = (updates, "count")
    m["nn.adam_step.bytes_computed"] = (updates * ADAM_BYTES_PER_UPDATE, "B")
    m["matrixio.save.bytes"] = (counters.get("matrixio.save.bytes", 0), "B")
    m["matrixio.load.bytes"] = (counters.get("matrixio.load.bytes", 0), "B")

    for net in NETS:
        name = f"zoo.train_mapping.{net}"
        epochs = counters.get(f"{name}.epochs", 0)
        best = counters.get(f"{name}.best_epoch", -1)
        steps = [t for s in spans if s.name == name for t in step_times(spans, s, kids)]
        m[f"{name}.s"] = (secs[name], "s")
        m[f"{name}.epochs"] = (epochs, "count")
        m[f"{name}.useful_epoch_ratio"] = ((best + 1) / epochs if epochs else 0.0, "ratio")
        m[f"{name}.steps"] = (len(steps), "count")
        m[f"{name}.step_p50_ms"] = (1e3 * percentile(steps, 50.0), "ms")
        m[f"{name}.step_tail_ms"] = (1e3 * percentile(steps, tail_percentile(len(steps))), "ms")
    return m


def stage_self_times(spans) -> dict[str, float]:
    """Stage name -> time inside the stage that no traced call covers."""
    selfs = self_times(spans)
    return {s.name.removeprefix("pipeline."): selfs[s.id]
            for s in spans if s.name.startswith("pipeline.")}


def synth_metrics(spans) -> dict:
    """Set-up layer metrics of a traced setup process."""
    return {f"{name}.s": (sum(s.end - s.start for s in spans if s.name == name), "s")
            for name in ("synth.generate", "synth.write_dataset")}
