"""Tests of the benchmark harness itself: span arithmetic, the tail-percentile
rule, the report check, and a traced smoke run of each workload at a tiny size.

    python3 -m pytest -q bench/tests
"""

import json
import os
import random
from dataclasses import replace

import numpy as np
import pytest

import child
import run
import tracing
import workloads
from tracing import Span

BENCHMARK_JSON = os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")


def _spans(rows):
    return [Span(i, parent, "r", name, start, end)
            for i, (parent, name, start, end) in enumerate(rows)]


def test_self_time_on_hand_built_span_tree():
    spans = _spans([
        (-1, "pipeline.split", 0.0, 10.0),
        (0, "data.load_triples", 1.0, 4.0),
        (1, "inner", 2.0, 3.0),
        (0, "b", 5.0, 9.0),
        (0, "c", 8.0, 11.0),  # overlaps b and runs past its parent's end
        (-1, "pipeline.report", 20.0, 21.5),
    ])
    selfs = tracing.self_times(spans)
    # root: 10 minus the union [1,4] + [5,10] = 10 - 8
    assert selfs == pytest.approx({0: 2.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 3.0, 5: 1.5})
    assert tracing.stage_self_times(spans) == pytest.approx({"split": 2.0, "report": 1.5})


def test_covered_length_merges_and_clips():
    assert tracing.covered_length(0, 10, []) == 0.0
    assert tracing.covered_length(0, 10, [(2, 4), (3, 6), (8, 12), (-5, -1)]) == 6.0


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
    (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, 50.0), (0, 50.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = tracing.tail_percentile(n)
    assert p == expected
    if n >= 20:
        beyond = lambda q: round(n * (100 - q) / 100, 6)  # noqa: E731
        assert beyond(p) >= tracing.TAIL_MIN_BEYOND
        assert all(beyond(q) < tracing.TAIL_MIN_BEYOND for q in tracing.TAIL_LADDER if q > p)


def test_percentile_matches_numpy():
    rng = random.Random(5)
    values = [rng.expovariate(1.0) for _ in range(137)]
    for p in (0, 37.5, 50, 90, 99, 100):
        assert tracing.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_step_times_pair_train_forward_with_following_adam():
    spans = _spans([
        (-1, "zoo.train_mapping.track", 0.0, 100.0),
        (0, "nn.net_forward.train", 1.0, 2.0),
        (0, "nn.cosine_loss", 2.0, 2.5),
        (0, "nn.net_backward", 2.5, 4.0),
        (0, "nn.adam_step", 4.0, 5.0),
        (0, "nn.net_forward.eval", 6.0, 7.0),  # validation is not a step
        (0, "nn.net_forward.train", 10.0, 11.0),
        (0, "nn.adam_step", 12.0, 13.5),
    ])
    assert tracing.step_times(spans, spans[0]) == [4.0, 3.5]


def _report(**maps):
    base = {"audio": 0.09, "sem-emb": 0.09, "mm-lf-lin": 0.11, "mm-lf-h1": 0.12,
            "random": 0.06, "upper-bound": 0.73}
    base.update(maps)
    return {a: {"map": m, "users": 10} for a, m in base.items() if m is not None}


def test_check_report():
    assert run.check_report(_report()) == []
    assert run.check_report(_report(audio=0.8))       # beats the upper bound
    assert run.check_report(_report(**{"sem-emb": 0.05}))  # below random
    assert run.check_report(_report(random=float("nan")))
    assert run.check_report(_report(audio=None))      # approach missing
    assert run.check_report(_report(**{"upper-bound": 1.5}))


def test_digest_tree_covers_names_and_bytes(tmp_path):
    for d in ("a", "b"):
        (tmp_path / d / "sub").mkdir(parents=True)
        (tmp_path / d / "x.tsv").write_text("1\t2\n")
        (tmp_path / d / "sub" / "y.bin").write_bytes(b"\0\1")
    assert run.digest_tree(tmp_path / "a") == run.digest_tree(tmp_path / "b")
    (tmp_path / "b" / "sub" / "y.bin").write_bytes(b"\0\2")
    assert run.digest_tree(tmp_path / "a") != run.digest_tree(tmp_path / "b")


def test_metric_names_match_pipeline_and_nn():
    from coldrec import nn, pipeline
    assert tracing.STAGES == pipeline.STAGES
    assert tracing.LAYER_KINDS == nn.KINDS
    assert run.APPROACHES == pipeline.APPROACHES


# ---------------------------------------------------------------------------
# Smoke runs at the size of the acceptance suite's two-run identity test

TINY_SYNTH = {"n_users": 40, "n_artists": 12, "songs_per_artist": 4, "latent_dim": 8,
              "bins": 8, "frames": 70, "n_text_terms": 30, "doc_tokens": 60,
              "n_templates": 4, "density": 0.08}
TINY_CONFIG = {"scale": 1 / 64, "eval.k": 50, "audio.patch_frames": 64,
               "wmf.songs.k": 8, "wmf.songs.iterations": 4,
               "wmf.artists.k": 8, "wmf.artists.iterations": 4}


def _declared(kind):
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_traced_run_is_transparent(tmp_path, name):
    w = workloads.WORKLOADS[name]
    w = replace(w, synth={**w.synth, **TINY_SYNTH}, config={**w.config, **TINY_CONFIG})
    results = {}
    for traced in (False, True):
        run_dir = tmp_path / ("traced" if traced else "plain")
        run_dir.mkdir()
        setup_tracer = tracing.Tracer("setup") if traced else None
        stage_tracer = tracing.Tracer("stages") if traced else None
        child.setup(str(run_dir), w, seed=11, tracer=setup_tracer)
        stats = child.run_stages(str(run_dir), tracer=stage_tracer)
        results[traced] = (run.digest_tree(str(run_dir / "out")), stats,
                           setup_tracer, stage_tracer)

    plain_digest, plain_stats, _, _ = results[False]
    digest, stats, setup_tracer, stage_tracer = results[True]
    assert digest == plain_digest
    assert set(stats["stages"]) == set(tracing.STAGES)
    assert stats["wall_s"] > 0 and stats["maxrss_kb"] > 0
    assert stats["probe_s"] and min(stats["probe_s"]) > 0  # sampled while the stages ran

    from coldrec import data, pipeline
    assert pipeline.load_triples is data.load_triples  # patches were undone

    with open(tmp_path / "plain" / "out" / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    maps = {a: report[a]["map"] for a in run.APPROACHES}
    traced = {"setup": {"layers": tracing.synth_metrics(setup_tracer.finished())},
              "stages": {"layers": tracing.layer_metrics(
                  stage_tracer.finished(), stage_tracer.counters,
                  {s: r["rss_hwm_kb"] for s, r in stats["stages"].items()}, stats["cpu_s"])},
              "map": maps, "wall_s": stats["wall_s"], "probe_ms": 1.0}
    layers = run.layer_table(traced, plain_stats["wall_s"])
    assert {k: u for k, (_, u) in layers.items()} == _declared("per_layer")
    epochs = int(w.config["train.artist.epochs"])
    for net in tracing.NETS:
        assert layers[f"zoo.train_mapping.{net}.epochs"][0] == epochs
        assert layers[f"zoo.train_mapping.{net}.steps"][0] > 0
    assert layers["wmf.factorize_wmf.calls"][0] == 3  # songs, artists, upper bound
    assert layers["nn.adam_step.param_updates"][0] > 0
    assert layers["matrixio.save.calls"][0] > 0 and layers["matrixio.save.bytes"][0] > 0
    assert all(layers[f"nn.layer_forward.{k}.s"][0] > 0 for k in tracing.LAYER_KINDS)

    fake_pass = {"wall_norm": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0, "map": maps}
    e2e = run.end_to_end_metrics([fake_pass])
    assert {k: u for k, (_, u) in e2e.items()} == _declared("end_to_end")
