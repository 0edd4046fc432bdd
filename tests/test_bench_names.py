"""The benchmark traces coldrec functions by name, and keys its metrics by
stage and layer kind; the names must all still exist in coldrec. Its desk
config must also stay the one the experiment script and the acceptance suite run."""

import importlib
import importlib.util
import sys
from pathlib import Path
from unittest import mock

from test_pipeline import staged_run  # noqa: F401  (a fixture: one tiny pipeline run)

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("audio", "evaluate", "matrixio", "nn", "pipeline", "textfeat", "wmf", "zoo")


def load_file(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_file(ROOT / "bench" / "tracing.py", "bench_tracing")


def test_desk_config_is_the_same_in_script_acceptance_suite_and_bench(tmp_path):
    """The bench's desk config is the one scripts/run_synthetic_experiment.py
    and the acceptance suite run: the three copies agree on every value but
    paths and seed. (`bench/workloads.REFERENCE_MAP` pins this config's MAP
    table at seed 3 for `bench/run.py --full-epochs`; it is not checked here.)"""
    from coldrec.config import parse_kv_file, write_kv_file

    from test_acceptance import _write_pipeline_config

    workloads = load_file(ROOT / "bench" / "workloads.py", "bench_workloads")
    script = load_file(ROOT / "scripts" / "run_synthetic_experiment.py", "desk_script")
    write_kv_file(tmp_path / "bench.cfg", workloads.DESK_CONFIG)
    (tmp_path / "script").mkdir()
    copies = {
        "bench": tmp_path / "bench.cfg",
        "script": script.build_config(str(tmp_path / "script"), seed=3),
        "acceptance": _write_pipeline_config(tmp_path / "acceptance.cfg", "data", "out"),
    }
    values = {name: {k: v for k, v in parse_kv_file(path).items()
                     if not k.startswith("paths.") and k != "seed"}
              for name, path in copies.items()}
    assert values["script"] == values["bench"] == values["acceptance"]
    assert len(values["bench"]) == len(workloads.DESK_CONFIG) - 7  # the seven paths


def test_script_config_resolves_inside_a_relative_run_directory(tmp_path, monkeypatch):
    """The experiment script's config, written into a run directory given
    relative to the working directory (its default `--out runs/demo`), names
    the dataset and the output directory inside that run directory."""
    from coldrec.config import load_pipeline_config

    script = load_file(ROOT / "scripts" / "run_synthetic_experiment.py", "desk_script")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs" / "demo").mkdir(parents=True)
    cfg = load_pipeline_config(script.build_config("runs/demo", seed=3))
    run_dir = tmp_path / "runs" / "demo"
    assert cfg.triples == str(run_dir / "data" / "triples.tsv")
    assert cfg.out_dir == str(run_dir / "out")


# pipeline config keys that neither the experiment script nor a bench workload
# writes, each with the reason it stays a key
UNWRITTEN_KEYS = {
    **dict.fromkeys(("split.train", "split.val", "split.test"),
                    "whether the val part stays is ROADMAP item 6's decision"),
    **dict.fromkeys(("train.artist.lr", "train.track.lr"),
                    "one TrainConfig serves all three nets, and the bench sets train.fusion.lr"),
}


def test_every_config_key_is_written_by_the_script_or_a_workload(tmp_path):
    """A setting that no program writes takes one value in every run, so it
    is a constant in the code (`wmf.ALPHA`, `zoo.BATCH_SIZE`, ...), not a
    config key. The keys are those `load_pipeline_config` asks for; the
    exceptions are `UNWRITTEN_KEYS`."""
    from coldrec import config

    workloads = load_file(ROOT / "bench" / "workloads.py", "bench_workloads")
    script = load_file(ROOT / "scripts" / "run_synthetic_experiment.py", "desk_script")
    script_cfg = script.build_config(str(tmp_path), seed=3)
    asked = []
    real_get = config._Reader.get

    def recording_get(self, key, *args):
        asked.append(key)
        return real_get(self, key, *args)

    with mock.patch.object(config._Reader, "get", recording_get):
        config.load_pipeline_config(script_cfg)
    written = set(config.parse_kv_file(script_cfg)).union(
        *(w.config for w in workloads.WORKLOADS.values()))
    assert set(asked) - written == set(UNWRITTEN_KEYS)


def test_bench_stage_and_layer_names_match_coldrec():
    from coldrec import nn, pipeline

    tracing = load_tracing()
    assert tracing.STAGES == pipeline.STAGES
    assert tracing.LAYER_KINDS == nn.KINDS


def test_bench_tracer_patches_existing_names_and_restores_them():
    tracing = load_tracing()
    modules = [importlib.import_module(f"coldrec.{name}") for name in MODULES]
    before = {m: dict(vars(m)) for m in modules}
    tracer = tracing.Tracer("t")
    patched = []
    try:
        tracing.install(tracer)  # AttributeError if a traced name is gone
        patched = list(tracer._patched)
        for owner, attr, original in patched:
            assert before[owner][attr] is original, f"{owner.__name__}.{attr}"
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    for m in modules:
        assert dict(vars(m)) == before[m], m.__name__


def test_bench_tracer_counts_adam_updates_and_pruned_backward(monkeypatch):
    """A 2-step training run under the tracer: the Adam counter reads every
    updated element, and backward spans stop at the lowest trained layer."""
    import numpy as np

    from coldrec import zoo
    from coldrec.nn import LayerSpec, NetworkSpec

    tracing = load_tracing()
    net = NetworkSpec(trunk=[LayerSpec("dropout", rate=0.5), LayerSpec("relu"),
                             LayerSpec("dense", units=3), LayerSpec("l2norm")],
                      input_shapes={"": (5,)})
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(8, 5)), rng.normal(size=(8, 3))
    monkeypatch.setattr(zoo, "BATCH_SIZE", 4)
    cfg = zoo.TrainConfig(max_epochs=1, patience=1)
    tracer = tracing.Tracer("t")
    try:
        tracing.install(tracer)
        zoo.train_mapping(net, x, y, x[:2], y[:2], cfg, 0)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.finished()]
    steps = names.count("nn.adam_step")
    assert steps == 2
    assert tracer.counters["nn.adam_step.param_updates"] == steps * (5 * 3 + 3)
    backward = sorted(n for n in names if n.startswith("nn.layer_backward."))
    assert backward == ["nn.layer_backward.dense"] * steps + ["nn.layer_backward.l2norm"] * steps


def test_bench_tracer_sees_row_table_reads_and_writes(tmp_path):
    """The pipeline's row-table writer and reader call matrixio through the
    module, so the bench's matrixio.* spans and counters see them."""
    import numpy as np

    from coldrec import pipeline

    tracing = load_tracing()
    cfg = pipeline.PipelineConfig(*[""] * 6, out_dir=str(tmp_path))
    rows = np.arange(6.0).reshape(3, 2)
    tracer = tracing.Tracer("t")
    try:
        tracing.install(tracer)
        pipeline._save_rows(cfg, "table", rows, ["a", "b", "c"])
        loaded, ids, index = pipeline._load_rows(cfg, "table")
    finally:
        tracer.uninstall()
    assert np.array_equal(loaded, rows) and ids == ["a", "b", "c"] and index["c"] == 2
    names = [s.name for s in tracer.finished()]
    assert names.count("matrixio.save") == 2 and names.count("matrixio.load") == 2
    assert tracer.counters["matrixio.save.bytes"] == tracer.counters["matrixio.load.bytes"] > 0


def test_traced_evaluate_nests_the_upper_bound_wmf_in_make_baseline_factors(staged_run):
    """The bench's `evaluate.make_baseline_factors.s` times the upper bound's
    test-set WMF: in a traced `evaluate` stage the one `wmf.factorize_wmf`
    span is a child of the one `evaluate.make_baseline_factors` span."""
    from coldrec import pipeline

    tracing = load_tracing()
    tracer = tracing.Tracer("t")
    try:
        tracing.install(tracer)
        pipeline.run_stage(staged_run.cfg, "evaluate")
    finally:
        tracer.uninstall()
    spans = tracer.finished()
    baseline = [s for s in spans if s.name == "evaluate.make_baseline_factors"]
    wmf = [s for s in spans if s.name == "wmf.factorize_wmf"]
    assert len(baseline) == len(wmf) == 1
    assert wmf[0].parent == baseline[0].id
