"""The benchmark traces coldrec functions by name, and keys its metrics by
stage and layer kind; the names must all still exist in coldrec."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = ("audio", "evaluate", "matrixio", "nn", "pipeline", "textfeat", "wmf", "zoo")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


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
