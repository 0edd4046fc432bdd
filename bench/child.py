"""One half of a benchmark pass, run in a fresh process by run.py.

    python3 bench/child.py setup RUN_DIR WORKLOAD SEED [--full-epochs] [--trace SPANS]
    python3 bench/child.py stages RUN_DIR [--trace SPANS]

`setup` generates the dataset and writes the config into RUN_DIR. `stages`
runs every pipeline stage on them. Each writes its figures to
RUN_DIR/<command>.json; with --trace it also records spans and writes them
to SPANS. BLAS and OpenMP are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

PROBE_MATRIX = 120
PROBE_INTERVAL_S = 0.2


def monotonic() -> float:
    """CLOCK_MONOTONIC is system-wide, so run.py can compare it across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def _span(tracer):
    return tracer.span if tracer is not None else (lambda name: nullcontext())


def setup(run_dir: str, workload: workloads.Workload, seed: int, tracer=None) -> None:
    span = _span(tracer)
    with span("synth.generate"):
        data = workloads.generate(workload, seed)
    with span("synth.write_dataset"):
        workloads.write_inputs(workload, seed, data, run_dir)


def calibration_probe() -> float:
    """Seconds taken by a fixed mix of small BLAS, Python-loop and dict work."""
    import numpy as np

    a = np.linspace(0.0, 1.0, PROBE_MATRIX * PROBE_MATRIX).reshape(PROBE_MATRIX, PROBE_MATRIX)
    t = time.perf_counter()
    for _ in range(10):
        a @ a
    total = 0
    for i in range(20_000):
        total += i
    table = {}
    for i in range(2_500):
        table[i] = i
    return time.perf_counter() - t


class SpeedSampler:
    """Times the calibration probe every PROBE_INTERVAL_S while the stages run.

    The probe runs from a SIGALRM handler in the stages' own thread, so it
    sees the CPU speed the stages see, moment by moment. Each probe takes
    about 1% of an interval.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame):
        self.samples.append(calibration_probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_stages(run_dir: str, tracer=None) -> dict:
    """Run every stage; returns stage and CPU time, peak RSS and per-stage figures.

    ``wall_s`` leaves out the time spent in calibration probes.
    """
    from coldrec.config import load_pipeline_config
    from coldrec.pipeline import STAGES, run_stage

    cfg = load_pipeline_config(os.path.join(run_dir, workloads.CONFIG_NAME))
    if tracer is not None:
        tracing.install(tracer)
    span = _span(tracer)
    stages = {}
    first_stage_at = monotonic()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with SpeedSampler() as sampler:
        for stage in STAGES:
            ts = time.perf_counter()
            with span(f"pipeline.{stage}"):
                run_stage(cfg, stage)
            stages[stage] = {"s": time.perf_counter() - ts,
                             "rss_hwm_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    probing = sum(sampler.samples)
    wall = time.perf_counter() - t0 - probing
    cpu = time.process_time() - cpu0 - probing
    if tracer is not None:
        tracer.uninstall()
    return {"first_stage_at": first_stage_at, "wall_s": wall, "cpu_s": cpu,
            "probe_s": sampler.samples,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "stages": stages}


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": list(tracing.Span._fields), "spans": spans}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    s = sub.add_parser("setup")
    s.add_argument("run_dir")
    s.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    s.add_argument("seed", type=int)
    s.add_argument("--full-epochs", action="store_true")
    s.add_argument("--trace", default=None)
    r = sub.add_parser("stages")
    r.add_argument("run_dir")
    r.add_argument("--trace", default=None)
    args = ap.parse_args(argv)

    # the run id is the run's directory and the pass's, e.g. desk-train-seed3-412/traced
    run_id = os.path.relpath(args.run_dir, os.path.dirname(os.path.dirname(
        os.path.normpath(args.run_dir))))
    tracer = tracing.Tracer(run_id) if args.trace else None
    if args.command == "setup":
        w = workloads.WORKLOADS[args.workload]
        if args.full_epochs:
            w = workloads.full_epochs(w)
        setup(args.run_dir, w, args.seed, tracer)
        result = {}
    else:
        result = run_stages(args.run_dir, tracer)
        result["env"] = environment()
    if tracer is not None:
        spans = tracer.finished()
        write_spans(args.trace, spans)
        if args.command == "setup":
            result["layers"] = tracing.synth_metrics(spans)
        else:
            result["layers"] = tracing.layer_metrics(
                spans, tracer.counters,
                {st: rec["rss_hwm_kb"] for st, rec in result["stages"].items()},
                result["cpu_s"])
            result["stage_self_s"] = tracing.stage_self_times(spans)
    with open(os.path.join(args.run_dir, f"{args.command}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
