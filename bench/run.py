#!/usr/bin/env python3
"""Pipeline benchmark: time to a MAP table, set-up time, peak memory and MAP.

    python3 bench/run.py --workload desk-train --seed 3 --seconds 55 --trace 0

A pass generates the workload's dataset in one fresh process, runs all
eleven stages in another, checks the report and digests every artifact.
Passes repeat, one at a time, until --seconds have gone by, and the
figures are medians over the passes that succeeded. Stage time is reported
as ``wall_norm``: seconds divided by the mean time of a fixed calibration
probe run between stages, which cancels the machine's own speed swings.
With --trace 1 one more pass runs with spans around coldrec's public
functions, and the per-layer metrics come from it. The last line of stdout
is a JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(BENCH_DIR, "child.py")
TIME_LIMIT_S = 170.0  # for the whole run; --full-epochs lifts it
MIN_PASSES = 2        # so that every run compares two artifact digests

APPROACHES = ("audio", "sem-emb", "mm-lf-lin", "mm-lf-h1", "random", "upper-bound")
CONTENT = ("audio", "sem-emb", "mm-lf-lin", "mm-lf-h1")
MAP_UNIT = "MAP_at_500"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def check_report(report: dict) -> list[str]:
    """Problems with a report.json; empty when the ranking of approaches is sane."""
    problems = []
    maps = {}
    for a in APPROACHES:
        m = report.get(a, {}).get("map")
        if isinstance(m, (int, float)) and math.isfinite(m) and 0.0 <= m <= 1.0:
            maps[a] = m
        else:
            problems.append(f"{a}: MAP {m!r} is not a finite number in [0, 1]")
    if problems:
        return problems
    for a in CONTENT:
        if not maps["upper-bound"] > maps[a]:
            problems.append(f"upper-bound {maps['upper-bound']:.4f} <= {a} {maps[a]:.4f}")
        if not maps[a] > maps["random"]:
            problems.append(f"{a} {maps[a]:.4f} <= random {maps['random']:.4f}")
    return problems


def check_reference(maps: dict) -> list[str]:
    return [f"{a}: MAP {maps[a]:.4f} != reference {ref:.4f}"
            for a, ref in workloads.REFERENCE_MAP.items() if round(maps[a], 4) != ref]


def digest_tree(path: str) -> str:
    """SHA-256 over every file under ``path``: relative name, size and bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(f"{os.path.relpath(full, path)}\0{os.path.getsize(full)}\0".encode())
            with open(full, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the repository at ROOT, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _tail(text: str, lines: int = 15) -> str:
    return "\n".join(text.strip().splitlines()[-lines:])


def run_child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run child.py to completion; on timeout it is killed and waited for."""
    timeout = None if deadline == math.inf else deadline - monotonic()
    if timeout is not None and timeout <= 0:
        raise subprocess.TimeoutExpired(args, 0)
    return subprocess.run([sys.executable, CHILD, *args], capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(workload: str, seed: int, full: bool, run_dir: str, deadline: float,
             spans_prefix: str | None = None) -> dict:
    """One set-up process, then one stages process; returns the pass's figures and problems."""
    os.makedirs(run_dir)
    trace = (lambda part: ["--trace", f"{spans_prefix}-{part}.spans.json"]) \
        if spans_prefix else (lambda part: [])
    setup_args = ["setup", run_dir, workload, str(seed), *trace("setup")]
    if full:
        setup_args.append("--full-epochs")
    try:
        t0 = monotonic()
        proc = run_child(setup_args, deadline)
        if proc.returncode != 0:
            return {"ok": False, "problems": [f"set-up failed:\n{_tail(proc.stderr)}"]}
        proc = run_child(["stages", run_dir, *trace("stages")], deadline)
        if proc.returncode != 0:
            return {"ok": False, "problems": [f"a stage failed:\n{_tail(proc.stderr)}"]}
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": ["the run's time limit was reached"]}
    setup = _read_json(os.path.join(run_dir, "setup.json"))
    stages = _read_json(os.path.join(run_dir, "stages.json"))
    report = _read_json(os.path.join(run_dir, "out", "report.json"))
    problems = check_report(report)
    maps = {a: report.get(a, {}).get("map") for a in APPROACHES}
    if not problems and full and seed == workloads.REFERENCE_SEED and workload == "desk-train":
        problems = check_reference(maps)
    return {
        "ok": not problems,
        "problems": problems,
        # set-up process, then the stages process's own start-up and imports
        "setup_s": stages["first_stage_at"] - t0,
        "wall_s": stages["wall_s"],
        "wall_norm": stages["wall_s"] / statistics.fmean(stages["probe_s"]),
        "probe_ms": 1e3 * statistics.fmean(stages["probe_s"]),
        "cpu_s": stages["cpu_s"],
        "peak_rss_mb": stages["maxrss_kb"] / 1024.0,
        "digest": digest_tree(os.path.join(run_dir, "out")),
        "map": maps,
        "setup": setup,
        "stages": stages,
    }


def _describe(i, p: dict) -> str:
    if "wall_s" not in p:
        return f"pass {i}: FAILED {'; '.join(p['problems'])}"
    status = "ok" if p["ok"] else "FAILED " + "; ".join(p["problems"])
    return (f"pass {i}: setup {p['setup_s']:.3f} s  stages {p['wall_s']:.3f} s "
            f"(cpu {p['cpu_s']:.3f} s, probe {p['probe_ms']:.2f} ms, "
            f"{p['wall_norm']:.1f} probes)  peak {p['peak_rss_mb']:.1f} MiB  "
            f"digest {p['digest'][:12]}  {status}")


def mark_digest_mismatches(passes: list[dict], reference: str) -> None:
    for p in passes:
        if p["ok"] and p["digest"] != reference:
            p["ok"] = False
            p["problems"].append(f"artifact digest {p['digest'][:12]} differs from the "
                                 f"first pass's {reference[:12]}")


def end_to_end_metrics(ok: list[dict]) -> dict:
    metrics = {
        "wall_norm": (statistics.median(p["wall_norm"] for p in ok), "probe"),
        "setup_s": (statistics.median(p["setup_s"] for p in ok), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in ok), "MiB"),
    }
    maps = ok[0]["map"]
    metrics["map.upper-bound"] = (maps["upper-bound"], MAP_UNIT)
    metrics["map.content_mean"] = (statistics.fmean(maps[a] for a in CONTENT), MAP_UNIT)
    return metrics


def measure(args, run_root: str, spans_prefix: str) -> tuple[list[dict], dict | None]:
    """Untraced passes for about --seconds, then the traced pass if asked for.

    Returns the untraced passes and the traced one (None when not run).
    Digest mismatches against the first good pass are marked as failures.
    """
    start = monotonic()
    deadline = math.inf if args.full_epochs else start + TIME_LIMIT_S
    reserve = 1 if args.trace else 0  # room left for the traced pass
    passes: list[dict] = []
    while True:
        run_dir = os.path.join(run_root, f"pass{len(passes)}")
        passes.append(run_pass(args.workload, args.seed, args.full_epochs, run_dir, deadline))
        shutil.rmtree(run_dir, ignore_errors=True)
        print(_describe(len(passes) - 1, passes[-1]), flush=True)
        if "wall_s" not in passes[-1]:
            break  # a crash repeats: the program is deterministic for a seed
        elapsed = monotonic() - start
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES - reserve and \
                elapsed + per_pass * (0.5 + reserve) >= args.seconds:
            break
        if monotonic() + per_pass * (1.2 + reserve) > deadline:
            break
    ok = [p for p in passes if p["ok"]]
    if not ok:
        return passes, None
    mark_digest_mismatches(passes, ok[0]["digest"])
    if not args.trace:
        return passes, None
    traced = run_pass(args.workload, args.seed, args.full_epochs,
                      os.path.join(run_root, "traced"), deadline, spans_prefix)
    mark_digest_mismatches([traced], ok[0]["digest"])
    print(_describe("traced", traced), flush=True)
    return passes, traced


def layer_table(traced: dict, untraced_wall_s: float) -> dict:
    return {**traced["setup"]["layers"], **traced["stages"]["layers"],
            **{f"evaluate.map.{a}": (traced["map"][a], MAP_UNIT) for a in APPROACHES},
            "pipeline.probe_ms": (traced["probe_ms"], "ms"),
            "trace.overhead_s": (traced["wall_s"] - untraced_wall_s, "s")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=55.0,
                    help="measure for about this long (at least %d passes)" % MIN_PASSES)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full-epochs", action="store_true",
                    help="train with the acceptance config's epochs and patience; at "
                         "seed 3 on desk-train the MAP table must match the reference")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "coldrec", "pipeline.py")):
        print(f"coldrec sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}"
    run_root = os.path.join(WORK_DIR, "runs", f"{tag}-{os.getpid()}")
    results_dir = os.path.join(WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    try:
        passes, traced = measure(args, run_root, os.path.join(results_dir, tag))
    finally:
        shutil.rmtree(run_root, ignore_errors=True)

    ok = [p for p in passes if p["ok"]]
    all_passes = passes + ([traced] if traced else [])
    failed = sum(not p["ok"] for p in all_passes)
    metrics: dict[str, tuple[float, str]] = {}
    if ok and not args.trace:
        metrics = end_to_end_metrics(ok)
    elif ok and traced["ok"]:
        metrics = layer_table(traced, statistics.median(p["wall_s"] for p in ok))

    record = {
        "environment": {"commit": git_commit(), **(ok[0]["stages"]["env"] if ok else {})},
        "seed": args.seed,
        "workload": args.workload,
        "full_epochs": args.full_epochs,
        "workloads": {n: workloads.spec_record(w, args.seed)
                      for n, w in workloads.WORKLOADS.items()},
        "passes": [{k: v for k, v in p.items() if k not in ("setup", "stages")}
                   for p in all_passes],
        "metrics": metrics,
    }
    print("environment: " + json.dumps(record["environment"]))
    if ok:
        print("MAP@500: " + "  ".join(f"{a} {m:.4f}" for a, m in ok[0]["map"].items()))
        print(f"stage time: median {statistics.median(p['wall_s'] for p in ok):.3f} s, "
              f"probe {statistics.median(p['probe_ms'] for p in ok):.3f} ms")
    if traced and traced["ok"]:
        record["stage_self_s"] = traced["stages"]["stage_self_s"]
        print(f"\n{'stage':<18}{'s':>9}{'self s':>9}{'RSS MiB':>9}")
        for stage, rec in traced["stages"]["stages"].items():
            print(f"{stage:<18}{rec['s']:>9.3f}{record['stage_self_s'][stage]:>9.3f}"
                  f"{rec['rss_hwm_kb'] / 1024:>9.1f}")
    with open(os.path.join(results_dir, f"{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"\n{'metric':<44}{'value':>16}  unit")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44}{value:>16.6g}  {unit}")
    print(f"\nattempted {len(all_passes)}, failed {failed}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(all_passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
