#!/usr/bin/env python3
"""Benchmark of emoticnn: train, score and predict workloads.

Run from the root of an emoticnn checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One run sets its workload up (several times, for ``setup_s``), runs its
operations in a closed loop for ``--seconds`` seconds, checks the
program's outputs, and prints a report followed, on the last line, by
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` they are the per-layer ones, taken
from spans recorded around the package's functions (see spans.py).
``--workload all`` runs every workload in its own process, one after
another. The metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, so that a set-up of milliseconds is timed as steadily
# as one of seconds; setup_s is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
BLAS_THREADS = 1
# Timings are taken per window of consecutive operations (one command
# on `train` and `score`, a thousand requests on `predict`).
# items_per_s and latency_p50_ms are reported at their slow decile
# across windows, the figure the program held in nine windows of ten.
# On a shared 2-vCPU Xeon virtual machine, whose speed drifts by +-15%
# over tens of seconds to minutes, a run's total or median follows the
# share of time the host was fast: over ten 30 s runs per workload the
# quartile distance was 5-12% of the median at the slow decile, 11-21%
# for the total rate and 23-26% for p50 at the lower quartile.
SLOW_DECILE = 0.9
# latency_p99_ms is taken within windows of LATENCY_WINDOW operations (a
# run with fewer is one window) and reported at the lower quartile
# across windows. Stalls of the host raise the p99 of the windows they
# reach two- to five-fold, and the share of windows they reach differs
# from run to run: over ten runs of `predict` the p99 spread 14-40% at
# the slow decile, 32% at the median and 10-13% at the lower quartile.
# The windows they spare show the program's own tail.
CALM_QUARTILE = 0.25
LATENCY_WINDOW = 1000


def _pin_blas_threads() -> None:
    """One BLAS thread, set before numpy loads.

    With two OpenBLAS threads on a 2-vCPU Xeon virtual machine the second spins
    through every command, so a 12-epoch `train` took 12.2-14.6 s of
    wall time against 11.7-13.0 s with one thread, and wall time varied
    more.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _load_program() -> None:
    """Import emoticnn from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "emoticnn" / "__init__.py").is_file():
        raise SystemExit(f"error: no emoticnn package under {src}; run from an emoticnn checkout")
    sys.path.insert(0, str(src))
    import emoticnn

    if Path(emoticnn.__file__).resolve().parent != (src / "emoticnn").resolve():
        raise SystemExit(f"error: imported emoticnn from {emoticnn.__file__}, not from {src}")


def _read_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def _windows(ops, size: int) -> list[list[tuple]]:
    """Consecutive operations in windows of size; a remainder joins the
    last full window, or is the only window when there is none."""
    full = max(len(ops) // size, 1)
    windows = [ops[i * size:(i + 1) * size] for i in range(full)]
    windows[-1] = ops[(full - 1) * size:]
    return windows


def _timings(ops, size: int) -> dict[str, float]:
    """items_per_s and latency_p50_ms at their slow decile across windows
    of size operations; latency_p99_ms at its lower quartile across
    windows of LATENCY_WINDOW operations."""
    windows = _windows(ops, size)
    rates = [_rate(window) for window in windows]
    p50s = [_percentile([op[1] * 1e3 for op in window], 0.5) for window in windows]
    p99s = [_percentile([op[1] * 1e3 for op in window], 0.99)
            for window in _windows(ops, LATENCY_WINDOW)]
    return {
        "items_per_s": -_percentile([-rate for rate in rates], SLOW_DECILE),
        "latency_p50_ms": _percentile(p50s, SLOW_DECILE),
        "latency_p99_ms": _percentile(p99s, CALM_QUARTILE),
        "windows": len(windows),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "git_commit": _git_commit(),
    }


def _setup(workload, work: Path, tracer) -> tuple[list[float], list[str]]:
    """Set the workload up; once when traced, else repeatedly for setup_s."""
    times, problems, fingerprints = [], [], []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        started = time.perf_counter()
        with tracer.tracing("setup") if tracer else nullcontext():
            fingerprints.append(workload.setup(work / f"setup{len(times)}"))
        times.append(time.perf_counter() - started)
        if tracer:
            break
    if len(set(fingerprints)) != 1:
        problems.append("repeated set-ups built different models or inputs")
    return times, problems


def _loop(workload, seconds: float, tracer, failures: list[str]):
    """Run operations in blocks until seconds have passed; with a tracer,
    every other block is traced (the first one is not)."""
    ops = []  # (traced, latency_s, items)
    failed: set[int] = set()
    posts = 0
    index = 0
    block = 0
    min_blocks = 2 if tracer else 1
    started = time.perf_counter()
    while (block < min_blocks or index < workload.min_ops
           or time.perf_counter() - started < seconds):
        traced = tracer is not None and block % 2 == 1
        if traced:
            tracer.phase = "loop"
            tracer.install()
        try:
            for _ in range(workload.block):
                if traced:
                    tracer.op = index
                try:
                    latency, items, op_posts = workload.op(index)
                except Exception as exc:  # a failed operation is counted, not fatal
                    failed.add(index)
                    failures.append(f"{workload.name} op {index}: {exc!r}")
                else:
                    ops.append((traced, latency, items))
                    if traced:
                        posts += op_posts
                index += 1
        finally:
            if traced:
                tracer.uninstall()
        block += 1
    return ops, index, failed, posts


def _rate(ops) -> float:
    """Items per second of busy time, over the given operations."""
    return sum(op[2] for op in ops) / sum(op[1] for op in ops)


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    # Imported only now: both load numpy and emoticnn, which must follow
    # _pin_blas_threads and _load_program.
    import spans
    import workloads

    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](seed, work)
        tracer = spans.Tracer() if trace else None
        setup_times, problems = _setup(workload, work, tracer)
        ops, attempted, failed, loop_posts = _loop(workload, seconds, tracer, problems)
        try:
            with tracer.tracing("check") if tracer else nullcontext():
                quality, check_failed, check_problems = workload.finish()
            failed |= check_failed
            problems += check_problems
            properties = workload.properties()
        except Exception as exc:  # a broken program still gets a result line
            quality, properties = {}, {}
            problems.append(f"output checks raised {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_record(),
        "properties": properties,
        "attempted": attempted, "failed": len(failed),
        "fail_ratio": len(failed) / attempted,
        "latency_samples": len(ops),
    }
    values: dict[str, float] = {}
    if trace:
        declared = spec["per_layer"]
        values, sources = spans.layer_metrics(tracer.spans, {"loop": loop_posts})
        traced = [op for op in ops if op[0]]
        untraced = [op for op in ops if not op[0]]
        if traced and untraced:
            values["trace.overhead_items_per_s"] = _rate(traced) - _rate(untraced)
            sources["trace.overhead_items_per_s"] = "loop"
        report["layer_sources"] = sources
        tracer.write(WORK / "spans" / f"{name}-seed{seed}.csv")
    else:
        declared = spec["end_to_end"]
        if ops:
            values.update(_timings(ops, workload.window))
            report["windows"] = values.pop("windows")
        values.update({
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **quality,
        })
        report["setup_samples"] = setup_times

    missing = [m["name"] for m in declared if m["name"] not in values]
    problems += [f"metric {m} was not measured" for m in missing]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    report["metrics"] = metrics
    report["problems"] = problems
    correct = not problems and not failed
    _print_report(report, declared)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


def _print_report(report: dict, declared: list[dict]) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  seconds {report['seconds']}")
    print("machine " + json.dumps(report["machine"], ensure_ascii=False))
    print("properties " + json.dumps(report["properties"]))
    print(f"fail_ratio {report['fail_ratio']:.6g} ({report['failed']} failed "
          f"/ {report['attempted']} attempted)")
    print(f"latency samples {report['latency_samples']}"
          + (f" in {report['windows']} windows" if "windows" in report else ""))
    sources = report.get("layer_sources", {})
    for spec in declared:
        entry = report["metrics"].get(spec["name"])
        value = "missing" if entry is None else f"{entry['value']:.6g}"
        note = f"  [{sources[spec['name']]}]" if spec["name"] in sources else ""
        print(f"  {spec['name']:<34} {value:>14} {spec['unit']:<17} "
              f"{spec['better']} is better{note}")
    for problem in report["problems"]:
        print(f"problem: {problem}")


def run_all(spec: dict, seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="train, score, predict or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = _read_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in (*names, "all"):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    _pin_blas_threads()
    _load_program()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        return run_all(spec, args.seed, seconds, bool(args.trace))
    return run_one(spec, args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
