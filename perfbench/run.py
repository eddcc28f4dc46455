"""Run the repository benchmark.

One run of one workload (the form a harness calls)::

    python3 perfbench/run.py --workload ingest --seed 2015 --seconds 20 --trace 0

prints the metrics by name and unit, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives the
end-to-end metrics named in BENCHMARK.json, ``--trace 1`` the per-layer ones.

Every workload, interleaved, on several seeds (the steadiness check)::

    python3 perfbench/run.py --repeat 10

runs every workload ``--repeat`` times in its own process, seeds
``--seed``, ``--seed + 1``, ..., and prints the median, the quartiles and
their spread against each metric's bound, with a machine fingerprint.
Without ``--workload`` and ``--repeat`` it runs every workload once.

Run it from the repository root; it reads ``src/`` and ``BENCHMARK.json``
and works under ``.bench_work/``, which it removes again.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 2015


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _stop_resource_tracker() -> None:
    """Stop the helper process spawned children made Python start.

    It would exit by itself once this process ends; stopping it here
    means the run leaves no process behind when it returns.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _single(args, spec: dict) -> int:
    """One workload run; the last stdout line is the result object."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # A defined configuration: the sidecar fast path on, no ambient
    # worker-count override.
    for variable in ("REPRO_NO_COLUMNAR", "REPRO_JOBS"):
        os.environ.pop(variable, None)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import run_workload

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              workdir, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still works there
        _stop_resource_tracker()
    metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        value, unit = result.metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: measured in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
        print(f"{entry['name']:32} {value:14.6g} {unit}")
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not result.problems,
                      "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": metrics}))
    return 0


def _fingerprint() -> dict:
    import numpy

    return {"cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def _cpu_loop_s() -> float:
    """A fixed pure-Python loop: the machine's own run-to-run swing."""
    start = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i * i
    return time.perf_counter() - start


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def _steady(args, spec: dict) -> int:
    """Interleaved repeated runs, each in its own process."""
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"machine {json.dumps(_fingerprint(), sort_keys=True)}")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    shares: dict[str, set[float]] = {w: set() for w in workloads}
    loop_s = []
    ok = True
    for i in range(args.repeat):
        seed = args.seed + i
        for workload in workloads:
            loop_s.append(_cpu_loop_s())
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            started = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            wall = time.perf_counter() - started
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            shares[workload].add(result["failed"] / result["attempted"])
            shown = " ".join(f"{name}={metric['value']:.4g}"
                             for name, metric in result["metrics"].items())
            print(f"{workload:7} seed {seed:5} wall {wall:6.1f}s "
                  f"cpu-loop {loop_s[-1]:.3f}s "
                  f"correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} {shown}", flush=True)
            if done.stderr.strip():
                print(done.stderr.strip())
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    print(f"\nplain CPU loop: median {statistics.median(loop_s):.3f}s, "
          f"min {min(loop_s):.3f}s, max {max(loop_s):.3f}s, IQR/median "
          f"{_spread(loop_s)[3]:.3f} over {len(loop_s)} runs")
    print(f"\n{'workload':8} {'metric':30} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for workload in workloads:
        for name, series in values[workload].items():
            median, q1, q3, spread = _spread(series)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = ("steady" if spread < bound / 3 else
                           "within bound" if spread <= bound else
                           "OVER BOUND")
            print(f"{workload:8} {name:30} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6} {verdict}")
        print(f"{workload:8} failed share per run: "
              f"{sorted(shares[workload])}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int,
                        help="interleaved runs per workload (steadiness)")
    args = parser.parse_args(argv)
    try:
        spec = _spec()
    except (OSError, ValueError) as bad:
        print(f"error: cannot read BENCHMARK.json: {bad}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is not None:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        return _single(args, spec)
    args.repeat = args.repeat or 1
    return _steady(args, spec)


if __name__ == "__main__":
    sys.exit(main())
