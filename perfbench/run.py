"""Benchmark of the digitrec pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

Workloads: ingest, crossval, classify (see README.md). The package is
imported from the checkout's src/ and driven in-process by one caller.
With --trace 0 the run prints the end-to-end metrics, timed in the
reference seconds of calib.py; with --trace 1 it wraps the package's
public functions and prints per-layer metrics.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("ingest", "crossval", "classify")
PACKAGE_MODULES = ("cli", "evaluation", "features", "imgproc", "mlp", "pgm")


def import_package() -> tuple[float, dict]:
    """Import digitrec from the checkout; (seconds taken, modules)."""
    if not (SRC / "digitrec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'digitrec'}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import digitrec
    modules = {name: __import__(f"digitrec.{name}", fromlist=[name])
               for name in PACKAGE_MODULES}
    modules["digitrec"] = digitrec
    return time.perf_counter() - start, modules


def timed(fn):
    """(fn(), wall s, process cpu s); exceptions propagate."""
    start, cpu = time.perf_counter(), time.process_time()
    result = fn()
    return result, time.perf_counter() - start, time.process_time() - cpu


def measure(workload, seconds: float, speed) -> dict:
    """Whole rounds until `seconds` have passed (at least one round).

    speed() is sampled after each round, never while an operation runs.
    """
    walls, cpus, speeds = [], [], []
    rounds = attempted = failed = 0
    start = time.perf_counter()
    while True:
        for op in workload.operations():
            attempted += 1
            try:
                result, wall, cpu = timed(op)
            except Exception as exc:  # an operation that fails is counted, not fatal
                failed += 1
                print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            cpus.append(cpu)
            walls.append(wall)
            workload.check(result)
        speeds.append(speed())
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"walls": walls, "cpus": cpus, "speeds": speeds, "rounds": rounds,
            "attempted": attempted, "failed": failed}


def merge(parts: list[dict]) -> dict:
    """The results of several measure() calls as one."""
    return {key: sum((p[key] for p in parts), [] if isinstance(parts[0][key], list) else 0)
            for key in parts[0]}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its children, in MiB."""
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


def run(args, workdir: Path, sizes=None) -> tuple[dict, list[str], bool, int, int]:
    """One run: (metrics, report lines, correct, attempted, failed)."""
    import_s, modules = import_package()
    import calib
    import spans
    import workloads

    sizes = sizes or workloads.Sizes()
    workload = workloads.WORKLOADS[args.workload](workdir, args.seed, sizes)
    tracer = spans.Tracer(modules) if args.trace else None
    speeds = [calib.speed()]
    setup_times = []
    for _ in range(sizes.setups):
        with tracer.active("setup") if tracer else contextlib.nullcontext():
            setup_times.append(timed(workload.setup)[1])
        speeds.append(calib.speed())
    workload.prepare()
    if tracer:
        # Untraced and traced rounds alternate, so that both see the
        # same drift of the machine's speed.
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            plain.append(measure(workload, 0, calib.speed))
            with tracer.active("rounds"):
                traced.append(measure(workload, 0, calib.speed))
        plain, traced = merge(plain), merge(traced)
    else:
        m = measure(workload, args.seconds, calib.speed)

    if tracer:
        per_round = [sum(m["walls"]) / m["rounds"] for m in (plain, traced)]
        overhead = 100.0 * (per_round[1] / per_round[0] - 1.0)
        values = tracer.summary({"setup": len(setup_times), "rounds": traced["rounds"]},
                                overhead)
        units = spans.metric_units()
        phases = (plain, traced)
        out = HERE / "results" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"setups": len(setup_times), "rounds": traced["rounds"],
                                   "rounds_wall_s": sum(traced["walls"]),
                                   "spans": tracer.dump()}))
    else:
        phases = (m,)
        # One speed for the whole run: a single sample is too noisy to
        # scale a single set-up or operation by.
        speed = statistics.median(speeds + m["speeds"])
        values = {
            "setup_s": (import_s + statistics.median(setup_times)) * speed,
            "peak_rss_mb": peak_rss_mb(),
            "items_per_s": workload.items_per_op * len(m["walls"]) / sum(m["walls"]) / speed,
            "op_ms": statistics.median(m["walls"]) * speed * 1e3,
        }
        units = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s", "op_ms": "ms"}
    notes = workload.finish()
    total = {key: sum(sum(p[key]) for p in phases) for key in ("walls", "cpus")}
    samples = speeds + [v for p in phases for v in p["speeds"]]
    ops = sum(len(p["walls"]) for p in phases)
    notes += [f"wall import {import_s:.3f} s; wall set-ups "
              f"{', '.join(f'{t:.3f}' for t in setup_times)} s",
              f"timed: {ops} operations in {sum(p['rounds'] for p in phases)} rounds, "
              f"wall {total['walls']:.3f} s, process cpu {total['cpus']:.3f} s",
              f"speed: median {statistics.median(samples):.4f} of {len(samples)} samples, "
              f"range {min(samples):.4f}-{max(samples):.4f}"]
    notes += [f"problem: {p}" for p in workload.problems]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    return metrics, notes, not workload.problems, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase; whole rounds run until it passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, notes, correct, attempted, failed = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
