"""Repository benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {table1,fleet-drain,fleet-http} \\
        --seed N --seconds S --trace {0,1} [--rate R]

``--seconds`` sets how much work a run does (see each workload), not a
deadline: the amount is fixed by the argument, never by the clock.

The program under test is imported from ``src/`` of the checkout this
file sits in.  With ``--trace 0`` the run measures the end-to-end
metrics of ``BENCHMARK.json`` with the program untraced; with
``--trace 1`` it patches span wrappers around each layer's entry points
(``perfbench/tracing.py``) and reports the per-layer metrics instead.
Every run checks the program's outputs.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).  End-to-end times
are scaled to a reference host speed (``perfbench/hostspeed.py``).
Exit status is 0 for a correct run, 1 for an output mismatch, 2 when
the program or the benchmark definition is missing, and 3 for an
invalid ``fleet-http`` run whose load generator could not keep its
schedule.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table1", "fleet-drain", "fleet-http")
SETUP_REPEATS = 3
NOT_APPLICABLE = {
    # Per-layer names a workload has no such phase or layer for.
    "table1": ("http.", "loadgen."),
    "fleet-drain": ("cold.", "cached.", "http.", "loadgen."),
    "fleet-http": ("cold.", "cached."),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rate", type=float, default=65.0,
        help="fleet-http offered rate in requests per second",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="build the workload's ready state and exit (times setup_s)",
    )
    return parser.parse_args(argv)


def workload_module(name: str):
    from perfbench import fleet_drain, fleet_http, table1

    return {"table1": table1, "fleet-drain": fleet_drain, "fleet-http": fleet_http}[name]


def setup_only(args: argparse.Namespace) -> None:
    from perfbench.hostspeed import HostProbe

    with HostProbe() as probe:
        ready = workload_module(args.workload).prepare(args.seed)
    # The parent scales its wall time by this process's host speed.
    print(f"ready {probe.total_s()!r} {probe.speed(0.0, time.perf_counter())!r}", flush=True)
    if args.workload == "fleet-http":
        ready[-1].close()


def measure_setup(args: argparse.Namespace) -> float:
    """Median time from a fresh interpreter to a ready workload.

    The child reports readiness on its standard output; its teardown
    (server shutdown, interpreter exit) stays outside the timing.  Each
    wall time, less the child's probe bursts, is scaled to the
    reference host speed by the child's mean speed.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - start
            child.stdout.read()
        word, *numbers = line.split() or [""]
        if child.returncode != 0 or word != "ready" or len(numbers) != 2:
            raise RuntimeError(f"setup child failed with status {child.returncode}")
        bursts_s, speed = map(float, numbers)
        times.append((wall - bursts_s) * speed)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.setup_only:
        setup_only(args)
        return 0
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    setup_s = None if args.trace else measure_setup(args)
    from repro.obs.trace import TRACER

    module = workload_module(args.workload)
    extra = {"rate": args.rate} if args.workload == "fleet-http" else {}
    try:
        result = module.run(ROOT, args.seed, args.seconds, bool(args.trace), **extra)
    except getattr(module, "InvalidRun", ()) as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    if TRACER.enabled:
        result["problems"].append("the program's own tracer was left enabled")
    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    if args.trace:
        for name in units:
            if name not in metrics and name.startswith(NOT_APPLICABLE[args.workload]):
                metrics[name] = 0.0
    if set(metrics) != set(units):
        missing, unknown = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        print(f"perfbench: metrics mismatch: missing {missing}, unknown {unknown}", file=sys.stderr)
        return 2
    for problem in result["problems"]:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in sorted(metrics)
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
