"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload inject-serial --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the traced variant and prints the per-layer metrics (see
``perfbench/metrics.py`` for both tables). Human-readable lines and the
run's provenance go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. Any wrong output
fails the run: it prints ``"correct": false`` and exits 1. The traced run
also writes every span to ``.perfbench/trace-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

from metrics import END_TO_END, PER_LAYER, WORKLOADS, result_metrics  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def preflight(workload: str) -> str:
    """Why this host cannot run ``workload``, or '' when it can."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        return f"no program source at {os.path.join(ROOT, 'src', 'repro')}"
    cpus = len(os.sched_getaffinity(0))
    wanted = WORKLOADS[workload][0]
    if wanted > cpus:
        return (
            f"{workload} keeps {wanted} workers or connections busy but "
            f"this host has {cpus} CPU(s)"
        )
    return ""


def make_workload(name: str, seed: int, workdir: str):
    if name.startswith("inject-"):
        from inject import InjectWorkload

        return InjectWorkload(name, seed, workdir)
    if name == "golden-matrix":
        from golden import GoldenWorkload

        return GoldenWorkload(name, seed, workdir)
    from fleet import FleetWorkload

    return FleetWorkload(name, seed, workdir)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    problem = preflight(args.workload)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.bench import environment_provenance
    from spans import SpanRecorder

    workdir = os.path.join(
        OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(workdir)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        started = time.perf_counter()
        if args.trace:
            recorder = SpanRecorder(workdir)
            values = workload.trace(args.seconds, recorder)
        else:
            values = workload.measure(args.seconds)
        wall = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall,
        "input": workload.input_size(),
        "host": workload.host,
        "environment": environment_provenance(),
    }
    if args.trace:
        path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"
        )
        recorder.write(path, {"provenance": provenance, "metrics": values})
        print(f"perfbench: wrote {len(recorder.spans)} spans to {path}",
              file=sys.stderr)
    for failure in workload.gate.failures:
        print(f"perfbench: WRONG OUTPUT: {failure}", file=sys.stderr)

    print(json.dumps({"provenance": provenance}))
    table = PER_LAYER if args.trace else END_TO_END
    for metric in table:
        print(f"{metric.name:>28} {values[metric.name]:>16.6g} {metric.unit}")
    print(
        f"{'fail_frac':>28} {workload.failed / workload.attempted:>16.6g} "
        f"fraction ({workload.failed} of {workload.attempted})"
    )
    print(json.dumps({
        "correct": workload.gate.ok,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": result_metrics(values, bool(args.trace)),
    }))
    return 0 if workload.gate.ok else 1


if __name__ == "__main__":
    sys.exit(main())
