"""The benchmark's workloads and metrics: one table, one source of truth.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/metrics.py > BENCHMARK.json``), and the runner
checks every result it prints against these names and units. The
``moves`` column records which end-to-end metric, on which workload, a
change to the layer is expected to move, so later changes can cite it.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional

#: Seconds each run measures (the ``--seconds`` the runner is given).
RUN_SECONDS = 20

#: name -> (most workers or connections in flight, why it exists).
WORKLOADS: Dict[str, tuple] = {
    "inject-serial": (
        1,
        "Paper campaign via run_engine+SerialBackend at repro campaign "
        "defaults: loads core, observers, snapshot/differential; exec "
        "layer bypassed",
    ),
    "inject-pool2": (
        2,
        "Same campaign on ProcessPoolBackend(2) with fsync'd checkpoints: "
        "loads exec (worker start-up, pickling, checkpoint I/O)",
    ),
    "golden-matrix": (
        1,
        "Clean runs of all 10 programs over width x free list x recovery "
        "with IDLD/BV/counter attached: raw core and observer speed, no "
        "snapshot or exec",
    ),
    "fleet-http": (
        2,
        "Coordinator on a signed loopback HTTP server and one in-process "
        "worker over small shards: loads fabric RPC, merge and per-shard "
        "set-up",
    ),
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    #: Which end-to-end metric on which workload the layer should move.
    moves: str = ""


#: Measured with tracing off. Every workload reports every one of them.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("inj_per_s", "1/s", "higher", 0.25),
    Metric("sim_cycles_per_s", "1/s", "higher", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
]

_CORE = "sim_cycles_per_s on golden-matrix; inj_per_s on inject-serial"
_BUGS = "inj_per_s on inject-serial"
_EXEC = "inj_per_s and cpu_s on inject-pool2; no move on inject-serial"
_FABRIC = "inj_per_s and setup_s on fleet-http"

#: From the traced run. A layer a workload does not exercise reads 0.
PER_LAYER: List[Metric] = [
    *(
        Metric(f"core.{stage}_ns", "ns/cycle", "lower", moves=_CORE)
        for stage in (
            "fetch", "rename", "issue", "execute", "commit", "flush",
            "recovery", "observer", "fast_forward",
        )
    ),
    Metric("core.cycles", "count", "lower", moves=_CORE),
    Metric("core.recovery_cycles", "count", "lower", moves=_CORE),
    Metric("core.flushes", "count", "lower", moves=_CORE),
    Metric("core.bare_cycles_per_s", "1/s", "higher", moves=_CORE),
    Metric("idld.observer_ns_per_cycle", "ns/cycle", "lower", moves=_CORE),
    Metric(
        "bugs.provider_build_s", "s", "lower",
        moves="setup_s on inject-serial; inj_per_s and cpu_s on "
        "inject-pool2 and fleet-http",
    ),
    Metric(
        "bugs.provider_builds", "count", "lower",
        moves="setup_s on inject-serial; inj_per_s and cpu_s on "
        "inject-pool2 and fleet-http",
    ),
    Metric("bugs.restore_us", "us", "lower", moves=_BUGS),
    Metric("bugs.forecast_us", "us", "lower", moves=_BUGS),
    Metric("bugs.converge_us", "us", "lower", moves=_BUGS),
    Metric("bugs.converge_calls", "count", "lower", moves=_BUGS),
    Metric("bugs.classify_us", "us", "lower", moves=_BUGS),
    Metric("bugs.suffix_cycles", "count", "lower", moves=_BUGS),
    Metric("bugs.early_term_frac", "fraction", "higher", moves=_BUGS),
    Metric("bugs.zero_sim_frac", "fraction", "higher", moves=_BUGS),
    Metric("bugs.task_ms.p50", "ms", "lower", moves=_BUGS),
    Metric("bugs.task_ms.p90", "ms", "lower", moves=_BUGS),
    Metric("bugs.timeout_wall_frac", "fraction", "lower", moves=_BUGS),
    Metric("exec.first_result_s", "s", "lower", moves=_EXEC),
    Metric("exec.busy_frac", "fraction", "higher", moves=_EXEC),
    Metric("exec.checkpoint_write_us", "us", "lower", moves=_EXEC),
    Metric("exec.checkpoint_bytes", "bytes", "lower", moves=_EXEC),
    Metric("exec.task_pickle_bytes", "bytes", "lower", moves=_EXEC),
    Metric("exec.result_pickle_bytes", "bytes", "lower", moves=_EXEC),
    Metric("fabric.request_ms", "ms", "lower", moves=_FABRIC),
    Metric("fabric.upload_ms", "ms", "lower", moves=_FABRIC),
    Metric("fabric.release_ms", "ms", "lower", moves=_FABRIC),
    Metric("fabric.heartbeat_ms", "ms", "lower", moves=_FABRIC),
    Metric("fabric.rpc_p90_ms", "ms", "lower", moves=_FABRIC),
    Metric("fabric.rpcs", "count", "lower", moves=_FABRIC),
    Metric("fabric.sign_us", "us", "lower", moves=_FABRIC),
    Metric("fabric.verify_us", "us", "lower", moves=_FABRIC),
    Metric("fabric.merge_ms", "ms", "lower", moves=_FABRIC),
    Metric("fabric.shard_setup_s", "s", "lower", moves=_FABRIC),
    Metric(
        "trace.overhead_frac", "fraction", "lower",
        moves="none; the cost of tracing itself",
    ),
]

def result_metrics(values: Dict[str, float], trace: bool) -> Dict[str, dict]:
    """The result line's ``metrics`` object: every metric of the mode, in
    table order, with its unit. A missing value is a benchmark bug."""
    table = PER_LAYER if trace else END_TO_END
    missing = [m.name for m in table if m.name not in values]
    extra = sorted(set(values) - {m.name for m in table})
    if missing or extra:
        raise KeyError(f"metrics missing {missing} / unexpected {extra}")
    return {
        m.name: {"value": float(values[m.name]), "unit": m.unit}
        for m in table
    }


def benchmark_json() -> Dict[str, object]:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (_, why) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
