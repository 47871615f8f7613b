"""Call-site probes for the traced run, and the per-layer numbers they give.

Each probe wraps one public function of a layer where its callers look it
up (a module attribute or a class attribute), records a span around every
call, and is removed when the traced phase ends. Nothing under ``src/``
is edited; the untraced rounds run the program exactly as users do.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from metrics import PER_LAYER
from spans import Patches, Span, SpanRecorder, mean_ns, percentile

#: A traced round's span window: (start_ns, end_ns).
Window = Tuple[int, int]


def zeros() -> Dict[str, float]:
    """Every per-layer metric at 0: the value of a layer not exercised."""
    return {m.name: 0.0 for m in PER_LAYER}


def install(patches: Patches, rec: SpanRecorder, fabric: bool = False) -> None:
    """Wrap the core, bugs and exec entry points (and fabric ones)."""
    import repro.bugs.campaign as campaign
    import repro.core.cpu as cpu
    import repro.exec.backends as backends
    import repro.exec.tasks as tasks
    from repro.bugs.differential import DeltaTrace
    from repro.bugs.snapshot import SnapshotProvider
    from repro.exec.checkpoint import CheckpointWriter

    run_cycles = cpu.OoOCore.run_cycles

    def counted_run_cycles(core, *args, **kwargs):
        stats = core.stats
        before = (
            core.cycle, stats.get("recovery_cycles", 0),
            stats.get("flushes", 0),
        )
        span = rec.open("core.run_cycles")
        try:
            return run_cycles(core, *args, **kwargs)
        finally:
            span.attrs = {
                "cycles": core.cycle - before[0],
                "recovery_cycles": stats.get("recovery_cycles", 0) - before[1],
                "flushes": stats.get("flushes", 0) - before[2],
            }
            rec.close(span)

    patches.set(cpu.OoOCore, "run_cycles", counted_run_cycles)

    def task_done(span: Span, args: tuple, result) -> None:
        if result is not None:
            span.attrs["outcome"] = result.outcome.value
        # A pool worker's profile dies with it; report it after each task.
        rec.report_stage(cpu.STAGE_PROFILE)

    def task_key(task, *args, **kwargs) -> str:
        return task.key

    for module in (tasks, backends):
        patches.wrap(
            rec, module, "execute_task", "exec.task",
            key_of=task_key, after=task_done,
        )
    patches.wrap(rec, backends, "execute_batch", "exec.batch")
    patches.wrap(
        rec, CheckpointWriter, "write_result", "exec.checkpoint_write"
    )
    patches.wrap(rec, SnapshotProvider, "__init__", "bugs.provider_build")
    patches.wrap(rec, SnapshotProvider, "restore_into", "bugs.restore")
    patches.wrap(rec, DeltaTrace, "first_perturbation", "bugs.forecast")
    patches.wrap(rec, campaign, "converged", "bugs.converge")
    patches.wrap(rec, campaign, "classify_run", "bugs.classify")
    if fabric:
        _install_fabric(patches, rec)


def _install_fabric(patches: Patches, rec: SpanRecorder) -> None:
    import repro.exec.fabric.transport as transport
    from repro.exec.fabric.auth import RequestVerifier
    from repro.exec.fabric.coordinator import FabricCoordinator

    def leased(span: Span, args: tuple, result) -> None:
        lease = (result or {}).get("lease")
        if lease is not None:
            span.attrs["shard"] = lease["shard"]

    for call in ("submit", "heartbeat", "upload", "release", "fetch"):
        patches.wrap(rec, transport.HttpTransport, call, f"fabric.{call}")
    patches.wrap(
        rec, transport.HttpTransport, "request", "fabric.request",
        after=leased,
    )
    patches.wrap(rec, transport, "sign_request", "fabric.sign")
    patches.wrap(rec, RequestVerifier, "verify", "fabric.verify")
    patches.wrap(rec, FabricCoordinator, "upload", "fabric.merge")


def _inside(spans: List[Span], window: Window) -> List[Span]:
    start, end = window
    return [s for s in spans if start <= s.start and s.end <= end]


def counters(rec: SpanRecorder, window: Window) -> Dict[str, int]:
    """Exact work counts of one traced round."""
    runs = _inside(rec.named("core.run_cycles"), window)
    return {
        "core.cycles": sum(s.attrs["cycles"] for s in runs),
        "core.recovery_cycles": sum(s.attrs["recovery_cycles"] for s in runs),
        "core.flushes": sum(s.attrs["flushes"] for s in runs),
        "bugs.provider_builds": len(
            _inside(rec.named("bugs.provider_build"), window)
        ),
        "bugs.converge_calls": len(
            _inside(rec.named("bugs.converge"), window)
        ),
        "fabric.rpcs": sum(
            len(_inside(rec.named(f"fabric.{call}"), window))
            # Heartbeats are paced by the clock, not by the work.
            for call in ("submit", "request", "upload", "release", "fetch")
        ),
    }


def stage_metrics(parent: Optional[Dict[str, int]], rec: SpanRecorder):
    """core.<stage>_ns per profiled cycle, parent and pool workers summed."""
    total: Dict[str, int] = dict(parent or {})
    for child in rec.child_stage.values():
        for bucket, value in child.items():
            total[bucket] = total.get(bucket, 0) + value
    cycles = total.pop("cycles", 0)
    return {
        f"core.{bucket}_ns": (value / cycles if cycles else 0.0)
        for bucket, value in total.items()
    }


def timing_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """Per-call costs over every traced round."""
    tasks = rec.named("exec.task")
    task_ms = [s.ns / 1e6 for s in tasks]
    task_ns = sum(s.ns for s in tasks)
    timeout_ns = sum(s.ns for s in tasks if s.attrs.get("outcome") == "Timeout")
    builds = rec.named("bugs.provider_build")
    return {
        "bugs.restore_us": mean_ns(rec.named("bugs.restore")) / 1e3,
        "bugs.forecast_us": mean_ns(rec.named("bugs.forecast")) / 1e3,
        "bugs.converge_us": mean_ns(rec.named("bugs.converge")) / 1e3,
        "bugs.classify_us": mean_ns(rec.named("bugs.classify")) / 1e3,
        "bugs.provider_build_s": mean_ns(builds) / 1e9,
        "bugs.task_ms.p50": percentile(task_ms, 0.5),
        "bugs.task_ms.p90": percentile(task_ms, 0.9),
        "bugs.timeout_wall_frac": timeout_ns / task_ns if task_ns else 0.0,
        "exec.checkpoint_write_us": mean_ns(
            rec.named("exec.checkpoint_write")
        ) / 1e3,
    }


def fabric_metrics(rec: SpanRecorder) -> Dict[str, float]:
    rpcs = [
        s.ns / 1e6
        for call in ("submit", "request", "heartbeat", "upload", "release",
                     "fetch")
        for s in rec.named(f"fabric.{call}")
    ]
    out = {
        f"fabric.{call}_ms": percentile(
            [s.ns / 1e6 for s in rec.named(f"fabric.{call}")], 0.5
        )
        for call in ("request", "upload", "release", "heartbeat")
    }
    out["fabric.rpc_p90_ms"] = percentile(rpcs, 0.9)
    out["fabric.sign_us"] = mean_ns(rec.named("fabric.sign")) / 1e3
    out["fabric.verify_us"] = mean_ns(rec.named("fabric.verify")) / 1e3
    out["fabric.merge_ms"] = mean_ns(rec.named("fabric.merge")) / 1e6
    # Lease grant to the shard's first checkpointed result.
    writes = sorted(s.start for s in rec.named("exec.checkpoint_write"))
    setups = []
    for grant in rec.named("fabric.request"):
        if "shard" not in grant.attrs:
            continue
        first = next((w for w in writes if w >= grant.end), None)
        if first is not None:
            setups.append((first - grant.end) / 1e9)
    out["fabric.shard_setup_s"] = (
        sum(setups) / len(setups) if setups else 0.0
    )
    return out
