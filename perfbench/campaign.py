"""What the three campaign workloads share: rounds, gates and metrics.

A run executes the workload's campaign round by round, each round from
scratch with its own master seed (``1000 * seed + round``), so every
round pays the full set-up again. Times are converted to reference-host
times with the round's :class:`common.HostClock`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from common import Gate, HostClock, median, peak_rss_mb, rounds
from probes import (
    Window,
    counters,
    install,
    stage_metrics,
    timing_metrics,
    zeros,
)
from spans import Patches, SpanRecorder


def master_seed(seed: int, round_index: int) -> int:
    return 1000 * seed + round_index


def suffix_cycles(result) -> int:
    """Cycles the injection actually simulated after its restore point."""
    if result.early_terminated_cycle == 0:
        return 0  # forecast proved the bug never fires: nothing simulated
    end = result.early_terminated_cycle or result.final_cycle
    return end - result.warm_start_cycles_skipped


class Round:
    """What one campaign round measured, in reference-host seconds.

    ``setup`` (a list) and ``execution`` are host-time intervals
    (perf_counter), ``cpu_s`` the CPU seconds of the whole round with the
    clock's samples in it,
    ``first_result`` the host time of the first result. ``sim_cycles``
    are the cycles the core simulated in the round's ``sim_phase``,
    "setup" or "exec".
    """

    def __init__(
        self,
        results: list,
        attempted: int,
        clock: HostClock,
        setup: Sequence[Tuple[float, float]],
        execution: Tuple[float, float],
        cpu_s: float,
        sim_cycles: int,
        sim_phase: str,
        first_result: Optional[float] = None,
    ) -> None:
        #: InjectionResults in canonical task order.
        self.results = results
        self.attempted = attempted
        self.slowdown = clock.factor
        self.setup_s = sum(clock.reference_s(*span) for span in setup)
        self.exec_s = clock.reference_s(*execution)
        spans = [*setup, execution]
        self.cpu_s = (
            cpu_s
            - clock.inside(min(a for a, _ in spans), max(b for _, b in spans))
        ) / self.slowdown
        self.first_result_s = (
            clock.reference_s(execution[0], first_result)
            if first_result is not None
            else 0.0
        )
        self.suffix_cycles = sum(suffix_cycles(r) for r in results)
        self.sim_cycles = sim_cycles
        self.sim_s = self.setup_s if sim_phase == "setup" else self.exec_s


class CampaignWorkload:
    """Subclasses set ``nominal_s`` and ``workers`` and implement
    :meth:`round`, :meth:`cold_check` and, if they add per-layer
    numbers, :meth:`extra_layers`."""

    nominal_s: float
    workers: int = 1
    fabric: bool = False
    #: Counters that may legitimately differ between two rounds.
    unstable: Sequence[str] = ()

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.gate = Gate()

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def cold_check(self, first: Round) -> None:
        raise NotImplementedError

    def extra_layers(
        self, plain: Round, recorder: SpanRecorder, window: Window
    ) -> Dict[str, float]:
        return {}

    def check_idld(self, index: int, key: str, result) -> None:
        """The paper's 100% coverage claim: an activated bug is detected."""
        self.gate.check(
            not result.activated or result.idld_cycle is not None,
            f"round {index}: activated injection {key} at cycle "
            f"{result.activation_cycle} was not detected by IDLD",
        )

    def _account(self, done: List[Round]) -> None:
        self.attempted = sum(r.attempted for r in done)
        self.failed = sum(r.attempted - len(r.results) for r in done)
        self.host = {"slowdown": [r.slowdown for r in done]}
        self.cold_check(done[0])

    def measure(self, seconds: float) -> Dict[str, float]:
        done = rounds(seconds, self.nominal_s, self.round, min_rounds=2)
        self._account(done)
        exec_s = sum(r.exec_s for r in done)
        return {
            "setup_s": median([r.setup_s for r in done]),
            "inj_per_s": self.attempted / exec_s,
            "sim_cycles_per_s": sum(r.sim_cycles for r in done)
            / sum(r.sim_s for r in done),
            "cpu_s": sum(r.cpu_s for r in done) / len(done),
            "peak_rss_mb": peak_rss_mb(),
        }

    def trace(self, seconds: float, recorder: SpanRecorder) -> Dict[str, float]:
        """Round 0 plainly, then twice traced: all three must agree, and
        the traced pair must repeat every deterministic counter."""
        import repro.core.cpu as cpu

        plain = self.round(0)
        traced: List[Round] = []
        windows: List[Window] = []
        profile = cpu.enable_stage_profiling()
        try:
            with Patches() as patches:
                install(patches, recorder, fabric=self.fabric)
                for _ in range(2):
                    start = time.perf_counter_ns()
                    traced.append(self.round(0))
                    windows.append((start, time.perf_counter_ns()))
        finally:
            cpu.disable_stage_profiling()
        recorder.collect_children()
        self._account([plain, *traced])
        for again in traced:
            self.gate.check(
                again.results == plain.results,
                "a traced round gave different results from the plain one",
            )

        first, again = (counters(recorder, w) for w in windows)
        for name, value in first.items():
            self.gate.check(
                name in self.unstable or again[name] == value,
                f"{name} differs between two runs of one seed: "
                f"{value} vs {again[name]}",
            )
        out = zeros()
        out.update(first)
        out.update(timing_metrics(recorder))
        out.update(stage_metrics(profile, recorder))
        out["bugs.suffix_cycles"] = plain.suffix_cycles
        out["bugs.early_term_frac"] = _share(
            plain.results, lambda r: (r.early_terminated_cycle or 0) > 0
        )
        out["bugs.zero_sim_frac"] = _share(
            plain.results, lambda r: r.early_terminated_cycle == 0
        )
        start, end = windows[0]
        task_ns = sum(
            s.ns for s in recorder.named("exec.task", since=start)
            if s.end <= end
        )
        # Span times are host times; the round's are reference-host times.
        out["exec.busy_frac"] = task_ns / 1e9 / (
            self.workers * traced[0].exec_s * traced[0].slowdown
        )
        out["exec.first_result_s"] = plain.first_result_s
        out.update(self.extra_layers(plain, recorder, windows[0]))
        out["trace.overhead_frac"] = 1.0 - plain.exec_s / traced[0].exec_s
        return out


def _share(results: list, test) -> float:
    return sum(1 for r in results if test(r)) / len(results) if results else 0.0
