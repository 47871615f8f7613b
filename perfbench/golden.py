"""golden-matrix: clean runs from power-on over a design-point grid.

One pass runs all ten programs at every point of rename width {1, 4, 8}
x free-list discipline {fifo, stack} x recovery strategy {checkpoint,
rob-walk, checkpoint-free} with the IDLD, BV and counter observers
attached. Every run must halt with the reference interpreter's output, a
clean PdstID census and all three detectors silent: the paper's "never
fires on a clean run". A clean run with every detector attached is an
injection whose bug never fires, so ``inj_per_s`` here counts runs.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Tuple

from common import Gate, HostClock, cpu_seconds, median, peak_rss_mb, rounds
from probes import counters, install, stage_metrics, zeros
from spans import Patches, SpanRecorder

SCALE = 1.0
GRID = list(
    itertools.product(
        (1, 4, 8), ("fifo", "stack"), ("checkpoint", "rob-walk", "checkpoint-free")
    )
)
#: Set-up is short, so a run repeats it this many times and keeps the median.
SETUP_REPEATS = 15
#: Seconds one pass takes on the reference host (see common.rounds).
NOMINAL_PASS_S = 15.0


class Pass:
    def __init__(self, runs, failed, run_s, cpu_s, stats, slowdown):
        self.runs = runs
        self.failed = failed
        #: Seconds of all runs and CPU seconds of the pass, as on the
        #: reference host (see common.HostClock).
        self.run_s = run_s
        self.cpu_s = cpu_s
        self.slowdown = slowdown
        #: Summed RunResult.stats counters of the pass.
        self.stats = stats

    @property
    def cycles(self) -> int:
        return self.stats["cycles"]


class GoldenWorkload:
    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.name = name
        self.seed = seed
        self.gate = Gate()
        clock = HostClock()
        clock.sample()
        spans = [self._setup() for _ in range(SETUP_REPEATS)]
        clock.sample()
        self.setups = [clock.reference_s(*span) for span in spans]

    def _setup(self) -> Tuple[float, float]:
        """Build the programs, their reference outputs and the grid."""
        from repro.core.config import CoreConfig
        from repro.isa.semantics import reference_run
        from repro.workloads import WORKLOADS

        started = time.perf_counter()
        self.programs = {
            n: build(scale=SCALE, seed=self.seed)
            for n, build in WORKLOADS.items()
        }
        self.expected = {
            n: reference_run(p)[0] for n, p in self.programs.items()
        }
        self.configs = [
            CoreConfig(width=w, free_list_discipline=d, recovery_strategy=r)
            for w, d, r in GRID
        ]
        return started, time.perf_counter()

    def input_size(self) -> Dict[str, object]:
        return {
            "programs": len(self.programs),
            "scale": SCALE,
            "program_input_seed": self.seed,
            "design_points": len(GRID),
            "runs_per_pass": len(GRID) * len(self.programs),
        }

    def one_pass(self, observed: bool = True) -> Pass:
        from repro.core.cpu import OoOCore
        from repro.idld.bitvector import BitVectorScheme
        from repro.idld.checker import IDLDChecker
        from repro.idld.counter import CounterScheme

        spans = []
        failed = 0
        stats = {"cycles": 0, "recovery_cycles": 0, "flushes": 0}
        clock = HostClock()
        clock.sample()
        begun = time.perf_counter()
        cpu0 = cpu_seconds()
        for config, point in zip(self.configs, GRID):
            for name, program in self.programs.items():
                detectors = (
                    (IDLDChecker(), BitVectorScheme(), CounterScheme())
                    if observed
                    else ()
                )
                started = time.perf_counter()
                core = OoOCore(program, config=config, observers=detectors)
                result = core.run()
                spans.append((started, time.perf_counter()))
                for key in stats:
                    stats[key] += result.stats.get(key, 0)
                problems = self._problems(name, point, result, core, detectors)
                failed += bool(problems)
                for problem in problems:
                    self.gate.fail(problem)
            # Each design point is timed against the host's speed on
            # either side of it.
            clock.sample()
        cpu = cpu_seconds() - cpu0 - clock.inside(begun, time.perf_counter())
        return Pass(
            len(spans),
            failed,
            sum(clock.reference_s(*span) for span in spans),
            cpu / clock.factor,
            stats,
            clock.factor,
        )

    def _problems(self, name, point, result, core, detectors) -> List[str]:
        where = f"{name} at {point}"
        out = []
        if not result.halted:
            out.append(f"{where}: did not halt")
        if result.output != self.expected[name]:
            out.append(f"{where}: OUT stream differs from reference_run")
        if not core.census_is_clean():
            out.append(f"{where}: PdstID census unclean")
        for detector in detectors:
            if detector.first_detection_cycle is not None:
                out.append(
                    f"{where}: {type(detector).__name__} fired at cycle "
                    f"{detector.first_detection_cycle} on a clean run"
                )
        return out

    def measure(self, seconds: float) -> Dict[str, float]:
        passes = rounds(
            seconds, NOMINAL_PASS_S, lambda _: self.one_pass(), min_rounds=1
        )
        self.attempted = sum(p.runs for p in passes)
        self.failed = sum(p.failed for p in passes)
        host_s = sum(p.run_s for p in passes)
        self.host = {"slowdown": [p.slowdown for p in passes]}
        return {
            "setup_s": median(self.setups),
            "inj_per_s": self.attempted / host_s,
            "sim_cycles_per_s": sum(p.cycles for p in passes) / host_s,
            "cpu_s": sum(p.cpu_s for p in passes) / len(passes),
            "peak_rss_mb": peak_rss_mb(),
        }

    def trace(self, seconds: float, recorder: SpanRecorder) -> Dict[str, float]:
        """One pass each plain, without observers, and traced."""
        import repro.core.cpu as cpu

        plain = self.one_pass()
        bare = self.one_pass(observed=False)
        profile = cpu.enable_stage_profiling()
        try:
            with Patches() as patches:
                install(patches, recorder)
                start = time.perf_counter_ns()
                traced = self.one_pass()
                window = (start, time.perf_counter_ns())
        finally:
            cpu.disable_stage_profiling()
        done = [plain, bare, traced]
        self.attempted = sum(p.runs for p in done)
        self.failed = sum(p.failed for p in done)
        self.gate.check(
            bare.stats == plain.stats,
            f"observers changed the simulation: {bare.stats} vs {plain.stats}",
        )
        counted = counters(recorder, window)
        for key in ("cycles", "recovery_cycles", "flushes"):
            self.gate.check(
                counted[f"core.{key}"] == plain.stats[key],
                f"core.{key} differs between two runs of one seed",
            )

        self.host = {"slowdown": [p.slowdown for p in done]}
        plain_s, bare_s = plain.run_s, bare.run_s
        cycles = plain.cycles
        out = zeros()
        out.update(counted)
        out.update(stage_metrics(profile, recorder))
        out["core.bare_cycles_per_s"] = cycles / bare_s
        out["idld.observer_ns_per_cycle"] = (plain_s - bare_s) * 1e9 / cycles
        out["trace.overhead_frac"] = 1.0 - plain_s / traced.run_s
        return out
