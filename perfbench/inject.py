"""inject-serial and inject-pool2: the paper's campaign through run_engine.

A round is one complete campaign over all ten programs and the three
primary bug models at the ``repro campaign`` defaults (snapshot interval
250, differential on, batch size 8, the CLI's fault policy) with a
checkpoint file: flush-only on the serial backend, fsync'd on the pool.
The run's seed is the programs' input seed and, through
``campaign.master_seed``, the rounds' campaign master seeds.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from typing import Dict

from campaign import CampaignWorkload, Round, master_seed
from common import HostClock, cpu_seconds
from probes import Window
from spans import SpanRecorder

SCALE = 1.0
SNAPSHOT_INTERVAL = 250
BATCH_SIZE = 8
POOL_JOBS = 2


class InjectWorkload(CampaignWorkload):
    def __init__(self, name: str, seed: int, workdir: str) -> None:
        from repro.workloads import WORKLOADS

        super().__init__(name, seed, workdir)
        self.pool = name == "inject-pool2"
        #: Injections per (program, bug model) in one round.
        self.runs = 2 if self.pool else 4
        #: Seconds one round takes on the reference host (common.rounds).
        self.nominal_s = 3.3 if self.pool else 5.0
        self.workers = POOL_JOBS if self.pool else 1
        if self.pool:
            # Which worker builds which program's provider is up to the
            # scheduler, so only the total over both workers is known.
            self.unstable = ("bugs.provider_builds",)
        self.programs = {
            n: build(scale=SCALE, seed=seed) for n, build in WORKLOADS.items()
        }

    def input_size(self) -> Dict[str, object]:
        return {
            "programs": len(self.programs),
            "scale": SCALE,
            "program_input_seed": self.seed,
            "campaign_seeds": f"1000 * {self.seed} + round",
            "models": 3,
            "runs_per_model": self.runs,
            "injections_per_round": 3 * self.runs * len(self.programs),
            "backend": f"pool({POOL_JOBS})" if self.pool else "serial",
            "checkpoint_fsync": self.pool,
        }

    def round(self, index: int) -> Round:
        from repro.exec import (
            FaultPolicy,
            ProcessPoolBackend,
            SerialBackend,
            run_engine,
        )

        backend = (
            ProcessPoolBackend(POOL_JOBS, policy=FaultPolicy())
            if self.pool
            else SerialBackend(policy=FaultPolicy())
        )
        path = os.path.join(self.workdir, f"round-{index}.jsonl")
        events = []
        clock = HostClock()
        # Samples inside a pool round would take a CPU from the workers,
        # so the pool's host speed is sampled around the round only.
        clock.sample(6 if self.pool else 2)
        observers = [lambda e: events.append((time.perf_counter(), e))]
        if not self.pool:
            observers.append(clock.observer)
        cpu0 = cpu_seconds()
        started = time.perf_counter()
        campaign = run_engine(
            self.programs,
            self.runs,
            seed=master_seed(self.seed, index),
            backend=backend,
            checkpoint_path=path,
            observers=observers,
            snapshot_interval=SNAPSHOT_INTERVAL,
            checkpoint_fsync=self.pool,
            differential=True,
            batch_size=BATCH_SIZE,
        )
        ended = time.perf_counter()
        # The pool terminates its workers without waiting for them; reap
        # them so their CPU time lands in this round and none outlive it.
        for child in multiprocessing.active_children():
            child.join()
        cpu = cpu_seconds() - cpu0
        clock.sample(6 if self.pool else 2)
        self.checkpoint_bytes = os.path.getsize(path)
        os.unlink(path)
        self.goldens = campaign.goldens
        for r in campaign.results:
            self.check_idld(index, f"{r.benchmark}/{r.spec.model.value}", r)
        self.gate.check(
            not campaign.failures,
            f"round {index}: {len(campaign.failures)} task(s) quarantined",
        )
        # The engine's execution span, from its progress events; the rest
        # of the call is set-up.
        first_at, first = events[0]
        last_at = events[-1][0]
        executing = first_at - first.elapsed_s
        return Round(
            campaign.results,
            len(campaign.results) + len(campaign.failures),
            clock,
            setup=[(started, executing), (last_at, ended)],
            execution=(executing, last_at),
            cpu_s=cpu,
            # Set-up is the providers' golden runs, detectors attached.
            sim_cycles=sum(g.cycles for g in campaign.goldens.values()),
            sim_phase="setup",
            first_result=first_at,
        )

    def _tasks(self):
        from repro.exec import generate_tasks

        return generate_tasks(
            list(self.programs), self.runs, seed=master_seed(self.seed, 0)
        )

    def cold_check(self, first: Round) -> None:
        """Re-execute one task per program on the cold path (power-on, no
        snapshots, no differential) and demand an identical result."""
        from repro.bugs.models import PRIMARY_MODELS
        from repro.exec import execute_task

        tasks = self._tasks()
        if len(first.results) != len(tasks):
            return  # quarantines are already a failure; indexes are off
        for i, name in enumerate(self.programs):
            model = PRIMARY_MODELS[i % len(PRIMARY_MODELS)]
            task = next(
                t for t in tasks
                if t.benchmark == name and t.model is model
                and t.run_index == 0
            )
            cold = execute_task(task, self.programs[name], self.goldens[name])
            self.gate.check(
                cold == first.results[task.index],
                f"task {task.key}: cold re-execution disagrees with the "
                "timed result",
            )

    def extra_layers(
        self, plain: Round, recorder: SpanRecorder, window: Window
    ) -> Dict[str, float]:
        """Bytes a pool ships per round: each dispatch unit out and its
        result (a list for a batch) back, rebuilt with the engine's own
        public batching from the round's task list."""
        from repro.exec.tasks import BatchedInjectionTask, group_into_batches

        units = group_into_batches(
            self._tasks(), self.goldens, None, SNAPSHOT_INTERVAL, BATCH_SIZE
        )
        results = plain.results
        out_bytes = back_bytes = 0
        for unit in units:
            out_bytes += len(pickle.dumps(unit))
            if isinstance(unit, BatchedInjectionTask):
                back = [results[m.index] for m in unit.members]
            else:
                back = results[unit.index]
            back_bytes += len(pickle.dumps(back))
        return {
            "exec.checkpoint_bytes": self.checkpoint_bytes,
            "exec.task_pickle_bytes": out_bytes,
            "exec.result_pickle_bytes": back_bytes,
        }
