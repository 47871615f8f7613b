"""fleet-http: one coordinator, one worker, signed HTTP on loopback.

A round starts a :class:`FabricCoordinator` behind ``make_http_server``
with HMAC auth on, submits the campaign over :class:`HttpTransport`, runs
one in-process :class:`FabricWorker` (``jobs=1``) until the campaign is
done, and fetches the merged artifact. Shards hold six tasks, one
program's worth, so every shard re-enters ``run_engine`` and pays its own
set-up.

The fabric's campaign spec carries no input-data seed: workers build the
programs from the spec with the workload builders' default inputs. So
here the run's seed gives the rounds' campaign master seeds and the HMAC
secret, but does not reach the programs' input data.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from typing import Dict, Tuple

from campaign import CampaignWorkload, Round, master_seed, suffix_cycles
from common import HostClock, cpu_seconds, median
from probes import Window, fabric_metrics
from spans import SpanRecorder

RUNS_PER_MODEL = 2
SHARD_SIZE = 6
#: Short enough that the worker heartbeats inside some shards.
LEASE_TTL_S = 1.5
POLL_S = 0.05
#: Set-up is a few milliseconds, so each round repeats it this often.
SETUP_REPEATS = 5


class FleetWorkload(CampaignWorkload):
    nominal_s = 4.0
    workers = 1
    fabric = True

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        from repro.core.cpu import OoOCore

        super().__init__(name, seed, workdir)
        self.spec = self._spec(0)
        self.tasks = self.spec.tasks()
        self.secret = hashlib.sha256(f"perfbench-{seed}".encode()).digest()
        self.programs = self.spec.programs()
        self.goldens = {
            name: OoOCore(program).run()
            for name, program in self.programs.items()
        }

    def _spec(self, index: int):
        from repro.exec import CampaignSpec
        from repro.workloads import WORKLOADS

        return CampaignSpec(
            benchmarks=tuple(WORKLOADS),
            runs_per_model=RUNS_PER_MODEL,
            seed=master_seed(self.seed, index),
            shard_size=SHARD_SIZE,
        )

    def input_size(self) -> Dict[str, object]:
        return {
            "programs": len(self.spec.benchmarks),
            "scale": self.spec.scale,
            "program_input_seed": "builder default",
            "campaign_seeds": f"1000 * {self.seed} + round",
            "models": len(self.spec.models),
            "runs_per_model": RUNS_PER_MODEL,
            "injections_per_round": len(self.tasks),
            "shard_size": SHARD_SIZE,
            "workers": 1,
        }

    def _serve(self, spec, state: str, observers: list):
        """Coordinator + signed HTTP server + a client; the round's set-up."""
        from repro.exec import FabricCoordinator, FabricPolicy, HttpTransport
        from repro.exec.fabric import make_http_server

        coordinator = FabricCoordinator(
            os.path.join(state, "coordinator"),
            policy=FabricPolicy(lease_ttl_s=LEASE_TTL_S, poll_s=POLL_S),
            observers=observers,
        )
        server = make_http_server(coordinator, secret=self.secret)
        serving = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": POLL_S}
        )
        serving.start()
        transport = HttpTransport(
            f"http://127.0.0.1:{server.server_address[1]}", secret=self.secret
        )
        try:
            transport.submit(spec.to_dict())
        except BaseException:
            _stop(server, serving)
            raise
        return server, serving, transport

    def _setup_span(self, index: int) -> Tuple[float, float]:
        """One more set-up alone: serve, submit, stop."""
        started = time.perf_counter()
        server, serving, _ = self._serve(
            self.spec,
            os.path.join(self.workdir, f"setup-{index}-{time.time_ns()}"),
            [],
        )
        span = (started, time.perf_counter())
        _stop(server, serving)
        return span

    def round(self, index: int) -> Round:
        from repro.exec import FabricWorker

        spec = self._spec(index)
        state = os.path.join(self.workdir, f"round-{index}-{time.time_ns()}")
        clock = HostClock()
        clock.sample(2)
        cpu0 = cpu_seconds()
        started = time.perf_counter()
        # The coordinator calls its observers on each merge, while the
        # worker waits for the upload's reply: a pause in the work.
        server, serving, transport = self._serve(
            spec, state, [clock.observer]
        )
        try:
            worker = FabricWorker(
                transport,
                worker_id="perfbench-worker",
                workdir=os.path.join(state, "worker"),
                jobs=1,
                poll_s=POLL_S,
                offline_budget_s=30.0,
            )
            executing = time.perf_counter()
            code = worker.run()
            finished = time.perf_counter()
            artifact = transport.fetch()
        finally:
            _stop(server, serving)
        cpu = cpu_seconds() - cpu0
        clock.sample()
        setups = [(started, executing)]
        for i in range(SETUP_REPEATS - 1):
            setups.append(self._setup_span(index * SETUP_REPEATS + i))
        clock.sample(2)
        self.gate.check(code == 0, f"round {index}: worker exited {code}")
        self.artifact_bytes = len(artifact)
        tasks = spec.tasks()
        results = self._check_artifact(index, tasks, artifact, state)
        done = Round(
            results,
            len(tasks),
            clock,
            setup=[(started, executing)],
            execution=(executing, finished),
            cpu_s=cpu,
            # Each program's shard builds its provider (a golden run) and
            # then simulates its injections' suffixes.
            sim_cycles=sum(g.cycles for g in self.goldens.values())
            + sum(suffix_cycles(r) for r in results),
            sim_phase="exec",
        )
        done.setup_s = median([clock.reference_s(*span) for span in setups])
        return done

    def _check_artifact(self, index: int, tasks, artifact: bytes, state: str):
        """The fetched artifact must scan clean and hold every task key."""
        from repro.exec import load_checkpoint_full, scan_checkpoint

        path = os.path.join(state, "fetched.jsonl")
        with open(path, "wb") as handle:
            handle.write(artifact)
        report = scan_checkpoint(path)
        self.gate.check(
            report.clean,
            f"round {index}: fetched artifact fails scan_checkpoint "
            f"({len(report.issues)} issue(s))",
        )
        if not report.clean:
            return []
        _, done, quarantined = load_checkpoint_full(path)
        missing = [t.key for t in tasks if t.key not in done]
        self.gate.check(
            not missing,
            f"round {index}: artifact misses {len(missing)} task key(s), "
            f"e.g. {missing[:3]}",
        )
        self.gate.check(
            not quarantined,
            f"round {index}: {len(quarantined)} task(s) quarantined",
        )
        results = [done[t.key][1] for t in tasks if t.key in done]
        for task, result in zip(tasks, results):
            self.check_idld(index, task.key, result)
        return results

    def cold_check(self, first: Round) -> None:
        """One task per program, re-executed cold, against the artifact."""
        from repro.bugs.models import PRIMARY_MODELS
        from repro.exec import execute_task

        if len(first.results) != len(self.tasks):
            return  # missing keys are already a failure; indexes are off
        for i, name in enumerate(self.spec.benchmarks):
            model = PRIMARY_MODELS[i % len(PRIMARY_MODELS)]
            task = next(
                t for t in self.tasks
                if t.benchmark == name and t.model is model
                and t.run_index == 0
            )
            cold = execute_task(task, self.programs[name], self.goldens[name])
            self.gate.check(
                cold == first.results[task.index],
                f"task {task.key}: cold re-execution disagrees with the "
                "fleet artifact",
            )

    def extra_layers(
        self, plain: Round, recorder: SpanRecorder, window: Window
    ) -> Dict[str, float]:
        out = fabric_metrics(recorder)
        out["exec.checkpoint_bytes"] = self.artifact_bytes
        start, end = window
        grants = [
            s for s in recorder.named("fabric.request", since=start)
            if "shard" in s.attrs and s.end <= end
        ]
        writes = [
            s.start for s in recorder.named("exec.checkpoint_write", since=start)
        ]
        if grants and writes:
            # Execution start (the first lease) to the first result.
            out["exec.first_result_s"] = (min(writes) - grants[0].end) / 1e9
        return out


def _stop(server, serving: threading.Thread) -> None:
    server.shutdown()
    server.server_close()
    serving.join()
