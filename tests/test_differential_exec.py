"""Equivalence tests for differential suffix execution (repro.bugs.differential).

Differential mode buys its speed from two places — activation forecasting
against the golden delta trace, and convergence-terminated suffixes — and
both are only admissible because the result is *bit-identical* to the
full-suffix run of the same spec. These tests pin that at three levels:

* every suite benchmark x primary bug model at the default design point,
* the full 24-cell design-point sweep (rename width x free-list
  discipline x recovery strategy) on one benchmark, asserting outcome
  classification, detector verdicts and latency stats cell by cell,
* whole engine campaigns: batched ``--jobs N`` differential execution
  stays bit-identical to ``--jobs 1`` serial and to the cold campaign.

``InjectionResult`` equality covers every simulation-outcome field —
outcome class, activation/manifestation/final cycles, persistence, the
IDLD/BV/Counter detection cycles and the end-of-test verdict; only the
throughput bookkeeping (``sim_wall_ns``, ``warm_start_cycles_skipped``,
``early_terminated_cycle``) is compare-excluded. So ``diff == full``
below is exactly the "identical classification, verdicts and latency"
claim of the acceptance criteria.
"""

import pickle
import random
from dataclasses import replace

import pytest

from repro.bugs.campaign import run_injection
from repro.bugs.injector import draw_spec
from repro.bugs.models import PRIMARY_MODELS
from repro.bugs.snapshot import SnapshotProvider
from repro.core.config import (
    FREE_LIST_DISCIPLINES,
    RECOVERY_STRATEGIES,
    CoreConfig,
)
from repro.exec.backends import (
    ExecutionContext,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.exec.engine import run_engine
from repro.exec.resilience import FaultPolicy
from repro.exec.tasks import execute_task, generate_tasks
from repro.workloads import WORKLOADS

SUITE = sorted(WORKLOADS)
SCALE = 0.4
INTERVAL = 20

#: The acceptance sweep: 4 widths x 2 disciplines x 3 recoveries = 24.
WIDTHS = (1, 2, 4, 8)
SWEEP_CELLS = [
    (width, discipline, recovery)
    for width in WIDTHS
    for discipline in FREE_LIST_DISCIPLINES
    for recovery in RECOVERY_STRATEGIES
]


@pytest.fixture(scope="module")
def programs():
    return {name: WORKLOADS[name](scale=SCALE) for name in SUITE}


# -- every benchmark x primary model, default design point --------------------


@pytest.mark.parametrize("name", SUITE)
def test_differential_equals_full_suffix(name, programs):
    """run_injection with a differential provider == full-suffix run, all
    models."""
    prog = programs[name]
    provider = SnapshotProvider(prog, INTERVAL, differential=True)
    golden = provider.golden
    rng = random.Random(0xD1FF)
    config = CoreConfig()
    for model in PRIMARY_MODELS:
        spec = draw_spec(model, rng, golden.cycles, config)
        full = run_injection(prog, golden, spec)
        diff = run_injection(prog, golden, spec, snapshots=provider)
        assert diff == full, f"{name}/{model.value} diverged"
        assert full.early_terminated_cycle is None


def test_differential_actually_terminates_early(programs):
    """The mode must engage, not silently fall back to full suffixes."""
    prog = programs["bitcount"]
    provider = SnapshotProvider(prog, INTERVAL, differential=True)
    golden = provider.golden
    rng = random.Random(3)
    config = CoreConfig()
    early = 0
    for trial in range(12):
        for model in PRIMARY_MODELS:
            spec = draw_spec(model, rng, golden.cycles, config)
            diff = run_injection(prog, golden, spec, snapshots=provider)
            if diff.early_terminated_cycle is not None:
                early += 1
    assert early > 0, "no run ever terminated early or skipped via forecast"


# -- the 24-cell design-point sweep -------------------------------------------


@pytest.mark.parametrize(
    "width,discipline,recovery",
    SWEEP_CELLS,
    ids=[f"w{w}-{d}-{r}" for w, d, r in SWEEP_CELLS],
)
def test_differential_equals_full_across_sweep_cells(width, discipline, recovery):
    """All 24 (width, discipline, recovery) cells: classification, detector
    verdicts and latency stats identical between differential and full."""
    config = CoreConfig(
        width=width,
        free_list_discipline=discipline,
        recovery_strategy=recovery,
    )
    prog = WORKLOADS["crc32"](scale=0.25)
    provider = SnapshotProvider(prog, INTERVAL, config=config, differential=True)
    golden = provider.golden
    rng = random.Random(width * 1000 + hash((discipline, recovery)) % 997)
    for model in PRIMARY_MODELS:
        spec = draw_spec(model, rng, golden.cycles, config)
        full = run_injection(prog, golden, spec, config=config)
        diff = run_injection(
            prog,
            golden,
            spec,
            config=config,
            snapshots=provider,
        )
        cell = f"w{width}/{discipline}/{recovery}/{model.value}"
        assert diff.outcome == full.outcome, cell
        assert (diff.idld_cycle, diff.bv_cycle, diff.counter_cycle) == (
            full.idld_cycle,
            full.bv_cycle,
            full.counter_cycle,
        ), cell
        assert diff.eot_detected == full.eot_detected, cell
        assert (
            diff.activation_cycle,
            diff.manifestation_cycle,
            diff.final_cycle,
            diff.persists,
        ) == (
            full.activation_cycle,
            full.manifestation_cycle,
            full.final_cycle,
            full.persists,
        ), cell
        assert diff == full, cell  # belt and braces: every compared field


# -- engine level: batching and worker count ----------------------------------


def test_engine_batched_jobs_identical_to_serial(programs):
    """Differential + batched + pooled campaigns == cold campaigns."""
    subset = {name: programs[name] for name in ("bitcount", "crc32")}
    base = run_engine(subset, 2, seed=9, snapshot_interval=0)

    serial_diff = run_engine(
        subset,
        2,
        seed=9,
        snapshot_interval=INTERVAL,
        batch_size=1,
    )
    assert serial_diff.results == base.results

    batched_serial = run_engine(
        subset,
        2,
        seed=9,
        snapshot_interval=INTERVAL,
        batch_size=4,
        backend=SerialBackend(),
    )
    assert batched_serial.results == base.results

    batched_pooled = run_engine(
        subset,
        2,
        seed=9,
        snapshot_interval=INTERVAL,
        batch_size=4,
        backend=ProcessPoolBackend(jobs=2),
    )
    assert batched_pooled.results == base.results


def test_campaign_providers_are_differential(programs):
    """Warm-started campaigns always get a delta trace: the provider, not a
    flag, decides the differential path, and ``snapshot_interval=0`` is
    the only other campaign path (the cold reference)."""
    context = ExecutionContext(
        programs={"bitcount": programs["bitcount"]},
        snapshot_interval=INTERVAL,
    )
    assert context.snapshots("bitcount").delta is not None
    with pytest.raises(ValueError, match="snapshot_interval=0"):
        run_engine(
            {"bitcount": programs["bitcount"]}, 1, differential=False
        )


# -- pool workers start from the parent's providers ---------------------------

POOL_BENCHES = ("bitcount", "sha")


def _worker_providers(task, context):
    """Task runner: the benchmarks whose provider the worker already holds
    as the task starts."""
    return sorted(context._snapshots)


def _built_context(programs):
    context = ExecutionContext(
        programs={name: programs[name] for name in POOL_BENCHES},
        snapshot_interval=INTERVAL,
    )
    for name in POOL_BENCHES:
        context.golden(name)
    return context


@pytest.mark.parametrize(
    "policy", [None, FaultPolicy()], ids=["fail-fast", "resilient"]
)
def test_pool_workers_receive_parent_providers(programs, policy):
    """Every task, each worker's first included, sees every provider the
    parent built: no worker rebuilds a golden run."""
    context = replace(_built_context(programs), runner=_worker_providers)
    tasks = generate_tasks(list(POOL_BENCHES), 2, PRIMARY_MODELS, 5)
    outcomes = list(ProcessPoolBackend(2, policy=policy).run(tasks, context))
    assert len(outcomes) == len(tasks)
    for task, seen in outcomes:
        assert seen == sorted(POOL_BENCHES), task.key


def test_worker_context_pickles_with_providers(programs):
    """The spawn/forkserver path: the context a worker unpickles keeps each
    golden shared with its provider and runs every model identically."""
    context = _built_context(programs)
    copy = pickle.loads(pickle.dumps(replace(context, shutdown=None)))
    tasks = generate_tasks(list(POOL_BENCHES), 1, PRIMARY_MODELS, 11)
    for name in POOL_BENCHES:
        assert copy._goldens[name] is copy._snapshots[name].golden
    for task in tasks:
        results = [
            execute_task(
                task,
                ctx.programs[task.benchmark],
                ctx.golden(task.benchmark),
                snapshots=ctx.snapshots(task.benchmark),
            )
            for ctx in (context, copy)
        ]
        assert results[0] == results[1], task.key
