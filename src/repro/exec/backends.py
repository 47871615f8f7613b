"""Pluggable campaign execution backends.

A backend consumes :class:`~repro.exec.tasks.InjectionTask` units and yields
``(task, result)`` pairs as they complete — in task order for the serial
backend, in completion order for the process pool. Because every task
carries its own derived seed, the pair stream is order-independent: the
engine re-sorts by task index, so all backends produce identical campaigns.

``ProcessPoolBackend`` ships the parent's :class:`ExecutionContext` to each
worker once (at pool start), golden runs and snapshot providers included:
the engine builds them before the backend starts, so no worker simulates a
golden run. Under ``fork`` the workers inherit them; under ``spawn`` or
``forkserver`` they are pickled once per worker.

Fault tolerance: every run goes through one policy-driven path per
backend, with a :class:`~repro.exec.resilience.FaultPolicy` deciding how
much to survive. A task that raises, exceeds its wall-clock budget, or
kills its worker process is retried (fresh pool slot each attempt) and
finally *quarantined*: yielded as a
:class:`~repro.exec.resilience.TaskFailure` in place of a result. The pool
backend additionally recovers from ``BrokenProcessPool``/lost futures by
respawning the pool with exponential backoff, re-running the tasks that
were in flight **one at a time** (so the next crash identifies the poison
task exactly), and — after repeated pool breakage with no progress —
degrading to in-process serial execution for the remaining tasks. The
default policy, :data:`FAIL_FAST`, retries nothing and is strict: the first
failure raises :class:`~repro.exec.resilience.FaultToleranceError`,
chained to the task's own exception.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

from repro.bugs.campaign import InjectionResult, run_golden
from repro.exec.durability import GracefulShutdown
from repro.exec.resilience import (
    AttemptTracker,
    FaultPolicy,
    FaultToleranceError,
    TaskFailure,
    crash_failure,
    failure_from_exception,
    timeout_failure,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.bugs.snapshot import SnapshotProvider
from repro.core.config import CoreConfig
from repro.core.cpu import RunResult
from repro.exec.tasks import (
    BatchedInjectionTask,
    InjectionTask,
    execute_batch,
    execute_task,
)
from repro.isa.program import Program

#: A pluggable task runner: ``runner(task, context) -> result``. Must be a
#: module-level function so the process pool can ship it to workers by
#: reference. ``None`` selects the built-in injection-task path.
TaskRunner = Callable[[object, "ExecutionContext"], object]

#: What a policy-enabled backend yields per task: the result, or the
#: structured account of why the task was given up on.
TaskOutcome = Union[InjectionResult, TaskFailure]

#: The default policy of both backends: no retries, and the first failure
#: raises :class:`FaultToleranceError` (library callers stop at once).
FAIL_FAST = FaultPolicy(max_task_retries=0, strict=True)

try:  # pragma: no cover - 3.8+ always has Protocol
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]


@dataclass
class ExecutionContext:
    """Everything a backend needs to run tasks: programs, config, goldens.

    ``runner`` makes the backends task-agnostic: when set (e.g. to
    :func:`repro.fuzz.engine.run_fuzz_task`), every task is dispatched to
    it; when None, tasks follow the classic injection path with cached
    golden runs.

    ``snapshot_interval`` > 0 enables warm-start injection: the context
    lazily builds one :class:`~repro.bugs.snapshot.SnapshotProvider` per
    benchmark (an instrumented golden run capturing machine snapshots every
    that-many cycles, plus the golden delta trace) and injections run
    differentially: they forecast their activation, restore just before
    it and stop at re-convergence (see :mod:`repro.bugs.differential`).
    The provider's golden doubles as the cached reference run, so the
    provider replaces — not adds to — the golden cost. Results are
    bit-identical for any interval, 0 (cold, from power-on) included.
    Pool workers receive the parent's context with its goldens and
    providers already built, so they only ever build what the parent has
    not.

    ``task_timeout_s`` is the cooperative per-task wall-clock budget: at
    each :meth:`execute` an absolute deadline is computed and threaded into
    the simulator, which checks it every ~1024 cycles and raises
    :class:`~repro.core.errors.DeadlineExceeded` on expiry. Custom runners
    read the current task's deadline from :attr:`deadline`.

    ``shutdown`` (parent-side only, never shipped to workers) is the
    SIGINT/SIGTERM latch: once it is requested the backends stop
    dispatching, drain or abandon inflight work under its deadline and
    return early — the engine then flushes the checkpoint so the run is
    resumable.
    """

    programs: Dict[str, Program]
    config: Optional[CoreConfig] = None
    runner: Optional[TaskRunner] = None
    snapshot_interval: int = 0
    task_timeout_s: Optional[float] = None
    shutdown: Optional[GracefulShutdown] = None
    _goldens: Dict[str, RunResult] = field(default_factory=dict)
    _snapshots: Dict[str, "SnapshotProvider"] = field(default_factory=dict)
    _deadline: Optional[float] = field(default=None, repr=False)

    @property
    def deadline(self) -> Optional[float]:
        """Absolute ``time.monotonic()`` budget of the task being executed
        (None when timeouts are off or outside :meth:`execute`)."""
        return self._deadline

    def golden(self, benchmark: str) -> RunResult:
        """The (cached) bug-free reference run for ``benchmark``."""
        if benchmark not in self._goldens:
            if self.snapshot_interval > 0:
                self._goldens[benchmark] = self.snapshots(benchmark).golden
            else:
                self._goldens[benchmark] = run_golden(
                    self.programs[benchmark], self.config
                )
        return self._goldens[benchmark]

    def snapshots(self, benchmark: str) -> Optional["SnapshotProvider"]:
        """The (cached) snapshot provider, or None when warm start is off."""
        if self.snapshot_interval <= 0:
            return None
        if benchmark not in self._snapshots:
            from repro.bugs.snapshot import SnapshotProvider

            self._snapshots[benchmark] = SnapshotProvider(
                self.programs[benchmark],
                self.snapshot_interval,
                config=self.config,
                differential=True,
            )
        return self._snapshots[benchmark]

    def execute(self, task: object) -> object:
        """Run one task through ``runner`` or the injection default.

        A :class:`~repro.exec.tasks.BatchedInjectionTask` is one unit of
        dispatch here — its wall-clock budget scales with the member count
        and the outcome is the per-member result list.
        """
        members = len(task.members) if isinstance(task, BatchedInjectionTask) else 1
        self._deadline = (
            time.monotonic() + self.task_timeout_s * members
            if self.task_timeout_s is not None
            else None
        )
        try:
            if self.runner is not None:
                return self.runner(task, self)
            golden = self.golden(task.benchmark)
            if isinstance(task, BatchedInjectionTask):
                return execute_batch(
                    task,
                    self.programs[task.benchmark],
                    golden,
                    self.config,
                    snapshots=self.snapshots(task.benchmark),
                    deadline=self._deadline,
                )
            return execute_task(
                task,
                self.programs[task.benchmark],
                golden,
                self.config,
                snapshots=self.snapshots(task.benchmark),
                deadline=self._deadline,
            )
        finally:
            self._deadline = None


def _shutdown_requested(context: ExecutionContext) -> bool:
    return context.shutdown is not None and context.shutdown.requested


class Backend(Protocol):
    """Executes tasks and yields their results in any order."""

    def run(
        self, tasks: Sequence[InjectionTask], context: ExecutionContext
    ) -> Iterator[Tuple[InjectionTask, TaskOutcome]]:
        ...  # pragma: no cover


def run_task_with_retries(
    task: object,
    context: ExecutionContext,
    policy: FaultPolicy,
    tracker: AttemptTracker,
) -> TaskOutcome:
    """In-process policy enforcement: retry, then quarantine (or raise).

    Shared by :class:`SerialBackend` and the pool backend's degraded mode.
    Honors attempts already charged against the task (e.g. worker-crash
    attempts from before a degradation), so an exhausted task is
    quarantined without being re-run in-process.
    """
    last_failure: Optional[TaskFailure] = None
    last_exc: Optional[Exception] = None
    while not tracker.exhausted(task.key):
        tracker.record_attempt(task.key)
        try:
            return context.execute(task)
        except Exception as exc:
            last_exc = exc
            last_failure = failure_from_exception(
                exc, tracker.attempts(task.key)
            )
    if last_failure is None:
        # Exhausted before any in-process attempt: every charge came from
        # worker crashes in the (now abandoned) pool phase.
        last_failure = crash_failure(tracker.attempts(task.key))
    if policy.strict:
        raise FaultToleranceError(
            f"task {task.key} failed after "
            f"{last_failure.attempts} attempt(s) "
            f"[{last_failure.kind}]: {last_failure.message}"
        ) from last_exc
    return last_failure


class SerialBackend:
    """In-process execution, one task at a time, in task order.

    Task exceptions and cooperative deadline expiries are retried then
    quarantined, or raised, as the :class:`FaultPolicy` says. (A task that
    kills the process outright cannot be survived in-process; that
    protection needs :class:`ProcessPoolBackend`.)
    """

    def __init__(self, policy: FaultPolicy = FAIL_FAST) -> None:
        self.policy = policy

    def run(
        self, tasks: Sequence[InjectionTask], context: ExecutionContext
    ) -> Iterator[Tuple[InjectionTask, TaskOutcome]]:
        context.task_timeout_s = self.policy.task_timeout_s
        tracker = AttemptTracker(self.policy)
        for task in tasks:
            if _shutdown_requested(context):
                return
            yield task, run_task_with_retries(
                task, context, self.policy, tracker
            )


# -- process-pool worker state ------------------------------------------------
#
# Set once per worker by the pool initializer to the parent's context, with
# the goldens and snapshot providers the parent built before the pool
# started.

_WORKER_CONTEXT: Optional[ExecutionContext] = None


def _worker_init(context: ExecutionContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _worker_execute(task: object) -> object:
    assert _WORKER_CONTEXT is not None
    return _WORKER_CONTEXT.execute(task)


@dataclass
class _Inflight:
    """Parent-side bookkeeping for one submitted task."""

    task: object
    submitted: float
    exec_started: Optional[float] = None  # first observed Future.running()
    probe: bool = False  # re-run alone after a crash (exact attribution)


class ProcessPoolBackend:
    """Parallel execution on a pool of worker processes.

    Tasks and results are plain picklable dataclasses; results are yielded
    in completion order. ``max_inflight`` bounds how many tasks are queued
    on the pool at once so paper-scale campaigns (tens of thousands of
    tasks) do not hold every pending future in memory.

    The :class:`FaultPolicy` sets how fault-tolerant it is — see the
    module docstring for the recovery model (retry + quarantine, watchdog,
    pool respawn with crash attribution by probing, serial degradation).
    """

    #: Poll period of the parent-side watchdog loop (seconds).
    WATCHDOG_TICK_S = 0.2

    def __init__(
        self,
        jobs: int,
        max_inflight: Optional[int] = None,
        policy: FaultPolicy = FAIL_FAST,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.jobs = jobs
        self.max_inflight = max_inflight if max_inflight is not None else jobs * 8
        self.policy = policy

    # -- pool lifecycle -------------------------------------------------------

    def _spawn(self, context: ExecutionContext) -> ProcessPoolExecutor:
        # The shutdown latch is parent-only; everything else, the built
        # goldens and providers included, goes to the workers as is.
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=_worker_init,
            initargs=(replace(context, shutdown=None),),
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Forcibly stop a pool (hung or broken workers won't exit politely)."""
        # _processes is None once the executor has begun shutting down.
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already-dead process
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executor internals
            pass

    # -- entry points ---------------------------------------------------------

    def run(
        self, tasks: Sequence[InjectionTask], context: ExecutionContext
    ) -> Iterator[Tuple[InjectionTask, TaskOutcome]]:
        policy = self.policy
        context.task_timeout_s = policy.task_timeout_s
        tracker = AttemptTracker(policy)
        queue: Deque[object] = deque(tasks)
        suspects: Deque[object] = deque()  # re-run alone, oldest first
        inflight: Dict[object, _Inflight] = {}  # future -> bookkeeping
        consecutive_breakages = 0
        probe_active = False
        degraded = False
        pool: Optional[ProcessPoolExecutor] = None

        def quarantine_or_requeue(
            task: object, failure: TaskFailure, requeue_to: Deque[object],
            front: bool = False, cause: Optional[BaseException] = None,
        ) -> Optional[Tuple[object, TaskFailure]]:
            """After a charged attempt: retry, or emit the quarantine pair."""
            if not tracker.exhausted(task.key):
                if front:
                    requeue_to.appendleft(task)
                else:
                    requeue_to.append(task)
                return None
            if policy.strict:
                raise FaultToleranceError(
                    f"task {task.key} failed after {failure.attempts} "
                    f"attempt(s) [{failure.kind}]: {failure.message}"
                ) from cause
            return task, failure

        try:
            pool = self._spawn(context)
            while queue or suspects or inflight:
                if degraded:
                    break
                if _shutdown_requested(context):
                    # Stop dispatching; collect whatever completes within
                    # the drain deadline (without charging or quarantining
                    # anything mid-shutdown), abandon the rest — the
                    # flushed checkpoint makes them resumable.
                    done, _ = wait(
                        inflight, timeout=context.shutdown.drain_remaining()
                    )
                    for future in done:
                        entry = inflight.pop(future)
                        try:
                            outcome = future.result()
                        except Exception:
                            continue
                        yield entry.task, outcome
                    return

                # -- submit ------------------------------------------------
                # Probe mode: after a crash, the tasks that were in flight
                # re-run strictly one at a time so the next crash names its
                # culprit. Normal mode: keep up to max_inflight queued.
                broken_on_submit = False
                if probe_active:
                    pass  # the single probe is already in flight
                elif suspects:
                    task = suspects.popleft()
                    try:
                        future = pool.submit(_worker_execute, task)
                    except BrokenProcessPool:
                        suspects.appendleft(task)
                        broken_on_submit = True
                    else:
                        inflight[future] = _Inflight(
                            task, time.monotonic(), probe=True
                        )
                        probe_active = True
                else:
                    while queue and len(inflight) < self.max_inflight:
                        task = queue.popleft()
                        try:
                            future = pool.submit(_worker_execute, task)
                        except BrokenProcessPool:
                            queue.appendleft(task)
                            broken_on_submit = True
                            break
                        inflight[future] = _Inflight(task, time.monotonic())

                if broken_on_submit:
                    consecutive_breakages += 1
                    for entry in inflight.values():
                        suspects.append(entry.task)
                    inflight.clear()
                    probe_active = False
                    pool = self._respawn_or_degrade(
                        pool, context, policy, consecutive_breakages
                    )
                    if pool is None:
                        degraded = True
                    continue
                if not inflight:
                    continue

                # -- wait + watchdog ---------------------------------------
                tick = (
                    self.WATCHDOG_TICK_S
                    if policy.hang_timeout_s is not None
                    else None
                )
                done, _ = wait(
                    inflight, timeout=tick, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                for future, entry in inflight.items():
                    if entry.exec_started is None and future.running():
                        entry.exec_started = now

                # -- collect completions -----------------------------------
                pool_broke = False
                for future in done:
                    entry = inflight.pop(future)
                    task = entry.task
                    try:
                        outcome = future.result()
                    except (BrokenProcessPool, CancelledError) as exc:
                        if entry.probe:
                            # Attributed: this exact task killed its worker.
                            attempts = tracker.record_attempt(task.key)
                            pair = quarantine_or_requeue(
                                task, crash_failure(attempts), suspects,
                                front=True, cause=exc,
                            )
                            if pair is not None:
                                yield pair
                        else:
                            suspects.append(task)
                        pool_broke = True
                    except Exception as exc:
                        # Worker-side exception (pickled and re-raised):
                        # DeadlineExceeded -> timeout, everything else ->
                        # exception. The worker survives; retry in place.
                        attempts = tracker.record_attempt(task.key)
                        pair = quarantine_or_requeue(
                            task,
                            failure_from_exception(exc, attempts),
                            queue,
                            cause=exc,
                        )
                        if pair is not None:
                            yield pair
                    else:
                        consecutive_breakages = 0
                        yield task, outcome
                    if entry.probe:
                        probe_active = False

                if pool_broke:
                    consecutive_breakages += 1
                    for entry in inflight.values():
                        suspects.append(entry.task)
                    inflight.clear()
                    probe_active = False
                    if queue or suspects:
                        pool = self._respawn_or_degrade(
                            pool, context, policy, consecutive_breakages
                        )
                        if pool is None:
                            degraded = True
                    continue

                # -- parent-side watchdog ----------------------------------
                hang = policy.hang_timeout_s
                if hang is None or not inflight:
                    continue
                hung = [
                    (future, entry)
                    for future, entry in inflight.items()
                    if entry.exec_started is not None
                    and now - entry.exec_started > hang
                ]
                if not hung:
                    continue
                # A deliberate kill, fully attributed: charge the hung
                # tasks, requeue the innocent bystanders uncharged, and
                # replace the pool (a hung worker never comes back).
                hung_futures = {future for future, _ in hung}
                for future, entry in list(inflight.items()):
                    task = entry.task
                    if future in hung_futures:
                        attempts = tracker.record_attempt(task.key)
                        pair = quarantine_or_requeue(
                            task, timeout_failure(attempts, hang), queue
                        )
                        if pair is not None:
                            yield pair
                    else:
                        queue.appendleft(task)
                inflight.clear()
                probe_active = False
                self._kill_pool(pool)
                pool = self._spawn(context)

            if degraded:
                remaining: List[object] = []
                for entry in inflight.values():
                    remaining.append(entry.task)
                inflight.clear()
                remaining.extend(suspects)
                remaining.extend(queue)
                suspects.clear()
                queue.clear()
                for task in remaining:
                    if _shutdown_requested(context):
                        return
                    yield task, run_task_with_retries(
                        task, context, policy, tracker
                    )
        finally:
            if pool is not None:
                self._kill_pool(pool)

    def _respawn_or_degrade(
        self,
        pool: ProcessPoolExecutor,
        context: ExecutionContext,
        policy: FaultPolicy,
        consecutive_breakages: int,
    ) -> Optional[ProcessPoolExecutor]:
        """Replace a broken pool, or return None to degrade to serial.

        Degradation (or, in strict / no-fallback mode, a hard
        :class:`FaultToleranceError`) triggers only after
        ``max_pool_respawns`` *consecutive* breakages with not a single
        completed task in between — a lone poison task completes innocents
        between its crashes and so never trips this.
        """
        self._kill_pool(pool)
        if consecutive_breakages > policy.max_pool_respawns:
            if policy.strict or not policy.fallback_serial:
                raise FaultToleranceError(
                    f"process pool broke {consecutive_breakages} times "
                    "in a row without completing a task; giving up "
                    "(strict/no-fallback mode)"
                )
            return None
        time.sleep(policy.backoff_s(consecutive_breakages))
        return self._spawn(context)
