"""Shared plumbing: host-speed calibration, rounds, resource usage, gate."""

from __future__ import annotations

import resource
import statistics
import time
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")

#: Seconds :func:`slowdown`'s loop takes on the reference host (2 CPUs,
#: CPython 3.11) when no other tenant slows it down.
CALIBRATION_S = 0.05


class _Slot:
    __slots__ = ("tag", "value", "ready")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.value = 0
        self.ready = False

    def write(self, value: int) -> int:
        self.value = value
        self.ready = True
        return value


def _calibration_loop(n: int = 160_000) -> int:
    """Fixed interpreter work shaped like the simulator's: attribute reads
    and writes on slotted objects, method calls, list and dict updates."""
    slots = [_Slot(i) for i in range(64)]
    table = {}
    free = list(range(64))
    acc = 0
    for i in range(n):
        slot = slots[i & 63]
        if slot.ready and (slot.value ^ i) & 3 == 0:
            free.append(slot.tag)
        acc = (acc * 31 + slot.write(i ^ acc)) & 0xFFFFFFFF
        table[i & 255] = acc
        if free and i & 7 == 0:
            slots[free.pop()].ready = False
    return acc


def slowdown() -> float:
    """How much slower than the reference host this host runs right now.

    A shared host's other tenants slow everything on it, CPU time
    included, by up to half for minutes at a time. The benchmark times
    this fixed loop again and again while it works and divides the work's
    times by the mean ratio, so its figures read as on the reference host.
    """
    started = time.perf_counter()
    _calibration_loop()
    return (time.perf_counter() - started) / CALIBRATION_S


class HostClock:
    """Samples :func:`slowdown` before, during and after some work, and
    converts the work's host times into reference-host times.

    :meth:`observer` is a progress observer: called between units of
    work, it samples at most once per ``EVERY_S``, never after the last
    unit. :meth:`reference_s` leaves the samples' own time out.
    """

    #: Seconds of work between two samples taken by :meth:`observer`.
    EVERY_S = 0.3

    def __init__(self) -> None:
        #: (host start, host end, slowdown) of each sample, in time order.
        self.points: List[tuple] = []

    def sample(self, bursts: int = 1) -> None:
        for _ in range(bursts):
            started = time.perf_counter()
            factor = slowdown()
            self.points.append((started, time.perf_counter(), factor))

    def observer(self, event) -> None:
        if (
            event.done < event.total
            and time.perf_counter() - self.points[-1][1] >= self.EVERY_S
        ):
            self.sample()

    @property
    def factor(self) -> float:
        return statistics.mean(p[2] for p in self.points)

    def inside(self, start: float, end: float) -> float:
        """Host seconds the samples took within ``[start, end]``."""
        return sum(
            max(0.0, min(e, end) - max(s, start)) for s, e, _ in self.points
        )

    def reference_s(self, start: float, end: float) -> float:
        """Reference-host seconds of the work done in host interval
        ``[start, end]``: each stretch between two samples, less the
        samples, divided by the mean slowdown of the two."""
        total = 0.0
        for (_, gap_start, f0), (gap_end, _, f1) in zip(
            self.points, self.points[1:]
        ):
            work = min(gap_end, end) - max(gap_start, start)
            if work > 0:
                total += work / ((f0 + f1) / 2)
        return total


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def rounds(
    seconds: float,
    nominal_s: float,
    one_round: Callable[[int], T],
    min_rounds: int,
) -> List[T]:
    """Run ``one_round(r)`` for r = 0, 1, ... ``n - 1``.

    ``n`` is fixed by ``seconds``: about as many rounds as fit in it at
    ``nominal_s`` each (a round's time on the reference host), and at
    least ``min_rounds``. So one seed and one ``--seconds`` always mean
    the same work, on any host and any commit.
    """
    count = max(min_rounds, round(seconds / nominal_s))
    return [one_round(r) for r in range(count)]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class Gate:
    """Correctness failures found during a run; any one fails the run."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    @property
    def ok(self) -> bool:
        return not self.failures
