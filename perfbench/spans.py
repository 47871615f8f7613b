"""In-memory span recorder and call-site wrapping for the traced run.

A span is one timed call into a layer: name, start, end, the span that
was open on the same thread when it began (its parent) and the task key
of the injection it belongs to. A span opened inside another inherits
that one's key, so every span of one injection shares the task's key.

Spans live in memory and are written out once, when the run ends.
Forked pool workers inherit the wrappers but not the parent's memory, so
a worker appends each finished span as one JSON line to a per-process
file under the run's scratch directory; the parent folds those files in
after the pool has shut down.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "key", "attrs")

    def __init__(self, id, name, start, parent, key):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.key = key
        self.attrs: Dict[str, object] = {}

    @property
    def ns(self) -> int:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "key": self.key,
            **({"attrs": self.attrs} if self.attrs else {}),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        span = cls(
            data["id"], data["name"], data["start_ns"], data["parent"],
            data["key"],
        )
        span.end = data["end_ns"]
        span.attrs = data.get("attrs", {})
        return span


class SpanRecorder:
    """Collects the spans of one traced run.

    ``sink_dir`` is where forked children write their spans; the parent
    reads it back with :meth:`collect_children`.
    """

    def __init__(self, sink_dir: str) -> None:
        self.sink_dir = sink_dir
        self.spans: List[Span] = []
        #: pid -> last stage-profile snapshot a child reported.
        self.child_stage: Dict[int, Dict[str, int]] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._owner = os.getpid()
        self._sink = None
        self._sink_pid: Optional[int] = None
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, key: Optional[str] = None) -> Span:
        stack = self._stack()
        top = stack[-1] if stack else None
        span = Span(
            f"{os.getpid()}:{next(self._ids)}",
            name,
            time.perf_counter_ns(),
            top.id if top is not None else None,
            key if key is not None else (top.key if top is not None else None),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if os.getpid() == self._owner:
            with self._lock:
                self.spans.append(span)
        else:
            self._emit({"span": span.to_dict()})

    def report_stage(self, stage: Optional[Dict[str, int]]) -> None:
        """A child's cumulative stage profile (the parent keeps the last)."""
        if stage is not None and os.getpid() != self._owner:
            self._emit({"stage": dict(stage)})

    def _emit(self, record: Dict[str, object]) -> None:
        pid = os.getpid()
        if self._sink_pid != pid:
            # Line-buffered, so every record reaches the file even though
            # pool workers leave through os._exit without a flush.
            self._sink = open(
                os.path.join(self.sink_dir, f"spans-{pid}.jsonl"),
                "a",
                buffering=1,
            )
            self._sink_pid = pid
        self._sink.write(json.dumps(record) + "\n")

    def wrap(
        self,
        fn: Callable,
        name: str,
        key_of: Optional[Callable[..., Optional[str]]] = None,
        after: Optional[Callable[[Span, tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``; ``key_of(*args)`` names the task,
        ``after(span, args, result)`` may annotate the finished span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, key_of(*args) if key_of else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if after is not None:
                    after(span, args, result)
                self.close(span)

        return traced

    # -- reading --------------------------------------------------------------

    def collect_children(self) -> None:
        """Fold in what forked workers wrote, then remove their files."""
        for entry in sorted(os.listdir(self.sink_dir)):
            if not (entry.startswith("spans-") and entry.endswith(".jsonl")):
                continue
            pid = int(entry[len("spans-"):-len(".jsonl")])
            path = os.path.join(self.sink_dir, entry)
            with open(path) as handle:
                for line in handle:
                    if not line.endswith("\n"):
                        continue  # a worker killed mid-line
                    record = json.loads(line)
                    if "span" in record:
                        self.spans.append(Span.from_dict(record["span"]))
                    else:
                        self.child_stage[pid] = record["stage"]
            os.unlink(path)

    def named(self, name: str, since: int = 0) -> List[Span]:
        return [s for s in self.spans if s.name == name and s.start >= since]

    def self_times(self) -> Dict[str, Tuple[int, int, int]]:
        """name -> (calls, total ns, self ns).

        Self time is a span's duration minus the part its child spans
        cover (children of one span never overlap: they run on its thread).
        """
        child_ns: Dict[str, int] = {}
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] = child_ns.get(span.parent, 0) + span.ns
        out: Dict[str, Tuple[int, int, int]] = {}
        for span in self.spans:
            calls, total, own = out.get(span.name, (0, 0, 0))
            out[span.name] = (
                calls + 1,
                total + span.ns,
                own + span.ns - child_ns.get(span.id, 0),
            )
        return out

    def write(self, path: str, extra: Dict[str, object]) -> None:
        data = dict(extra)
        data["self_times"] = {
            name: {"calls": c, "total_ns": t, "self_ns": s}
            for name, (c, t, s) in sorted(self.self_times().items())
        }
        data["spans"] = [s.to_dict() for s in self.spans]
        with open(path, "w") as handle:
            json.dump(data, handle)


class Patches:
    """Replace attributes for the traced phase and restore them after."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, recorder: SpanRecorder, owner, attr, name, **kw) -> None:
        self.set(owner, attr, recorder.wrap(getattr(owner, attr), name, **kw))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def mean_ns(spans: List[Span]) -> float:
    return sum(s.ns for s in spans) / len(spans) if spans else 0.0
