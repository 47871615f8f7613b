"""Artifact integrity and interruption primitives for durable campaigns.

The paper's thesis is that silent corruption must be caught *instantly*;
this module applies the same checker mindset to our own persistence layer.
Everything host-level that threatens a multi-hour JSONL checkpoint lives
here, dependency-free so every layer can use it without cycles. Each
durability policy has exactly one implementation, shared by the campaign
and fuzz checkpoint families:

* **Record sealing** — every checkpoint record carries a ``crc`` (CRC32 of
  its canonical JSON payload) and the manifest an ``identity`` content
  hash, so bit rot and hand edits are detected at read time, with line
  numbers, instead of silently skewing figure statistics.
* **One writer** — :class:`SealedLogWriter` owns the whole append path:
  the single-writer lock, torn-tail truncation on resume, manifest first,
  then seal + flush (+ optional fsync) + lock heartbeat per record, and
  the ``REPRO_CHAOS_TORN_APPEND`` kill hook.
* **One fold** — :func:`fold_checkpoint` is the only reader: a streaming,
  O(1)-per-line walk with "a result supersedes a failure, a later record
  wins" dedup. It classifies every line (intact / torn tail / interior
  corruption) for ``repro checkpoint``, and in strict mode it is the
  resume loader (:func:`load_sealed`), raising on the first interior
  issue. A :class:`RecordFamily` names each format's manifest type and
  per-record decoders.
* **One merge** — :class:`CheckpointMerge` combines shard checkpoints of
  one campaign for both ``repro checkpoint merge`` and the fabric
  coordinator: goldens unioned in benchmark order, a result beats a
  failure, duplicates resolved by :func:`canonical_winner`.
* **One resume check** — :func:`check_same_campaign` refuses to append to
  a checkpoint of a different campaign, naming the first differing field.
* **Torn-tail truncation** — :func:`truncate_torn_tail` drops a partial
  final line without reading the whole file into memory.
* **Atomic writes** — :func:`atomic_write_text` writes via a temp file in
  the destination directory plus ``os.replace``, so a killed export never
  leaves a half-written figure input.
* **Single-writer locking** — :class:`CheckpointLock`, a sidecar lockfile
  (PID + heartbeat mtime) that makes a second concurrent run refuse to
  append to the same checkpoint, with stale-lock takeover once the
  heartbeat ages out (or the owning local process is provably dead).
* **Graceful shutdown** — :class:`GracefulShutdown`, a SIGINT/SIGTERM
  latch: the first signal requests an orderly drain under a deadline, the
  second hard-exits (the torn-tail path covers that).
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import signal
import socket
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    IO,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

#: Exit code of a CLI run stopped by a graceful SIGINT/SIGTERM drain —
#: EX_TEMPFAIL: the run is incomplete but resumable, not failed.
SHUTDOWN_EXIT_CODE = 75

#: Chaos hook (see :mod:`repro.exec.chaos`): when this variable names a
#: task key, the checkpoint writer emits half of that record's line and
#: hard-exits — a deterministic SIGKILL-mid-append.
ENV_TORN_APPEND = "REPRO_CHAOS_TORN_APPEND"

#: Exit status of a deliberate torn-append kill (matches chaos.EXIT_STATUS).
TORN_APPEND_EXIT_STATUS = 17


class CheckpointError(RuntimeError):
    """Raised on corrupt or mismatched checkpoint files."""


class CheckpointLockedError(CheckpointError):
    """Another live run holds the checkpoint's writer lock."""


# -- record sealing -----------------------------------------------------------


def canonical_payload(record: Dict[str, object]) -> bytes:
    """The canonical bytes a record's CRC covers: compact, sorted JSON of
    everything except the ``crc`` field itself."""
    payload = {k: v for k, v in record.items() if k != "crc"}
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def crc_of(record: Dict[str, object]) -> int:
    return zlib.crc32(canonical_payload(record)) & 0xFFFFFFFF


def seal_record(record: Dict[str, object]) -> Dict[str, object]:
    """Return ``record`` with its ``crc`` field (re)computed."""
    sealed = dict(record)
    sealed["crc"] = crc_of(record)
    return sealed


def record_crc_ok(record: Dict[str, object]) -> bool:
    """True when the record has no CRC (format v1) or the CRC matches."""
    crc = record.get("crc")
    return crc is None or crc == crc_of(record)


def identity_hash(fields: Dict[str, object]) -> str:
    """Content hash of a manifest's campaign-identity fields.

    Survives reserialization (repair, merge) that a raw-bytes CRC would
    not, so it pins *which campaign* a file belongs to, not which bytes.
    """
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


# -- record families ----------------------------------------------------------


@dataclass(frozen=True)
class RecordFamily:
    """One checkpoint format: its manifest type, the format versions it
    reads, how to load its manifest, and a decoder per data-record type.

    Decoders and ``load_manifest`` raise (``KeyError``, ``TypeError``,
    ``ValueError``) on a structurally wrong record whose JSON and CRC are
    fine — the only corruption class v1 files can reveal.
    """

    name: str  # "campaign" | "fuzz", for messages
    manifest_type: str
    versions: Tuple[int, ...]
    decoders: Mapping[str, Callable[[Dict[str, object]], object]]
    load_manifest: Callable[[Dict[str, object]], object] = dict

    def manifest_problem(self, manifest: Dict[str, object]) -> Optional[str]:
        """Why an intact manifest record cannot open this family's
        checkpoint, or None when it can."""
        kind = manifest.get("type")
        if kind != self.manifest_type:
            return f"not a {self.name} checkpoint (got {kind!r})"
        if manifest.get("version") not in self.versions:
            return (
                f"unsupported {self.name} checkpoint version "
                f"{manifest.get('version')!r}"
            )
        try:
            self.load_manifest(manifest)
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed manifest ({type(exc).__name__}: {exc})"
        return None


# -- the fold: streaming scan, dedup and strict loading -----------------------


@dataclass(frozen=True)
class LineIssue:
    """One damaged checkpoint line."""

    lineno: int  # 1-based
    reason: str  # human-readable, e.g. "unparsable JSON", "CRC mismatch"
    torn_tail: bool  # damage confined to a partial final line


@dataclass
class ScanReport:
    """What a full integrity scan of one checkpoint found."""

    path: str
    manifest: Optional[Dict[str, object]] = None
    records: int = 0  # intact data records (manifest excluded)
    by_type: Dict[str, int] = field(default_factory=dict)
    sealed: int = 0  # intact records that carried a (matching) CRC
    issues: List[LineIssue] = field(default_factory=list)

    @property
    def torn_tail(self) -> bool:
        return any(issue.torn_tail for issue in self.issues)

    @property
    def interior_issues(self) -> List[LineIssue]:
        return [issue for issue in self.issues if not issue.torn_tail]

    @property
    def clean(self) -> bool:
        return self.manifest is not None and not self.issues


def _walk_lines(path: str) -> Iterator[Tuple[int, bool, str]]:
    """Yield ``(lineno, is_last, line)`` streaming, without reading the
    whole file; blank lines are skipped (they carry no record)."""
    with open(path, "r") as handle:
        pending: Optional[Tuple[int, str]] = None
        for lineno, line in enumerate(handle, 1):
            if pending is not None:
                yield pending[0], False, pending[1]
            stripped = line.strip()
            pending = (lineno, stripped) if stripped else None
        if pending is not None:
            yield pending[0], True, pending[1]


def _check_line(
    line: str, manifest_seen: bool
) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
    """Parse + verify one checkpoint line: ``(record, None)`` when intact,
    ``(None, reason)`` when damaged."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None, "unparsable JSON"
    if not isinstance(record, dict):
        return None, "record is not a JSON object"
    if not record_crc_ok(record):
        return None, "CRC mismatch"
    kind = record.get("type")
    if not manifest_seen:
        if not isinstance(kind, str) or not kind.endswith("manifest"):
            return None, f"expected a manifest record, got type {kind!r}"
        identity = record.get("identity")
        if identity is not None:
            expected = manifest_identity(record)
            if identity != expected:
                return None, "manifest identity hash mismatch"
        return record, None
    if not isinstance(kind, str):
        return None, f"record has no type (got {kind!r})"
    return record, None


#: Manifest fields that never join the identity hash: the hash itself, the
#: per-line CRC, the format version (a v1 file repaired into v2 is still
#: the same campaign), and golden summaries (derived data, re-verified by
#: the engine against live golden runs on resume).
_NON_IDENTITY_FIELDS = ("crc", "identity", "version", "type", "goldens")


def manifest_identity(manifest: Dict[str, object]) -> str:
    """The expected ``identity`` hash for a manifest record."""
    fields = {
        key: value
        for key, value in manifest.items()
        if key not in _NON_IDENTITY_FIELDS
    }
    return identity_hash(fields)


#: Record types the fold understands, by role. ``done``-style records
#: supersede failure records for the same key (a retry that succeeded).
RESULT_TYPES = ("result", "eval")
FAILURE_TYPES = ("failure", "eval-failure")


def record_key(record: Dict[str, object]) -> object:
    """The dedup key of a data record: campaign records use ``key``, fuzz
    records use ``index`` (both families always carry ``index``)."""
    return record.get("key", record.get("index"))


def _decode(
    record: Dict[str, object], family: Optional[RecordFamily]
) -> Tuple[object, Optional[str]]:
    """``(decoded value, None)`` for a data record of a known type that
    decodes under ``family`` (the record itself when there is none), else
    ``(None, reason)``."""
    kind = record["type"]
    if (kind not in RESULT_TYPES and kind not in FAILURE_TYPES) or (
        family is not None and kind not in family.decoders
    ):
        return None, f"unexpected record type {kind!r}"
    if family is None:
        return record, None
    try:
        return family.decoders[kind](record), None
    except Exception as exc:
        return None, f"undecodable {kind} record ({type(exc).__name__})"


def fold_checkpoint(
    path: str,
    families: Sequence[RecordFamily] = (),
    keep_records: bool = True,
    strict: bool = False,
) -> Tuple[ScanReport, Dict[object, object], Dict[object, object]]:
    """The one checkpoint reader: scan *and* dedup into ``(report, done,
    failures)``. A result record supersedes a failure record for the same
    key, and a later record for a key replaces an earlier one.

    The manifest picks its family out of ``families`` by manifest type;
    every data record must then decode under it (with no matching family,
    only the record type is checked). Damaged lines land in the report.

    With ``strict=True`` (the resume loaders, see :func:`load_sealed`)
    the manifest must belong to ``families[0]``, the first interior issue
    raises :class:`CheckpointError` naming ``PATH:LINENO``, only a torn
    final line is tolerated, and ``done``/``failures`` hold the decoded
    values instead of the raw records.

    With ``keep_records=False`` the dicts map each key to ``None`` instead
    of the record, so a pure integrity scan of a multi-GB file stays O(keys)
    rather than O(file) in memory.
    """
    report = ScanReport(path=path)
    done: Dict[object, object] = {}
    failures: Dict[object, object] = {}
    family: Optional[RecordFamily] = None
    for lineno, is_last, line in _walk_lines(path):
        record, reason = _check_line(line, report.manifest is not None)
        value: object = record
        if reason is None and report.manifest is not None:
            value, reason = _decode(record, family)
        if reason is not None:
            torn = is_last and reason == "unparsable JSON"
            if strict and not torn:
                raise CheckpointError(
                    f"{path}:{lineno}: corrupt record ({reason})"
                )
            report.issues.append(LineIssue(lineno, reason, torn_tail=torn))
            continue
        if "crc" in record:
            report.sealed += 1
        if report.manifest is None:
            report.manifest = record
            if strict:
                problem = families[0].manifest_problem(record)
                if problem is not None:
                    raise CheckpointError(f"{path}: {problem}")
            family = next(
                (f for f in families if f.manifest_type == record["type"]),
                None,
            )
            continue
        report.records += 1
        kind = record["type"]
        report.by_type[kind] = report.by_type.get(kind, 0) + 1
        key = record_key(record)
        kept = (value if strict else record) if keep_records else None
        if kind in RESULT_TYPES:
            done[key] = kept
            failures.pop(key, None)
        elif key not in done:
            failures[key] = kept
    return report, done, failures


def scan_checkpoint(
    path: str, families: Sequence[RecordFamily] = ()
) -> ScanReport:
    """Full integrity scan: every line classified, nothing raised (see
    :func:`fold_checkpoint` for how ``families`` decode records)."""
    report, _, _ = fold_checkpoint(path, families, keep_records=False)
    return report


def load_sealed(
    path: str, family: RecordFamily
) -> Tuple[object, Dict[object, object], Dict[object, object]]:
    """Strict resume loader for one family's checkpoint: ``(manifest,
    key -> decoded result, key -> decoded failure)``.

    Tolerates a truncated final line (the signature of a killed run);
    raises :class:`CheckpointError` — with the line number — for any other
    malformation, including an interior CRC mismatch, and for a checkpoint
    of another family. Streams the file line by line.
    """
    if os.path.getsize(path) == 0:
        raise CheckpointError(f"{path}: empty {family.name} checkpoint file")
    report, done, failures = fold_checkpoint(path, (family,), strict=True)
    if report.manifest is None:
        raise CheckpointError(f"{path}: no complete records")
    return family.load_manifest(report.manifest), done, failures


def check_same_campaign(
    path: str, recorded: Mapping[str, object], expected: Mapping[str, object]
) -> None:
    """The resume check: raise :class:`CheckpointError` unless the
    checkpoint's ``recorded`` manifest fields equal every ``expected``
    field, naming the first that differs."""
    for key, want in expected.items():
        have = recorded.get(key)
        if have != want:
            raise CheckpointError(
                f"{path}: checkpoint {key}={have!r} does not match this "
                f"campaign's {key}={want!r}; refusing to resume"
            )


# -- the merge ----------------------------------------------------------------


def canonical_winner(
    a: Dict[str, object], b: Dict[str, object]
) -> Dict[str, object]:
    """Deterministic choice between two records claiming the same key and
    role (two results, or two failures): the lexicographically smaller
    canonical payload wins. Result records for one key are
    classification-identical by construction — only wall-clock metadata
    can differ — so any *stable* rule is correct; a content-based one
    makes shard merges independent of upload/argument arrival order."""
    return a if canonical_payload(a) <= canonical_payload(b) else b


class CheckpointMerge:
    """Shard checkpoints of one campaign, merged into one.

    The only merge: ``repro checkpoint merge`` and the fabric coordinator
    both feed it folded shards (raw records from :func:`fold_checkpoint`)
    and write it with :meth:`write`. The result is independent of the order
    shards arrive in: golden summaries are unioned in the manifest's
    benchmark order, a result anywhere beats a failure for its key, and
    duplicate records of one role resolve by :func:`canonical_winner`.
    Callers check manifest identity before :meth:`add`.
    """

    def __init__(self) -> None:
        self.manifest: Optional[Dict[str, object]] = None
        self.done: Dict[object, Dict[str, object]] = {}
        self.failures: Dict[object, Dict[str, object]] = {}

    def add(
        self,
        manifest: Dict[str, object],
        done: Mapping[object, Dict[str, object]],
        failures: Mapping[object, Dict[str, object]],
    ) -> Tuple[int, int]:
        """Fold one shard in; returns how many of its keys were new to the
        merged results and to the merged failures."""
        if self.manifest is None:
            self.manifest = dict(manifest)
        if "goldens" in self.manifest:
            # Each shard's manifest summarizes only the goldens it ran;
            # exports need the union. Goldens are outside the identity
            # hash, so this never changes which campaign the file claims.
            goldens = dict(self.manifest["goldens"])
            goldens.update(manifest.get("goldens") or {})
            self.manifest["goldens"] = {
                name: goldens[name]
                for name in self.manifest.get("benchmarks", ())
                if name in goldens
            }
        new_done = new_failures = 0
        for key, record in done.items():
            if key in self.done:
                record = canonical_winner(self.done[key], record)
            else:
                new_done += 1
            self.done[key] = record
            self.failures.pop(key, None)
        for key, record in failures.items():
            if key in self.done:
                continue
            if key in self.failures:
                record = canonical_winner(self.failures[key], record)
            else:
                new_failures += 1
            self.failures[key] = record
        return new_done, new_failures

    def write(self, path: str) -> None:
        """Atomically write the merged checkpoint (nothing added yet:
        nothing written)."""
        if self.manifest is not None:
            records = list(self.done.values()) + list(self.failures.values())
            write_sealed_checkpoint(path, self.manifest, records)


# -- torn-tail truncation -----------------------------------------------------


def truncate_torn_tail(path: str, block: int = 1 << 16) -> None:
    """Drop a partial final line (no trailing newline) left by a kill, so
    appended records start on a fresh line. Streams backwards block-wise —
    O(torn tail), not O(file) — so multi-GB checkpoints open instantly."""
    with open(path, "rb+") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        end = size
        while end > 0:
            start = max(0, end - block)
            handle.seek(start)
            chunk = handle.read(end - start)
            cut = chunk.rfind(b"\n")
            if cut != -1:
                handle.truncate(start + cut + 1)
                return
            end = start
        handle.truncate(0)


# -- atomic writes ------------------------------------------------------------


def atomic_write_text(path: str, text: str, newline: Optional[str] = None) -> None:
    """Write ``text`` to ``path`` atomically: temp file in the destination
    directory, flush + fsync, then ``os.replace``. A reader (or a kill)
    never observes a half-written file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", newline=newline) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_sealed_checkpoint(
    path: str,
    manifest: Dict[str, object],
    records: List[Dict[str, object]],
) -> None:
    """Write a fresh checkpoint atomically: manifest first, data records in
    canonical task order, everything (re-)sealed with a CRC and the
    manifest's identity hash recomputed. Used by ``repro checkpoint
    repair`` and :meth:`CheckpointMerge.write`."""
    manifest = dict(manifest)
    manifest["identity"] = manifest_identity(manifest)
    lines = [json.dumps(seal_record(manifest), sort_keys=True)]
    for record in sorted(records, key=lambda r: r.get("index", 0)):
        lines.append(json.dumps(seal_record(record), sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- single-writer locking ----------------------------------------------------


def lock_path_for(checkpoint_path: str) -> str:
    return checkpoint_path + ".lock"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError as exc:
        # EPERM: the process exists but belongs to someone else.
        return exc.errno == errno.EPERM
    return True


class CheckpointLock:
    """Sidecar single-writer lock for one checkpoint file.

    The lock is ``<checkpoint>.lock`` holding ``{"pid", "host",
    "created"}``; its mtime is the heartbeat, refreshed by the writer (at
    most once per :data:`HEARTBEAT_INTERVAL_S`) on every append. A second
    run refuses to start with an actionable message. Takeover happens when
    the heartbeat is older than ``stale_after_s``, or immediately when the
    owner recorded the *same host* and its PID is provably dead — PID
    liveness carries no signal across machines (the number may be live
    here and dead there, or vice versa), so cross-host locks and legacy
    locks without a recorded host are never taken over on PID evidence
    alone.
    """

    #: Minimum seconds between heartbeat mtime refreshes.
    HEARTBEAT_INTERVAL_S = 5.0

    #: Default heartbeat age after which a lock may be taken over.
    STALE_AFTER_S = 600.0

    def __init__(
        self, checkpoint_path: str, stale_after_s: float = STALE_AFTER_S
    ) -> None:
        self.path = lock_path_for(checkpoint_path)
        self.checkpoint_path = checkpoint_path
        self.stale_after_s = stale_after_s
        self._held = False
        self._last_beat = 0.0

    # -- lifecycle ------------------------------------------------------------

    def acquire(self) -> "CheckpointLock":
        payload = json.dumps(
            {
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "created": time.time(),
            },
            sort_keys=True,
        )
        for _ in range(2):  # second pass after a stale-lock removal
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                self._contend()
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write(payload + "\n")
            self._held = True
            self._last_beat = time.monotonic()
            return self
        raise CheckpointLockedError(
            f"{self.checkpoint_path}: could not acquire the writer lock "
            f"{self.path} (lost a takeover race to another run)"
        )

    def _contend(self) -> None:
        """An existing lock: take over if stale/dead, else refuse loudly."""
        try:
            with open(self.path) as handle:
                owner = json.loads(handle.read())
            age = time.time() - os.path.getmtime(self.path)
        except (OSError, json.JSONDecodeError):
            # Vanished (owner just released) or unreadable (half-written
            # by a killed owner): treat as stale and race for it.
            self._remove_quietly()
            return
        pid = owner.get("pid")
        host = owner.get("host")
        # PID liveness is only meaningful on the host that recorded the
        # lock: once checkpoints travel between machines (shard files on a
        # shared filesystem, a fabric worker picking up another host's
        # shard), the same PID number may belong to a live but unrelated
        # process here — or the owner may be perfectly alive over there.
        # So the dead-PID fast path requires an explicit, matching hostname
        # in the sidecar; locks from other hosts (or legacy locks that
        # never recorded one) can only age out via the heartbeat.
        same_host = isinstance(host, str) and host == socket.gethostname()
        dead = same_host and isinstance(pid, int) and not _pid_alive(pid)
        if dead or age > self.stale_after_s:
            self._remove_quietly()
            return
        raise CheckpointLockedError(
            f"{self.checkpoint_path}: another run (pid {pid} on "
            f"{host if host is not None else 'an unrecorded host'}, "
            f"heartbeat {age:.0f}s ago) holds the writer lock {self.path}; "
            f"two writers would interleave and corrupt the checkpoint. "
            f"If that run is dead, delete the lock file or retry after "
            f"{self.stale_after_s:.0f}s without a heartbeat."
        )

    def _remove_quietly(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def heartbeat(self) -> None:
        """Refresh the lock mtime (rate-limited); call on every append."""
        if not self._held:
            return
        now = time.monotonic()
        if now - self._last_beat < self.HEARTBEAT_INTERVAL_S:
            return
        self._last_beat = now
        try:
            os.utime(self.path, None)
        except OSError:  # lock dir vanished; nothing useful to do mid-run
            pass

    def release(self) -> None:
        if self._held:
            self._held = False
            self._remove_quietly()

    def __enter__(self) -> "CheckpointLock":
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


# -- the one appender ---------------------------------------------------------


class SealedLogWriter:
    """Appends CRC-sealed records to a JSONL checkpoint: the one append
    path for every checkpoint family.

    The sidecar :class:`CheckpointLock` is held for the writer's lifetime,
    so a concurrent second writer raises :class:`CheckpointLockedError`
    instead of interleaving appends. In fresh mode the ``manifest`` record
    is written first; in resume mode a torn final line is truncated and
    the file is opened for append (its manifest must already be present).
    Every record is flushed, so a *process* kill loses at most the line
    being written; with ``fsync=True`` every record is also ``os.fsync``'d,
    so the file additionally survives hard machine kills (power loss,
    kernel panic) at a per-record I/O cost. The lock's heartbeat refreshes
    on every append.
    """

    def __init__(
        self,
        path: str,
        manifest: Dict[str, object],
        resume: bool = False,
        fsync: bool = False,
    ) -> None:
        self.path = path
        self.fsync = fsync
        self._handle: Optional[IO[str]] = None
        self._lock: Optional[CheckpointLock] = CheckpointLock(path).acquire()
        try:
            if resume:
                truncate_torn_tail(path)
                self._handle = open(path, "a")
            else:
                self._handle = open(path, "w")
                self.append(manifest)
        except BaseException:
            self.close()
            raise

    def append(self, record: Dict[str, object]) -> None:
        assert self._handle is not None
        line = json.dumps(seal_record(record), sort_keys=True) + "\n"
        torn_key = os.environ.get(ENV_TORN_APPEND)
        if torn_key and record.get("key") == torn_key:
            # Chaos hook: a deterministic SIGKILL-mid-append — half the
            # line reaches the file, no newline, and the process dies with
            # the lock still on disk. Production runs never set this.
            self._handle.write(line[: len(line) // 2])
            self._handle.flush()
            os._exit(TORN_APPEND_EXIT_STATUS)
        self._handle.write(line)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._lock.heartbeat()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._lock is not None:
            self._lock.release()
            self._lock = None

    def __enter__(self) -> "SealedLogWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- graceful shutdown --------------------------------------------------------


class GracefulShutdown:
    """SIGINT/SIGTERM latch for an orderly stop-dispatch-and-drain.

    The first signal sets :attr:`requested` and starts the drain deadline:
    the execution layer stops submitting work, collects whatever finishes
    within :attr:`drain_s` seconds, flushes the checkpoint and returns. A
    second signal hard-exits with ``128 + signum`` — at worst that tears
    the final checkpoint line, which the torn-tail path already tolerates.

    Use as a context manager around the campaign (main thread only, where
    signal handlers can be installed); handlers are restored on exit.
    """

    def __init__(
        self,
        drain_s: float = 10.0,
        signals: Tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
    ) -> None:
        self.drain_s = drain_s
        self.signals = signals
        self.requested = False
        self.signum: Optional[int] = None
        self._deadline: Optional[float] = None
        self._previous: Dict[int, object] = {}

    def _handle(self, signum: int, frame: object) -> None:
        if self.requested:
            os._exit(128 + signum)  # second signal: hard exit, torn tail
        self.requested = True
        self.signum = signum
        self._deadline = time.monotonic() + self.drain_s

    def request(self, signum: int = signal.SIGTERM) -> None:
        """Programmatic trigger (tests, embedding without signals)."""
        self._handle(signum, None)

    def drain_remaining(self) -> float:
        """Seconds left to wait for inflight work (0 when not requested)."""
        if self._deadline is None:
            return 0.0
        return max(0.0, self._deadline - time.monotonic())

    @property
    def signal_name(self) -> str:
        if self.signum is None:
            return "shutdown"
        try:
            return signal.Signals(self.signum).name
        except ValueError:  # pragma: no cover - exotic signal number
            return f"signal {self.signum}"

    def __enter__(self) -> "GracefulShutdown":
        for signum in self.signals:
            self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()
