"""The fabric coordinator: shard planning, leases, merge-as-you-go."""

from __future__ import annotations

import json
import os
import random
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.exec.durability import (
    CheckpointError,
    CheckpointMerge,
    atomic_write_text,
    fold_checkpoint,
    manifest_identity,
)
from repro.exec.fabric.spec import CampaignSpec
from repro.exec.progress import ProgressEvent, ProgressObserver
from repro.exec.resilience import backoff_with_jitter


@dataclass(frozen=True)
class FabricPolicy:
    """How the coordinator leases, reassigns and quarantines shards.

    Attributes:
        lease_ttl_s: Seconds a lease lives without a heartbeat; a worker
            renews by heartbeating, a silent/dead worker's shard is
            reassigned after expiry.
        reassign_backoff_base_s: Initial delay before an expired/failed
            shard becomes leasable again; doubles per grant up to the cap,
            jittered (see :func:`~repro.exec.resilience.backoff_with_jitter`)
            so simultaneously-orphaned shards don't thundering-herd one
            recovering worker.
        reassign_backoff_max_s: Backoff ceiling.
        backoff_jitter: Jitter fraction handed to the shared helper.
        quarantine_after: Distinct workers a shard must fail on (lease
            expiry or explicit failure release — graceful drains don't
            count) before it is declared poison and quarantined. Mirrors
            task-level quarantine one level up.
        poll_s: Retry hint returned to idle workers when every shard is
            leased or backing off.
    """

    lease_ttl_s: float = 60.0
    reassign_backoff_base_s: float = 0.5
    reassign_backoff_max_s: float = 30.0
    backoff_jitter: float = 0.5
    quarantine_after: int = 3
    poll_s: float = 1.0

    def __post_init__(self) -> None:
        if self.lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be > 0, got {self.lease_ttl_s}")
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )


#: Shard lifecycle states.
PENDING, LEASED, DONE, QUARANTINED = "pending", "leased", "done", "quarantined"


@dataclass
class Shard:
    """One leased slice of the campaign's canonical task list."""

    index: int
    keys: Tuple[str, ...]
    state: str = PENDING
    lease_worker: Optional[str] = None
    lease_token: Optional[str] = None
    lease_deadline: float = 0.0
    grants: int = 0  # leases handed out so far (drives the backoff)
    failed_workers: Set[str] = field(default_factory=set)
    not_before: float = 0.0  # reassignment backoff gate (coordinator clock)
    last_failure: str = ""  # most recent charge reason, for diagnosis

    def lease_matches(self, worker: str, token: Optional[str]) -> bool:
        return (
            self.state == LEASED
            and self.lease_worker == worker
            and self.lease_token == token
        )

    def clear_lease(self) -> None:
        self.lease_worker = None
        self.lease_token = None
        self.lease_deadline = 0.0


class FabricError(RuntimeError):
    """A fabric request the coordinator cannot honor."""


class FabricCoordinator:
    """Plans shards, leases them out, merges what comes back.

    Thread-safe (every public method takes the instance lock), transport-
    agnostic (the HTTP layer and :class:`LocalTransport` both call straight
    into it) and restart-safe: ``state_dir`` holds ``spec.json`` and the
    continuously-merged ``merged.jsonl``; a coordinator constructed on a
    directory with both resumes exactly where the dead one stopped, minus
    the in-memory leases (workers re-request on their next heartbeat
    failure).

    ``clock`` is injectable for tests — leases and backoff gates live on
    whatever timeline it provides (``time.monotonic`` in production).
    """

    def __init__(
        self,
        state_dir: str,
        policy: Optional[FabricPolicy] = None,
        observers: Sequence[ProgressObserver] = (),
        clock: Callable[[], float] = time.monotonic,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.state_dir = state_dir
        self.policy = policy if policy is not None else FabricPolicy()
        self.observers = list(observers)
        self.clock = clock
        self.rng = rng
        self._lock = threading.RLock()
        self.spec: Optional[CampaignSpec] = None
        self.shards: List[Shard] = []
        self._key_index: Dict[str, int] = {}
        self._key_benchmark: Dict[str, str] = {}
        self._merged = CheckpointMerge()
        self._workers_seen: Dict[str, float] = {}
        self._started = clock()
        self._executed_since_start = 0
        os.makedirs(state_dir, exist_ok=True)
        self._recover()

    # -- paths ----------------------------------------------------------------

    @property
    def spec_path(self) -> str:
        return os.path.join(self.state_dir, "spec.json")

    @property
    def artifact_path(self) -> str:
        return os.path.join(self.state_dir, "merged.jsonl")

    # -- persistence / recovery -----------------------------------------------

    def _recover(self) -> None:
        """Reload a dead coordinator's campaign from its state directory."""
        if not os.path.exists(self.spec_path):
            return
        with open(self.spec_path) as handle:
            self._install_spec(CampaignSpec.from_dict(json.load(handle)))
        if os.path.exists(self.artifact_path):
            report, done, failures = fold_checkpoint(self.artifact_path)
            if report.manifest is None or report.interior_issues:
                raise CheckpointError(
                    f"{self.artifact_path}: merged artifact is damaged; "
                    "repair it with `repro checkpoint repair` before "
                    "restarting the coordinator"
                )
            self._merged.add(report.manifest, done, failures)
            self._refresh_shard_completion()

    def _install_spec(self, spec: CampaignSpec) -> None:
        self.spec = spec
        tasks = spec.tasks()
        self._key_index = {task.key: task.index for task in tasks}
        self._key_benchmark = {task.key: task.benchmark for task in tasks}
        keys = [task.key for task in tasks]
        self.shards = [
            Shard(index=i, keys=tuple(keys[start:start + spec.shard_size]))
            for i, start in enumerate(range(0, len(keys), spec.shard_size))
        ]

    # -- submit ---------------------------------------------------------------

    def submit(self, spec_data: Dict[str, object]) -> Dict[str, object]:
        """Install the campaign. Idempotent for an identical spec; a
        different spec is refused (one coordinator, one campaign — run a
        second coordinator on a second state dir for a second campaign)."""
        with self._lock:
            spec = CampaignSpec.from_dict(spec_data)
            spec.programs()  # validates benchmark names before accepting
            if self.spec is not None:
                if self.spec == spec:
                    return self.status()
                raise FabricError(
                    "a different campaign is already submitted; this "
                    "coordinator serves one campaign per state directory"
                )
            self._install_spec(spec)
            atomic_write_text(
                self.spec_path, json.dumps(spec.to_dict(), sort_keys=True)
            )
            self._started = self.clock()
            self._executed_since_start = 0
            return self.status()

    # -- lease lifecycle ------------------------------------------------------

    def _expire_leases(self) -> None:
        now = self.clock()
        for shard in self.shards:
            if shard.state == LEASED and now > shard.lease_deadline:
                # A silent worker is charged like a failed one: heartbeats
                # exist precisely so death and hang are indistinguishable.
                worker = shard.lease_worker
                shard.clear_lease()
                self._charge_failure(shard, worker, reason="lease expired")

    def _charge_failure(
        self, shard: Shard, worker: Optional[str], reason: str
    ) -> None:
        if worker is not None:
            shard.failed_workers.add(worker)
        shard.last_failure = reason
        if len(shard.failed_workers) >= self.policy.quarantine_after:
            shard.state = QUARANTINED
            return
        shard.state = PENDING
        shard.not_before = self.clock() + backoff_with_jitter(
            shard.grants,
            self.policy.reassign_backoff_base_s,
            self.policy.reassign_backoff_max_s,
            jitter=self.policy.backoff_jitter,
            rng=self.rng,
        )

    def _lease_payload(self, shard: Shard) -> Dict[str, object]:
        handled = self._handled_keys()
        return {
            "lease": {
                "shard": shard.index,
                "token": shard.lease_token,
                "keys": list(shard.keys),
                # Already-merged keys (a drained predecessor's partial
                # upload): the new worker skips them.
                "skip_keys": [k for k in shard.keys if k in handled],
                "ttl_s": self.policy.lease_ttl_s,
                "spec": self.spec.to_dict(),
            },
            "done": False,
            "retry_after_s": self.policy.poll_s,
        }

    def request(self, worker: str) -> Dict[str, object]:
        """Hand ``worker`` a lease on the lowest-index eligible shard.

        Idempotent per worker: if ``worker`` already holds a live lease
        (a retried request whose response was lost on the network, or a
        worker re-requesting after a healed partition), the *same* lease
        is returned with its deadline renewed — never a second shard. A
        worker executes one shard at a time, so a duplicate grant could
        only orphan the first shard until its lease expired, charging the
        worker for a failure that never happened.
        """
        with self._lock:
            if self.spec is None:
                return {"lease": None, "done": False,
                        "retry_after_s": self.policy.poll_s}
            self._expire_leases()
            self._workers_seen[worker] = self.clock()
            now = self.clock()
            for shard in self.shards:
                if shard.state == LEASED and shard.lease_worker == worker:
                    shard.lease_deadline = now + self.policy.lease_ttl_s
                    return self._lease_payload(shard)
            for shard in self.shards:
                if shard.state != PENDING or now < shard.not_before:
                    continue
                shard.state = LEASED
                shard.lease_worker = worker
                shard.lease_token = uuid.uuid4().hex
                shard.lease_deadline = now + self.policy.lease_ttl_s
                shard.grants += 1
                return self._lease_payload(shard)
            return {
                "lease": None,
                "done": self.campaign_done(),
                "retry_after_s": self.policy.poll_s,
            }

    def heartbeat(self, worker: str, shard_index: int, token: str) -> bool:
        """Renew a lease; False tells the worker its lease is gone and it
        should drain, upload what it has and re-request."""
        with self._lock:
            self._expire_leases()
            self._workers_seen[worker] = self.clock()
            if not 0 <= shard_index < len(self.shards):
                return False
            shard = self.shards[shard_index]
            if not shard.lease_matches(worker, token):
                return False
            shard.lease_deadline = self.clock() + self.policy.lease_ttl_s
            return True

    def release(
        self,
        worker: str,
        shard_index: int,
        token: Optional[str],
        outcome: str,
        reason: str = "",
    ) -> Dict[str, object]:
        """End a lease: ``complete`` / ``drain`` (graceful, uncharged) /
        ``failed`` (charged toward poison-shard quarantine). Idempotent:
        a duplicated release finds the lease already cleared and changes
        nothing."""
        with self._lock:
            self._expire_leases()
            if not 0 <= shard_index < len(self.shards):
                raise FabricError(f"unknown shard {shard_index}")
            shard = self.shards[shard_index]
            if shard.lease_matches(worker, token):
                shard.clear_lease()
                if shard.state != DONE:
                    if outcome == "failed":
                        self._charge_failure(shard, worker, reason)
                    elif shard.state == LEASED:
                        shard.state = PENDING  # drain/complete-but-short
            self._refresh_shard_completion()
            return {"ok": True, "state": shard.state}

    # -- upload + merge --------------------------------------------------------

    def upload(
        self,
        worker: str,
        shard_index: int,
        token: Optional[str],
        data: bytes,
        crc: int,
    ) -> Dict[str, object]:
        """Receive one (possibly partial) shard checkpoint and merge it.

        The transfer is CRC-verified on receipt and idempotent, so a worker
        simply re-POSTs the same bytes after any network failure — that is
        the whole resumability story, and it composes with lease loss:
        uploads are accepted *regardless* of lease validity, because a
        completed record is valid evidence whoever's lease it rode in on
        (the merge dedups overlap deterministically).
        """
        import zlib

        with self._lock:
            if self.spec is None:
                raise FabricError("no campaign submitted")
            if zlib.crc32(data) & 0xFFFFFFFF != crc:
                return {
                    "ok": False,
                    "reason": "transfer CRC mismatch; retry the upload",
                }
            self._workers_seen[worker] = self.clock()
            # The staging name is coordinator-chosen: worker ids arrive
            # over the network and must never reach the filesystem layer.
            staging = os.path.join(
                self.state_dir, f"upload-{uuid.uuid4().hex}.jsonl"
            )
            atomic_write_text(
                staging, data.decode("utf-8", errors="surrogateescape")
            )
            try:
                report, done, failures = fold_checkpoint(staging)
                if report.manifest is None:
                    return {"ok": False, "reason": "no readable manifest"}
                if report.interior_issues:
                    issues = "; ".join(
                        f"line {i.lineno}: {i.reason}"
                        for i in report.interior_issues
                    )
                    return {
                        "ok": False,
                        "reason": f"interior corruption ({issues})",
                    }
                identity = manifest_identity(report.manifest)
                expected = self.spec.expected_manifest_identity()
                if identity != expected:
                    return {
                        "ok": False,
                        "reason": (
                            f"manifest identity {identity} does not match "
                            f"this campaign ({expected}); shard refused"
                        ),
                    }
            finally:
                try:
                    os.unlink(staging)
                except OSError:
                    pass
            # A matching identity does not vouch for every key in the
            # file: keys outside this campaign's task list are dropped.
            new_done, new_failures = self._merged.add(
                report.manifest,
                {k: r for k, r in done.items() if k in self._key_index},
                {k: r for k, r in failures.items() if k in self._key_index},
            )
            self._executed_since_start += new_done
            self._refresh_shard_completion()
            self._merged.write(self.artifact_path)
            self._emit_progress(shard_index)
            return {
                "ok": True,
                "new_records": new_done + new_failures,
                "done_tasks": len(self._merged.done),
                "campaign_done": self.campaign_done(),
            }

    def _handled_keys(self) -> Set[str]:
        return set(self._merged.done) | set(self._merged.failures)

    def _refresh_shard_completion(self) -> None:
        handled = self._handled_keys()
        for shard in self.shards:
            if shard.state == QUARANTINED:
                continue
            if all(key in handled for key in shard.keys):
                shard.state = DONE
                shard.clear_lease()

    def _emit_progress(self, shard_index: int) -> None:
        if not self.observers or self.spec is None:
            return
        total = len(self._key_index)
        per_benchmark: Dict[str, List[int]] = {
            name: [0, 0] for name in self.spec.benchmarks
        }
        for key, bench in self._key_benchmark.items():
            per_benchmark[bench][1] += 1
            if key in self._merged.done or key in self._merged.failures:
                per_benchmark[bench][0] += 1
        elapsed = max(self.clock() - self._started, 1e-9)
        executed = self._executed_since_start
        throughput = executed / elapsed if executed else 0.0
        done = len(self._merged.done) + len(self._merged.failures)
        event = ProgressEvent(
            done=done,
            total=total,
            skipped=done - executed,
            elapsed_s=elapsed,
            throughput=throughput,
            eta_s=(total - done) / throughput if throughput > 0 else None,
            benchmark=None,
            per_benchmark={
                name: (d, t) for name, (d, t) in per_benchmark.items()
            },
            failed=len(self._merged.failures),
        )
        for observer in self.observers:
            observer(event)

    # -- status / fetch --------------------------------------------------------

    def campaign_done(self) -> bool:
        return bool(self.shards) and all(
            shard.state in (DONE, QUARANTINED) for shard in self.shards
        )

    def _autoscale_hints(self, now: float) -> Dict[str, object]:
        """Worker-fleet sizing advice, computable from coordinator state.

        A worker executes one shard at a time, so the shards that need a
        worker *right now* are the pending plus the leased ones; workers
        count as active while they've been seen within two lease TTLs
        (one missed heartbeat cycle of slack before they're written off).
        The suggested delta is simply runnable-shards minus active
        workers: positive means adding that many workers would all find
        work immediately, negative means that many are idle-polling (or,
        once the campaign is done, every remaining worker can go).
        """
        by_state: Dict[str, int] = {}
        for shard in self.shards:
            by_state[shard.state] = by_state.get(shard.state, 0) + 1
        horizon = 2.0 * self.policy.lease_ttl_s
        active = sum(
            1 for seen in self._workers_seen.values()
            if now - seen <= horizon
        )
        runnable = by_state.get(PENDING, 0) + by_state.get(LEASED, 0)
        return {
            "pending_shards": by_state.get(PENDING, 0),
            "leased_shards": by_state.get(LEASED, 0),
            "quarantined_shards": by_state.get(QUARANTINED, 0),
            "done_shards": by_state.get(DONE, 0),
            "active_workers": active,
            "suggested_worker_delta": runnable - active,
        }

    def status(self) -> Dict[str, object]:
        with self._lock:
            if self.spec is None:
                return {"state": "idle", "campaign": None}
            self._expire_leases()
            self._refresh_shard_completion()
            now = self.clock()
            by_state: Dict[str, int] = {}
            for shard in self.shards:
                by_state[shard.state] = by_state.get(shard.state, 0) + 1
            return {
                "state": "done" if self.campaign_done() else "running",
                "campaign": self.spec.to_dict(),
                "identity": self.spec.expected_manifest_identity(),
                "total_tasks": len(self._key_index),
                "done_tasks": len(self._merged.done),
                "quarantined_tasks": len(self._merged.failures),
                "shards": {
                    "total": len(self.shards),
                    **{s: by_state.get(s, 0)
                       for s in (PENDING, LEASED, DONE, QUARANTINED)},
                },
                "quarantined_shards": [
                    {"shard": s.index,
                     "failed_on": sorted(s.failed_workers),
                     "last_failure": s.last_failure}
                    for s in self.shards if s.state == QUARANTINED
                ],
                # Shards that have been charged but not yet quarantined:
                # the place to look when a campaign is bouncing.
                "failing_shards": [
                    {"shard": s.index,
                     "failed_on": sorted(s.failed_workers),
                     "last_failure": s.last_failure,
                     "retry_in_s": round(max(0.0, s.not_before - now), 3)}
                    for s in self.shards
                    if s.failed_workers and s.state in (PENDING, LEASED)
                ],
                "workers": {
                    worker: {"last_seen_s": round(now - seen, 3)}
                    for worker, seen in sorted(self._workers_seen.items())
                },
                "hints": self._autoscale_hints(now),
                "artifact": (
                    self.artifact_path
                    if os.path.exists(self.artifact_path)
                    else None
                ),
            }

    def fetch_bytes(self) -> bytes:
        with self._lock:
            if not os.path.exists(self.artifact_path):
                raise FabricError(
                    "nothing merged yet: no shard has been uploaded"
                )
            with open(self.artifact_path, "rb") as handle:
                return handle.read()
