"""Crash-safe multi-client sweep service: job queue, leases, single-flight.

The ROADMAP's service north star is many concurrent clients submitting
overlapping figure grids against one shared run cache, served mostly from
cache, surviving client crashes.  This module is that front-end: a
persistent on-disk job queue plus a lease protocol layered over the
supervised :class:`~repro.experiments.sweeps.SweepEngine`, so N processes
(posing as machines sharing a filesystem) de-duplicate work by run
signature with zero torn reads and exactly one execution per unique spec.

Design — everything is plain files under one root (the run-cache
directory), no daemon or socket required::

    <root>/                      shared ResultStore (one <signature>.json per run)
    <root>/sweep_journal.<client>.jsonl   per-client crash-safe journals
    <root>/queue/<signature>.json         one pending job per unique spec
    <root>/queue/failed/<signature>.json  quarantined jobs (FailureRecord)
    <root>/leases/<signature>.lease       at most one executor per spec

**Idempotent submission.**  A job file is keyed by the spec's content
signature and atomically published (fsync'd temp + ``os.replace``);
re-submitting an already-queued spec is a counted dedupe hit, and a spec
whose result is already in the store is never queued at all.

**Lease-based single-flight.**  Before executing a job, a client must win
``<signature>.lease``: it writes and fsyncs the owner record to a private
temp file, then hard-links it to the lease path (``os.link``).  The link
fails if the path exists, so the filesystem's atomic link is the mutual
exclusion primitive and a lease is never visible without its content.
The lease records the owner pid and client id; the owner refreshes the
file's mtime from a heartbeat thread while training.  A lease is *stale*
when its owner pid is dead, its mtime is older than ``stale_after``, or its
content is unparseable (torn write); reclamation is serialized by an atomic
rename to a tombstone, so exactly one of the contending clients reclaims
it.  After winning a lease the client re-checks the store (another client
may have published while we waited) before executing — the single-flight
rule.

**Failure routing.**  Per the :mod:`repro.experiments.failures` contract,
every error path wraps exceptions in :class:`FailureRecord` via
:func:`classify_failure`: engine-quarantined specs and service-level errors
both land in ``queue/failed/`` with their remote tracebacks, visible to any
client through ``status`` / ``drain`` (which render
:func:`format_failure_report`).

CLI (see :mod:`repro.experiments.__main__` for the figure runner)::

    python -m repro.experiments submit fig4 --epochs 1   # queue a grid
    python -m repro.experiments serve --idle-exit 5      # execute until idle
    python -m repro.experiments drain                    # execute until empty
    python -m repro.experiments status                   # counters + failures
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.failures import (
    FailureKind,
    FailureRecord,
    FaultInjector,
    RetryPolicy,
    format_failure_report,
)
from repro.experiments.sweeps import (
    SIGNATURE_VERSION,
    ResultStore,
    RunSpec,
    SweepEngine,
    SweepJournal,
    SweepPlan,
    _atomic_write,
    default_journal_path,
    default_store_dir,
)

__all__ = [
    "JobQueue",
    "Lease",
    "LeaseManager",
    "SweepService",
    "cli_main",
    "run_client",
]

#: Default staleness threshold (seconds without a heartbeat before other
#: clients may reclaim a lease).  Generous for real training runs; tests
#: and chaos benchmarks pass much smaller values.
DEFAULT_STALE_AFTER = 60.0

#: Subcommands this module owns (dispatched from ``python -m
#: repro.experiments``).
SERVICE_COMMANDS = ("serve", "submit", "status", "drain")


# --------------------------------------------------------------------------- #
# Leases
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Lease:
    """A won claim on one spec signature (held by this process)."""

    signature: str
    path: Path
    pid: int
    client_id: str


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a same-machine pid."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # EPERM and friends: the pid exists but belongs to someone else.
        return True
    return True


class LeaseManager:
    """At-most-one-executor-per-signature via atomic lease files.

    The exclusion primitive is ``os.link`` of a fsync'd private temp file
    holding the owner record — it either publishes the complete lease or
    raises, atomically, on any local filesystem.  (Creating the lease
    empty and writing it afterwards let a contender read it half-written,
    count it corrupt and reclaim a live lease.)  Staleness (dead owner
    pid, mtime older than ``stale_after``, or unparseable content) makes a
    lease reclaimable;
    the reclaim itself is serialized by ``os.rename`` to a per-reclaimer
    tombstone, so when several clients notice the same stale lease exactly
    one wins the rename and the rest retry the create.

    Same-machine assumption: pid liveness is probed with ``os.kill(pid,
    0)``, so the dead-owner fast path only works for clients sharing a
    machine; cross-machine deployments rely on the mtime threshold alone.
    """

    def __init__(
        self,
        directory: Path,
        client_id: str,
        stale_after: float = DEFAULT_STALE_AFTER,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.directory = Path(directory)
        self.client_id = client_id
        self.stale_after = float(stale_after)
        self.injector = injector
        self.acquired = 0
        self.reclaimed = 0
        self.contended = 0
        self.released = 0
        self.lost = 0
        self.corrupt = 0
        self.heartbeats = 0

    # ------------------------------------------------------------------ #
    def _lease_path(self, signature: str) -> Path:
        return self.directory / f"{signature}.lease"

    def _is_stale(self, path: Path) -> bool:
        try:
            payload = json.loads(path.read_text())
            pid = int(payload["pid"])
        except FileNotFoundError:
            # Released/reclaimed between our create attempt and this read;
            # report stale so the caller loops back to another create try.
            return True
        except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError):
            # Torn or garbage lease (e.g. the corrupt_lease_for chaos hook):
            # unreadable means unownable — reclaimable, never a crash.
            self.corrupt += 1
            return True
        if not _pid_alive(pid):
            return True
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return True
        return age > self.stale_after

    def _try_reclaim(self, path: Path) -> bool:
        """Serialize reclamation: exactly one renamer wins the tombstone."""
        tombstone = path.with_name(f"{path.name}.reclaim.{os.getpid()}")
        try:
            os.rename(path, tombstone)
        except OSError:
            return False
        try:
            tombstone.unlink()
        except OSError:
            pass
        self.reclaimed += 1
        return True

    def cleanup_tombstones(self) -> int:
        """Drop tombstones orphaned by a reclaimer that crashed mid-reclaim."""
        removed = 0
        for path in self.directory.glob("*.reclaim.*"):
            try:
                if time.time() - path.stat().st_mtime > self.stale_after:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
        return removed

    def _publish(self, path: Path, signature: str) -> bool:
        """Create the lease together with its content; ``False`` if it exists."""
        fd, temp = tempfile.mkstemp(dir=self.directory, prefix=f"{path.name}.tmp.")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(
                    {
                        "pid": os.getpid(),
                        "client_id": self.client_id,
                        "signature": signature,
                    },
                    handle,
                )
                handle.flush()
                os.fsync(handle.fileno())
            os.link(temp, path)
        except FileExistsError:
            return False
        finally:
            os.unlink(temp)
        return True

    # ------------------------------------------------------------------ #
    def acquire(self, signature: str) -> Optional[Lease]:
        """Try to win the lease on ``signature``; ``None`` when contended.

        Losing is not an error — the job is being executed by a live
        client; the caller skips it and the eventual result is served from
        the shared store.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._lease_path(signature)
        for _ in range(3):
            if not self._publish(path, signature):
                if self._is_stale(path):
                    # Reclaim (or observe someone else reclaiming) and retry
                    # the atomic create.
                    self._try_reclaim(path)
                    continue
                self.contended += 1
                return None
            self.acquired += 1
            lease = Lease(signature, path, os.getpid(), self.client_id)
            if self.injector is not None:
                self.injector.on_lease_acquired(signature, path)
            return lease
        self.contended += 1
        return None

    def _owns(self, lease: Lease) -> bool:
        try:
            payload = json.loads(lease.path.read_text())
        except (OSError, json.JSONDecodeError, ValueError):
            return False
        return (
            payload.get("pid") == lease.pid
            and payload.get("client_id") == lease.client_id
        )

    def heartbeat(self, lease: Lease) -> bool:
        """Refresh the lease mtime; ``False`` when the lease was lost."""
        if self.injector is not None and self.injector.heartbeat_frozen(
            lease.signature
        ):
            return True  # livelock chaos: stay "running" but go mtime-silent
        if not self._owns(lease):
            self.lost += 1
            return False
        try:
            os.utime(lease.path)
        except OSError:
            self.lost += 1
            return False
        self.heartbeats += 1
        return True

    def release(self, lease: Lease) -> bool:
        """Drop an owned lease; a lease lost to reclamation is counted."""
        if not self._owns(lease):
            self.lost += 1
            return False
        try:
            lease.path.unlink()
        except OSError:
            self.lost += 1
            return False
        self.released += 1
        return True

    def active(self) -> List[str]:
        """Signatures currently under lease (any owner)."""
        return sorted(
            path.name[: -len(".lease")]
            for path in self.directory.glob("*.lease")
        )

    def stats(self) -> Dict[str, float]:
        return {
            "lease_acquired": float(self.acquired),
            "lease_reclaimed": float(self.reclaimed),
            "lease_contended": float(self.contended),
            "lease_released": float(self.released),
            "lease_lost": float(self.lost),
            "lease_corrupt": float(self.corrupt),
            "lease_heartbeats": float(self.heartbeats),
        }


class _HeartbeatPump:
    """Daemon thread refreshing a lease's mtime while training blocks."""

    def __init__(self, manager: LeaseManager, lease: Lease, interval: float) -> None:
        self.manager = manager
        self.lease = lease
        self.interval = max(0.01, float(interval))
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "_HeartbeatPump":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if not self.manager.heartbeat(self.lease):
                return

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


# --------------------------------------------------------------------------- #
# Job queue
# --------------------------------------------------------------------------- #
class JobQueue:
    """Persistent on-disk job queue, one atomically-published file per spec.

    Submission is idempotent by construction: the job filename *is* the
    run signature, so concurrent submitters of the same spec converge on
    one file (re-submission is a counted ``queue_dedupe_hits``).  Readers
    tolerate concurrent completion (``FileNotFoundError`` while listing)
    and torn/alien files (skipped, counted ``queue_unreadable``).  A
    failed job moves to ``failed/<signature>.json`` as a serialized
    :class:`FailureRecord` including the remote traceback, so any client's
    ``status`` can render the cross-client failure report.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.failed_directory = self.directory / "failed"
        self.submitted = 0
        self.dedupe_hits = 0
        self.completed = 0
        self.failed = 0
        self.unreadable = 0

    # ------------------------------------------------------------------ #
    def _job_path(self, signature: str) -> Path:
        return self.directory / f"{signature}.json"

    def submit_spec(self, spec: RunSpec) -> bool:
        """Queue one spec; ``False`` (dedupe hit) when already queued."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._job_path(spec.signature())
        if path.exists():
            self.dedupe_hits += 1
            return False
        # Two clients can both pass the exists() check; both then publish
        # byte-identical payloads (the filename is the content signature),
        # so the duplicate os.replace is harmless.
        _atomic_write(
            path,
            json.dumps(
                {
                    "signature": spec.signature(),
                    "signature_version": SIGNATURE_VERSION,
                    "spec": spec.to_dict(),
                },
                sort_keys=True,
            )
            + "\n",
        )
        self.submitted += 1
        return True

    def pending(self) -> List[RunSpec]:
        """Queued specs, oldest job file first (FIFO-ish fairness)."""
        entries = []
        for path in self.directory.glob("*.json"):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            entries.append((mtime, path.name, path))
        specs: List[RunSpec] = []
        for _, _, path in sorted(entries):
            try:
                payload = json.loads(path.read_text())
            except FileNotFoundError:
                continue  # completed by a concurrent client mid-listing
            except (OSError, json.JSONDecodeError):
                self.unreadable += 1
                continue
            if (
                payload.get("signature_version") != SIGNATURE_VERSION
                or "spec" not in payload
            ):
                self.unreadable += 1
                continue
            try:
                specs.append(RunSpec.from_dict(payload["spec"]))
            except (KeyError, TypeError, ValueError):
                self.unreadable += 1
                continue
        return specs

    def pending_signatures(self) -> List[str]:
        return sorted(path.stem for path in self.directory.glob("*.json"))

    def mark_done(self, spec: RunSpec) -> bool:
        """Retire a completed job; ``False`` if another client already did."""
        try:
            self._job_path(spec.signature()).unlink()
        except FileNotFoundError:
            return False
        except OSError:
            return False
        self.completed += 1
        return True

    def mark_failed(self, record: FailureRecord) -> None:
        """Move a job to the failed ledger with its full failure context."""
        self.failed_directory.mkdir(parents=True, exist_ok=True)
        payload = dict(record.to_dict())
        payload["traceback"] = record.traceback
        _atomic_write(
            self.failed_directory / f"{record.signature}.json",
            json.dumps(payload, sort_keys=True) + "\n",
        )
        try:
            self._job_path(record.signature).unlink()
        except OSError:
            pass
        self.failed += 1

    def failed_records(self) -> List[FailureRecord]:
        """Quarantined jobs from *any* client, rebuilt as records."""
        records: List[FailureRecord] = []
        for path in sorted(self.failed_directory.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
                records.append(
                    FailureRecord(
                        spec=RunSpec.from_dict(payload["spec"]),
                        signature=payload["signature"],
                        kind=FailureKind(payload["kind"]),
                        error_type=payload["error_type"],
                        message=payload["message"],
                        traceback=payload.get("traceback", ""),
                        attempts=int(payload.get("attempts", 1)),
                    )
                )
            except FileNotFoundError:
                continue
            except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
                self.unreadable += 1
                continue
        return records

    def clear_failed(self) -> int:
        """Forget quarantined jobs so they can be re-submitted."""
        removed = 0
        for path in self.failed_directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def stats(self) -> Dict[str, float]:
        return {
            "queue_submitted": float(self.submitted),
            "queue_dedupe_hits": float(self.dedupe_hits),
            "queue_completed": float(self.completed),
            "queue_failed": float(self.failed),
            "queue_unreadable": float(self.unreadable),
            "queue_depth": float(len(self.pending_signatures())),
        }


# --------------------------------------------------------------------------- #
# The service
# --------------------------------------------------------------------------- #
class SweepService:
    """One client's handle on the shared sweep service root.

    Wires the shared :class:`ResultStore`, this client's
    :class:`SweepJournal`, the :class:`JobQueue` and the
    :class:`LeaseManager` around a supervised :class:`SweepEngine`; queue
    and lease counters are registered into :meth:`SweepEngine.summary`, so
    ``lease_acquired`` / ``queue_dedupe_hits`` / ``store_races_lost`` flow
    through the same stats channel as every other counter.

    Any number of ``SweepService`` instances — across processes — may
    point at the same root concurrently; that is the point.
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        client_id: Optional[str] = None,
        max_workers: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        group_timeout: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
        stale_after: float = DEFAULT_STALE_AFTER,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_store_dir()
        self.client_id = client_id if client_id else f"client-{os.getpid()}"
        self.store = ResultStore(self.root)
        self.journal = SweepJournal(
            default_journal_path(self.root), client_id=self.client_id
        )
        self.queue = JobQueue(self.root / "queue")
        self.leases = LeaseManager(
            self.root / "leases",
            self.client_id,
            stale_after=stale_after,
            injector=fault_injector,
        )
        self.engine = SweepEngine(
            store=self.store,
            max_workers=max_workers,
            retry_policy=retry_policy,
            group_timeout=group_timeout,
            journal=self.journal,
            fault_injector=fault_injector,
        )
        self.engine.register_stats(self.queue.stats)
        self.engine.register_stats(self.leases.stats)
        self.engine.register_stats(self._service_stats)
        #: Heartbeat cadence: several beats per staleness window, so a
        #: healthy run is never reclaimed from under a live client.
        self.heartbeat_interval = (
            float(heartbeat_interval)
            if heartbeat_interval is not None
            else max(0.02, float(stale_after) / 4.0)
        )
        self.served_from_store = 0
        self.single_flight_rechecks = 0

    # ------------------------------------------------------------------ #
    def _service_stats(self) -> Dict[str, float]:
        return {
            "service_served_from_store": float(self.served_from_store),
            "service_single_flight_rechecks": float(self.single_flight_rechecks),
        }

    # ------------------------------------------------------------------ #
    def submit(self, plan: SweepPlan) -> Dict[str, int]:
        """Queue every spec of ``plan`` idempotently.

        A spec whose result already sits in the shared store is not queued
        (``already_done``); one already queued by any client is a counted
        ``deduped``.  Returns the receipt ``{submitted, deduped,
        already_done}``.
        """
        receipt = {"submitted": 0, "deduped": 0, "already_done": 0}
        for spec in plan:
            if self.store.load(spec) is not None:
                receipt["already_done"] += 1
                continue
            if self.queue.submit_spec(spec):
                receipt["submitted"] += 1
            else:
                receipt["deduped"] += 1
        return receipt

    # ------------------------------------------------------------------ #
    def _process_one(self, spec: RunSpec) -> int:
        """Resolve one queued job; returns 1 when done/failed, 0 if skipped."""
        # Store fast path: another client finished it — just retire the job.
        if self.store.load(spec) is not None:
            if self.queue.mark_done(spec):
                self.served_from_store += 1
            return 1
        lease = self.leases.acquire(spec.signature())
        if lease is None:
            return 0  # a live client is on it; its result will serve us
        try:
            # Single-flight double-check: the previous holder may have
            # published between our store miss and our lease win.
            if self.store.load(spec) is not None:
                self.single_flight_rechecks += 1
                self.queue.mark_done(spec)
                return 1
            with _HeartbeatPump(self.leases, lease, self.heartbeat_interval):
                sweep = self.engine.run(SweepPlan([spec]))
            record = sweep.failed.get(spec)
            if record is not None:
                self.queue.mark_failed(record)
            else:
                self.queue.mark_done(spec)
            return 1
        except Exception as error:
            # Service-level failure (store I/O, journal I/O, …): same
            # classify_failure routing as the engine's own error paths.
            self.queue.mark_failed(FailureRecord.from_exception(spec, error, 1))
            return 1
        finally:
            self.leases.release(lease)

    def process_pending(self) -> int:
        """One pass over the queue; returns the number of jobs resolved."""
        resolved = 0
        for spec in self.queue.pending():
            resolved += self._process_one(spec)
        return resolved

    def drain(
        self, timeout: Optional[float] = None, poll_interval: float = 0.05
    ) -> int:
        """Process until the queue is empty (or ``timeout`` expires).

        Jobs leased by other live clients are waited on — their results
        arrive through the shared store and retire the job here.
        """
        self.leases.cleanup_tombstones()
        deadline = None if timeout is None else time.monotonic() + timeout
        processed = 0
        while True:
            processed += self.process_pending()
            if not self.queue.pending_signatures():
                return processed
            if deadline is not None and time.monotonic() >= deadline:
                return processed
            time.sleep(poll_interval)

    def serve(
        self, idle_exit: Optional[float] = None, poll_interval: float = 0.1
    ) -> int:
        """Execute jobs as they arrive; exit after ``idle_exit`` idle seconds.

        With ``idle_exit=None`` this loops forever (a long-lived server);
        tests and CI pass a small idle window.
        """
        self.leases.cleanup_tombstones()
        idle_since = time.monotonic()
        processed = 0
        while True:
            resolved = self.process_pending()
            processed += resolved
            if resolved:
                idle_since = time.monotonic()
            elif (
                not self.queue.pending_signatures()
                and idle_exit is not None
                and time.monotonic() - idle_since >= idle_exit
            ):
                return processed
            time.sleep(poll_interval)

    # ------------------------------------------------------------------ #
    def status(self) -> Dict[str, float]:
        """Flat counter snapshot: engine summary + live queue/lease state."""
        summary = self.engine.summary()
        summary["queue_pending"] = float(len(self.queue.pending_signatures()))
        summary["queue_failed_records"] = float(len(self.queue.failed_records()))
        summary["leases_active"] = float(len(self.leases.active()))
        summary["store_entries"] = float(
            len(list(self.store.directory.glob("*.json")))
        )
        return summary

    def format_status(self) -> str:
        """Human-readable status including the cross-client failure report."""
        lines = [f"sweep service status — root {self.root}"]
        for key, value in sorted(self.status().items()):
            lines.append(f"  {key:32s} {value:g}")
        lines.append("")
        lines.append(format_failure_report(self.queue.failed_records()))
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Spawn-safe client runner (stress tests / benchmarks)
# --------------------------------------------------------------------------- #
def _outcome(result) -> Dict[str, object]:
    """Bit-comparable, picklable digest of one training result."""
    return {
        "loss_history": list(result.loss_history),
        "train_accuracy_history": list(result.train_accuracy_history),
        "test_accuracy_history": list(result.test_accuracy_history),
        "final_test_accuracy": result.final_test_accuracy,
    }


def run_client(payload: Dict) -> Dict:
    """One service client, driveable from a spawned process.

    ``payload`` keys (all JSON-able, so multiprocessing spawn can ship it):

    - ``root`` (str, required): shared service root directory.
    - ``client_id`` (str, required): this client's id.
    - ``spec_dicts`` (list, required): ``RunSpec.to_dict()`` payloads the
      client submits.
    - ``rounds`` (int, default 1): how many times to re-submit the same
      plan (re-submissions are dedupe hits — the overlap knob for the
      dedupe-rate benchmark).
    - ``drain`` (bool, default True): whether to execute after submitting.
    - ``stale_after`` / ``heartbeat_interval`` / ``max_attempts`` /
      ``drain_timeout``: tuning knobs.
    - ``kill_lease_holder`` / ``freeze_heartbeat_for`` /
      ``corrupt_lease_for``: service-chaos hooks forwarded to
      :class:`FaultInjector` (a killed client never returns — the parent
      observes exit code 137 and the surviving lease file).

    Returns the client's receipts, engine summary and per-signature
    outcomes (loaded from the shared store, so every client reports the
    same bits for the same signature).
    """
    injector = None
    if (
        payload.get("kill_lease_holder")
        or payload.get("freeze_heartbeat_for")
        or payload.get("corrupt_lease_for")
    ):
        injector = FaultInjector(
            kill_lease_holder=payload.get("kill_lease_holder"),
            freeze_heartbeat_for=tuple(payload.get("freeze_heartbeat_for", ())),
            corrupt_lease_for=tuple(payload.get("corrupt_lease_for", ())),
        )
    service = SweepService(
        root=Path(payload["root"]),
        client_id=payload["client_id"],
        retry_policy=RetryPolicy(max_attempts=int(payload.get("max_attempts", 3))),
        fault_injector=injector,
        stale_after=float(payload.get("stale_after", DEFAULT_STALE_AFTER)),
        heartbeat_interval=payload.get("heartbeat_interval"),
    )
    specs = [RunSpec.from_dict(d) for d in payload["spec_dicts"]]
    plan = SweepPlan(specs)
    receipt = {"submitted": 0, "deduped": 0, "already_done": 0}
    for _ in range(int(payload.get("rounds", 1))):
        round_receipt = service.submit(plan)
        for key, value in round_receipt.items():
            receipt[key] += value
    processed = 0
    if payload.get("drain", True):
        processed = service.drain(timeout=payload.get("drain_timeout"))
    outcomes: Dict[str, Dict] = {}
    for spec in specs:
        result = service.store.load(spec)
        if result is not None:
            outcomes[spec.signature()] = _outcome(result)
    return {
        "client_id": payload["client_id"],
        "receipt": receipt,
        "processed": processed,
        "summary": service.engine.summary(),
        "outcomes": outcomes,
    }


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def _figure_plan(names: List[str], seeds: List[int], scale: str, epochs) -> SweepPlan:
    """Union plan of the named training figures across ``seeds``."""
    # Lazy import: __main__ imports this module's command list; importing
    # __main__ eagerly here would be circular.
    from repro.experiments.__main__ import TRAINING_FIGURES

    unknown = [name for name in names if name not in TRAINING_FIGURES]
    if unknown:
        raise SystemExit(
            f"unknown figures: {', '.join(unknown)} "
            f"(available: {', '.join(TRAINING_FIGURES)})"
        )
    plan = SweepPlan([])
    for name in names:
        plan_fn = TRAINING_FIGURES[name][0]
        for seed in seeds:
            plan = plan + plan_fn(seed=seed, scale=scale, epochs=epochs)
    return plan


def build_service_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Crash-safe multi-client sweep service (shared run cache).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--root",
            default=None,
            help="service root (default: the run cache, REPRO_RUNCACHE_DIR aware)",
        )
        p.add_argument(
            "--client-id", default=None, help="client identity (default: client-<pid>)"
        )

    submit = sub.add_parser("submit", help="queue figure grids idempotently")
    submit.add_argument("figures", nargs="+", help="training figures to queue")
    submit.add_argument("--seeds", type=int, nargs="+", default=[0])
    submit.add_argument("--scale", default="ci", choices=("ci", "paper"))
    submit.add_argument("--epochs", type=int, default=None)
    common(submit)

    serve = sub.add_parser("serve", help="execute queued jobs as they arrive")
    serve.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        help="exit after this many idle seconds (default: serve forever)",
    )
    serve.add_argument("--max-attempts", type=int, default=3)
    serve.add_argument("--timeout", type=float, default=None)
    serve.add_argument("--workers", type=int, default=1)
    common(serve)

    drain = sub.add_parser("drain", help="execute until the queue is empty")
    drain.add_argument(
        "--timeout", type=float, default=None, help="give up after this many seconds"
    )
    drain.add_argument("--max-attempts", type=int, default=3)
    common(drain)

    status = sub.add_parser("status", help="counters + cross-client failure report")
    common(status)

    return parser


def cli_main(argv: List[str]) -> int:
    args = build_service_parser().parse_args(argv)
    root = Path(args.root) if args.root else None

    if args.command == "submit":
        service = SweepService(root=root, client_id=args.client_id)
        plan = _figure_plan(args.figures, args.seeds, args.scale, args.epochs)
        receipt = service.submit(plan)
        print(
            f"submitted {receipt['submitted']} job(s) "
            f"({receipt['deduped']} deduped, "
            f"{receipt['already_done']} already done) — root {service.root}"
        )
        return 0

    if args.command == "serve":
        service = SweepService(
            root=root,
            client_id=args.client_id,
            max_workers=args.workers,
            retry_policy=RetryPolicy(max_attempts=args.max_attempts),
            group_timeout=args.timeout,
        )
        try:
            processed = service.serve(idle_exit=args.idle_exit)
        except KeyboardInterrupt:
            print("\nserver interrupted — queued jobs remain claimable")
            return 130
        print(f"served {processed} job(s)")
        print(service.engine.format_summary())
        return 0

    if args.command == "drain":
        service = SweepService(
            root=root,
            client_id=args.client_id,
            retry_policy=RetryPolicy(max_attempts=args.max_attempts),
        )
        processed = service.drain(timeout=args.timeout)
        print(f"drained {processed} job(s)")
        print(service.engine.format_summary())
        failures = service.queue.failed_records()
        if failures:
            print()
            print(format_failure_report(failures))
            return 1
        if service.queue.pending_signatures():
            print("queue not empty (timeout) — rerun drain to continue")
            return 1
        return 0

    # status
    service = SweepService(root=root, client_id=args.client_id)
    print(service.format_status())
    return 0
