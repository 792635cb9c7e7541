"""Failure taxonomy, retry policy and fault injection for the sweep engine.

A sweep that serves many overlapping figure grids must behave like a job
system: one worker exception, hang or mid-sweep crash may not lose the whole
grid.  This module is the vocabulary of that robustness layer:

* :class:`FailureKind` / :func:`classify_failure` — the typed taxonomy every
  executor routes per-run errors through:

  - ``TRANSIENT``: the *execution substrate* failed (worker killed, broken
    process pool, wall-clock timeout, dropped pipe).  The run itself is
    presumed fine; retrying on a fresh worker is expected to succeed.
  - ``DETERMINISTIC``: the exception was raised *inside* the run
    (``execute_spec`` and below).  Training is deterministic per spec, so
    the same inputs reproduce the same exception — retrying is pointless
    and the spec is quarantined immediately.
  - ``INFRA``: the surrounding machinery failed (store I/O, result
    (un)pickling, out-of-memory).  Usually environmental and worth a
    bounded retry, but tracked separately so operators can tell a flaky
    disk from a flaky worker.

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  **deterministic seeded jitter**: the jitter is a pure function of
  ``(policy seed, spec signature, attempt)``, never of wall-clock time or a
  global RNG, so serial and parallel execution replay identical retry
  schedules and repeated chaos runs reproduce bit-identical results and
  counters.
* :class:`FailureRecord` / :class:`SpecExecutionError` — per-spec failure
  context (spec signature, classification, attempts, full remote traceback)
  instead of a bare pickled exception that aborts the sweep.
* :class:`FaultInjector` — the deterministic chaos harness used by the
  fault-injection tests and ``benchmarks/test_bench_sweep_resilience.py``:
  kill the worker on the Nth artifact group, raise on chosen spec
  signatures (N times, then succeed), delay a group past the supervisor's
  timeout, corrupt a store file, or abort the sweep after K published runs.
  Every hook is gated on the *attempt number* (or a target spec
  signature), which makes the injected chaos reproducible without any
  cross-process state.

The rule for future PRs (see ``docs/ARCHITECTURE.md``): any new executor —
remote workers, an async queue, a REST front-end — must wrap per-run errors
in :class:`FailureRecord` via :func:`classify_failure` rather than letting
raw exceptions propagate, so retry/quarantine semantics stay uniform.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.utils.tabulate import format_table

__all__ = [
    "FailureKind",
    "FailureRecord",
    "FaultInjector",
    "GroupTimeoutError",
    "InjectedDeterministicError",
    "InjectedInfraError",
    "InjectedTransientError",
    "RetryPolicy",
    "SpecExecutionError",
    "WorkerCrashError",
    "classify_failure",
    "format_failure_report",
]


class FailureKind(str, Enum):
    """Classification of one failed run attempt (see module docstring)."""

    TRANSIENT = "transient"
    DETERMINISTIC = "deterministic"
    INFRA = "infra"


class WorkerCrashError(Exception):
    """A worker process died (killed, segfaulted, OOM-killed) mid-group."""


class GroupTimeoutError(Exception):
    """An artifact group exceeded the supervisor's wall-clock timeout."""


class InjectedTransientError(ConnectionError):
    """Fault injection: a transient-classified failure (succeeds on retry)."""


class InjectedDeterministicError(RuntimeError):
    """Fault injection: a deterministic failure (reproduces on every retry)."""


class InjectedInfraError(OSError):
    """Fault injection: an infrastructure-classified failure."""


#: Exception types whose failures are presumed execution-substrate flakiness.
#: Checked before the INFRA types: ``BrokenPipeError``/``ConnectionError``
#: are ``OSError`` subclasses but mean "the worker went away", not "the disk
#: is broken".
_TRANSIENT_TYPES = (
    WorkerCrashError,
    GroupTimeoutError,
    BrokenProcessPool,
    TimeoutError,
    ConnectionError,
    EOFError,
    InterruptedError,
)

#: Exception types blamed on the surrounding machinery (I/O, serialization).
_INFRA_TYPES = (
    OSError,
    MemoryError,
    pickle.PickleError,
    json.JSONDecodeError,
)


def classify_failure(error: BaseException) -> FailureKind:
    """Map an exception to its :class:`FailureKind`.

    :class:`SpecExecutionError` wrappers carry the classification of their
    remote cause and pass it through unchanged.  Everything that is neither
    a known transport/substrate failure nor a known infrastructure failure
    is ``DETERMINISTIC``: per-spec training is deterministic, so an
    exception raised inside ``execute_spec`` will reproduce on retry.
    """
    if isinstance(error, SpecExecutionError):
        return error.kind
    if isinstance(error, _TRANSIENT_TYPES):
        return FailureKind.TRANSIENT
    if isinstance(error, _INFRA_TYPES):
        return FailureKind.INFRA
    return FailureKind.DETERMINISTIC


# --------------------------------------------------------------------------- #
# Failure records
# --------------------------------------------------------------------------- #
@dataclass
class FailureRecord:
    """One quarantined (or retried-to-death) spec with full context.

    ``spec`` is the canonical :class:`~repro.experiments.sweeps.RunSpec`;
    ``traceback`` is the formatted traceback from the process that raised
    (the *remote* traceback for worker failures), empty for supervisor-made
    records (timeouts, worker crashes) that have no Python traceback.
    """

    spec: object
    signature: str
    kind: FailureKind
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1

    @classmethod
    def from_exception(
        cls, spec, error: BaseException, attempts: int
    ) -> "FailureRecord":
        return cls(
            spec=spec,
            signature=spec.signature(),
            kind=classify_failure(error),
            error_type=type(error).__name__,
            message=str(error),
            traceback="".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            ),
            attempts=attempts,
        )

    def describe(self) -> str:
        """One-line summary used by logs and the failure report."""
        return (
            f"{self.signature} [{self.kind.value}] {self.error_type}: "
            f"{self.message} (after {self.attempts} attempt(s))"
        )


class SpecExecutionError(Exception):
    """A spec failed terminally; raised where a result is required.

    Carries the failing spec's signature, classification and the full
    remote traceback, so callers that cannot tolerate a missing result
    (``run_single``, ``SweepResult[spec]``) surface actionable context
    instead of a bare pickled exception.
    """

    def __init__(self, record: FailureRecord) -> None:
        self.record = record
        detail = f"\n--- remote traceback ---\n{record.traceback}" if record.traceback else ""
        super().__init__(f"run {record.describe()}{detail}")

    @property
    def kind(self) -> FailureKind:
        return self.record.kind

    @property
    def signature(self) -> str:
        return self.record.signature


def format_failure_report(records: Iterable[FailureRecord]) -> str:
    """Render quarantined specs as a table plus their tracebacks."""
    records = list(records)
    if not records:
        return "failure report: no quarantined specs"
    rows: List[List] = []
    for record in records:
        spec = record.spec
        rows.append(
            [
                record.signature[:12],
                f"{spec.dataset}/{spec.model}/{spec.strategy}",
                f"{spec.fault_density:.3f}",
                spec.seed,
                record.kind.value,
                record.attempts,
                f"{record.error_type}: {record.message}"[:60],
            ]
        )
    table = format_table(
        ["Signature", "Workload", "Density", "Seed", "Kind", "Attempts", "Error"],
        rows,
        title=f"failure report — {len(records)} quarantined spec(s)",
    )
    tracebacks = [
        f"--- {record.signature} ---\n{record.traceback.rstrip()}"
        for record in records
        if record.traceback
    ]
    return "\n\n".join([table] + tracebacks)


# --------------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_attempts`` counts total tries per spec (1 = never retry).
    ``DETERMINISTIC`` failures are never retried.  The backoff before retry
    ``attempt`` (0-based index of the attempt that just failed) is::

        min(max_delay, base_delay * backoff_factor**attempt * (1 + jitter*u))

    where ``u ∈ [0, 1)`` is derived by hashing ``(seed, spec signature,
    attempt)`` — the determinism rule: retry schedules are a pure function
    of the spec and the policy, never of wall-clock time or a shared RNG,
    so serial and parallel execution (and repeated chaos runs) reproduce
    identical backoff sequences and counters.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def retryable(self, kind: FailureKind) -> bool:
        return kind is not FailureKind.DETERMINISTIC

    def should_retry(self, kind: FailureKind, attempt: int) -> bool:
        """Whether attempt index ``attempt`` (0-based, just failed) retries."""
        return self.retryable(kind) and attempt + 1 < self.max_attempts

    def delay(self, signature: str, attempt: int) -> float:
        """Deterministic backoff before re-running ``signature``."""
        digest = hashlib.sha256(
            f"{self.seed}:{signature}:{attempt}".encode()
        ).digest()
        u = int.from_bytes(digest[:8], "big") / 2.0**64
        base = self.base_delay * self.backoff_factor**attempt
        return min(self.max_delay, base * (1.0 + self.jitter * u))


# --------------------------------------------------------------------------- #
# Deterministic fault injection
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultInjector:
    """Deterministic chaos hooks for the sweep engine (tests/benchmarks).

    The injector is immutable, picklable plain data — it ships to spawned
    workers with each task.  Every hook is gated on the attempt index, so
    an injected failure strikes a known attempt and then stands down; no
    cross-process state is needed and chaos runs replay exactly.

    ``transient_specs``
        ``(spec signature, fail_attempts)`` pairs: executing that spec
        raises :class:`InjectedTransientError` while ``attempt <
        fail_attempts`` (i.e. it fails that many times, then succeeds).
    ``deterministic_specs`` / ``infra_specs``
        Signatures that raise :class:`InjectedDeterministicError` /
        :class:`InjectedInfraError` on *every* attempt.
    ``kill_group`` / ``kill_attempt``
        ``os._exit`` the worker process at the start of this artifact-group
        index, on exactly that attempt (parallel executor only).
    ``delay_group`` / ``delay_attempt`` / ``delay_seconds``
        Sleep at the start of this group index on exactly that attempt
        (used with ``group_timeout`` to simulate a hung worker).  A pool
        kill requeues *every* in-flight group at the next attempt, so a
        chaos scenario combining a kill with a later hang schedules the
        delay at ``delay_attempt=1``.
    ``abort_after``
        Raise ``KeyboardInterrupt`` in the *engine* process after this many
        results have been published — simulates an interrupted
        ``python -m repro.experiments`` invocation for resume tests.
    """

    transient_specs: Tuple[Tuple[str, int], ...] = ()
    deterministic_specs: Tuple[str, ...] = ()
    infra_specs: Tuple[str, ...] = ()
    kill_group: Optional[int] = None
    kill_attempt: int = 0
    delay_group: Optional[int] = None
    delay_attempt: int = 0
    delay_seconds: float = 0.0
    abort_after: Optional[int] = None

    # ------------------------------------------------------------------ #
    def on_spec_start(self, signature: str, attempt: int) -> None:
        """Raise the injected per-spec failure, if one is scheduled."""
        if signature in self.deterministic_specs:
            raise InjectedDeterministicError(
                f"injected deterministic failure for {signature}"
            )
        if signature in self.infra_specs:
            raise InjectedInfraError(
                0, f"injected infrastructure failure for {signature}"
            )
        for target, fail_attempts in self.transient_specs:
            if target == signature and attempt < fail_attempts:
                raise InjectedTransientError(
                    f"injected transient failure for {signature} "
                    f"(attempt {attempt} of {fail_attempts} injected)"
                )

    def on_group_start(self, group_index: int, attempt: int, in_worker: bool) -> None:
        """Kill or stall the worker at the start of the targeted group."""
        if not in_worker:
            return
        if (
            self.kill_group is not None
            and group_index == self.kill_group
            and attempt == self.kill_attempt
        ):
            # A hard kill, not an exception: models the OOM-killer / segfault
            # case the supervisor must survive via pool respawn + requeue.
            os._exit(139)
        if (
            self.delay_group is not None
            and group_index == self.delay_group
            and attempt == self.delay_attempt
        ):
            time.sleep(self.delay_seconds)

    def should_abort(self, published_count: int) -> bool:
        return self.abort_after is not None and published_count >= self.abort_after

    # ------------------------------------------------------------------ #
    @staticmethod
    def corrupt_store_file(path) -> None:
        """Overwrite a stored result with garbage (torn-write simulation)."""
        Path(path).write_text('{"torn": ')
