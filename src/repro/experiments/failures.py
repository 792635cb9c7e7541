"""Failure records for the sweep engine.

A sweep run can fail in three ways, and the engine
(:mod:`repro.experiments.sweeps`) handles each one:

* **An exception inside ``execute_spec``.**  Training is deterministic per
  spec and its call tree does no I/O (datasets are synthesised), so a retry
  would raise again.  The spec is quarantined at once with a
  :class:`FailureRecord` that carries the traceback of the process that
  raised, serially or in a worker.
* **A lost worker.**  A spawned worker that dies (OOM kill, segfault) breaks
  its pool and loses every group still in it.  Each lost group runs once
  more alone, on its own one-process pool; a second loss there can only be
  its own, so its specs are quarantined with a :class:`WorkerCrashError`
  record.
* **An interrupt.**  Results publish to the store as they complete, so
  rerunning against the same store (``python -m repro.experiments
  --store``) resumes.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Iterable, List

from repro.utils.tabulate import format_table

__all__ = [
    "FailureRecord",
    "SpecExecutionError",
    "WorkerCrashError",
    "format_failure_report",
]


class WorkerCrashError(Exception):
    """A group's worker process died twice, the second time running alone."""


@dataclass
class FailureRecord:
    """One quarantined spec with full context.

    ``spec`` is the canonical :class:`~repro.experiments.sweeps.RunSpec`;
    ``traceback`` is the formatted traceback from the process that raised
    (the *remote* traceback for worker failures), empty for a
    :class:`WorkerCrashError` record, which has no Python traceback.
    """

    spec: object
    signature: str
    error_type: str
    message: str
    traceback: str = ""

    @classmethod
    def from_exception(cls, spec, error: BaseException) -> "FailureRecord":
        return cls(
            spec=spec,
            signature=spec.signature(),
            error_type=type(error).__name__,
            message=str(error),
            traceback="".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            ),
        )

    def describe(self) -> str:
        """One-line summary used by logs and the failure report."""
        return f"{self.signature} {self.error_type}: {self.message}"


class SpecExecutionError(Exception):
    """A spec was quarantined; raised where a result is required.

    Carries the failing spec's signature and the full remote traceback, so
    callers that cannot tolerate a missing result (``run_single``,
    ``SweepResult[spec]``) surface actionable context instead of a bare
    pickled exception.
    """

    def __init__(self, record: FailureRecord) -> None:
        self.record = record
        detail = f"\n--- remote traceback ---\n{record.traceback}" if record.traceback else ""
        super().__init__(f"run {record.describe()}{detail}")

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
                f"{record.error_type}: {record.message}"[:60],
            ]
        )
    table = format_table(
        ["Signature", "Workload", "Density", "Seed", "Error"],
        rows,
        title=f"failure report — {len(records)} quarantined spec(s)",
    )
    tracebacks = [
        f"--- {record.signature} ---\n{record.traceback.rstrip()}"
        for record in records
        if record.traceback
    ]
    return "\n\n".join([table] + tracebacks)
