"""Failing substitutes for ``repro.experiments.sweeps.execute_spec``.

A test installs one with ``monkeypatch.setattr(sweeps, "execute_spec", fn)``.
The serial path calls that module global, and the parallel executor sends
the module's current ``execute_spec`` with each artifact group, so a
module-level function here (or a ``functools.partial`` of one) also runs
inside spawned workers, which inherit ``sys.path``.  Every substitute runs
the real ``execute_spec`` for the specs it leaves alone.
"""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path

# Bound at import, before any test swaps the module global.
from repro.experiments.sweeps import execute_spec as _real_execute_spec


def _kill_worker() -> None:
    # A hard exit, not an exception: the OOM-kill or segfault case.  Never
    # in the test process itself, which would end the test run.
    if multiprocessing.parent_process() is None:
        raise RuntimeError("a kill substitute ran outside a spawned worker")
    os._exit(139)


def kill_once(marker, signatures, spec, artifacts=None):
    """Kill the worker the first time it runs one of ``signatures``.

    ``marker`` is a file path that records the kill across processes: the
    rerun of the lost group finds it and trains normally.
    """
    marker = Path(marker)
    if spec.signature() in signatures and not marker.exists():
        marker.touch()
        _kill_worker()
    return _real_execute_spec(spec, artifacts)


def kill_always(signatures, spec, artifacts=None):
    """Kill the worker every time it runs one of ``signatures``."""
    if spec.signature() in signatures:
        _kill_worker()
    return _real_execute_spec(spec, artifacts)


def raise_on(errors, spec, artifacts=None):
    """Raise ``errors[signature]`` (an exception type) whenever that spec runs."""
    error_type = errors.get(spec.signature())
    if error_type is not None:
        raise error_type(f"injected {error_type.__name__} for {spec.signature()}")
    return _real_execute_spec(spec, artifacts)


class InterruptAfter:
    """Run ``calls`` specs, then raise ``KeyboardInterrupt`` (serial runs)."""

    def __init__(self, calls: int) -> None:
        self.remaining = calls

    def __call__(self, spec, artifacts=None):
        if self.remaining == 0:
            raise KeyboardInterrupt("sweep interrupted by the chaos substitute")
        self.remaining -= 1
        return _real_execute_spec(spec, artifacts)
