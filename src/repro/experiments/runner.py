"""Shared experiment runner — compatibility shim over the sweep engine.

:func:`run_single` is the historical single-run entry point every figure
driver (and the public API) used.  Since the declarative sweep refactor it is
a thin wrapper that builds one canonical
:class:`~repro.experiments.sweeps.RunSpec` and executes it through the
module-level :class:`~repro.experiments.sweeps.SweepEngine`
(:data:`DEFAULT_ENGINE`) — the same engine the figure drivers hand their
:class:`~repro.experiments.sweeps.SweepPlan` grids to, so ad-hoc
``run_single`` calls and declarative sweeps share one LRU-bounded result
memo and one artifact cache.

The engine keeps no on-disk store by default (session-only memoisation, like
the seed runner); pass a store-backed engine to the figure drivers or use
``python -m repro.experiments`` for cross-session persistence.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.experiments.sweeps import (
    RunSpec,
    SweepEngine,
    SweepPlan,
    build_hardware,
)
from repro.pipeline.trainer import TrainingResult

__all__ = [
    "DEFAULT_ENGINE",
    "build_hardware",
    "cache_size",
    "clear_cache",
    "run_single",
]

#: Process-wide engine shared by ``run_single`` and the figure drivers:
#: LRU-capped result memo (the seed runner's unbounded in-process dict,
#: now bounded and instrumented) + shared preprocessing artifacts.
DEFAULT_ENGINE = SweepEngine(store=None, memo_capacity=256)


def clear_cache() -> None:
    """Drop all memoised results and shared artifacts (used by tests)."""
    DEFAULT_ENGINE.clear_memo()


def cache_size() -> int:
    """Number of memoised training runs."""
    return DEFAULT_ENGINE.memo_size()


def run_single(
    dataset: str,
    model: str,
    strategy_name: str,
    fault_density: float,
    sa_ratio: Tuple[float, float] = (9.0, 1.0),
    scale: str = "ci",
    seed: int = 0,
    epochs: Optional[int] = None,
    post_deployment_extra: Optional[float] = None,
    fault_region: str = "both",
    strategy_kwargs: Optional[Dict] = None,
) -> TrainingResult:
    """Train one configuration and return its result (memoised).

    ``execute_spec(RunSpec.make(...))`` from :mod:`repro.experiments.sweeps`
    is the unmemoised equivalent: it rebuilds every input from scratch.
    """
    spec = RunSpec.make(
        dataset=dataset,
        model=model,
        strategy=strategy_name,
        fault_density=fault_density,
        sa_ratio=sa_ratio,
        scale=scale,
        seed=seed,
        epochs=epochs,
        post_deployment_extra=post_deployment_extra,
        fault_region=fault_region,
        strategy_kwargs=strategy_kwargs,
    )
    return DEFAULT_ENGINE.run(SweepPlan([spec]))[spec]
