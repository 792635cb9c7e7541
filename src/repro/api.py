"""High-level convenience API.

Most users only need three calls:

* :func:`train_on_faulty_hardware` — train one GNN on one (synthetic
  surrogate) dataset under one fault-handling strategy and fault scenario,
  returning a :class:`~repro.pipeline.trainer.TrainingResult`.
* :func:`compare_strategies` — run several strategies on the same graph and
  the same injected faults and return their results side by side (the shape
  of the paper's Fig. 5/6 comparisons).
* :func:`run_sweep` — execute a whole (strategy × density × seed × …) grid
  through the declarative sweep engine: shared preprocessing artifacts,
  optional process-parallel execution and an optional persistent on-disk
  result store (see :mod:`repro.experiments.sweeps`).

All are thin wrappers over :mod:`repro.experiments`, which the benchmark
harness uses directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.pipeline.trainer import TrainingResult


def train_on_faulty_hardware(
    dataset: str = "reddit",
    model: str = "gcn",
    strategy: str = "fare",
    fault_density: float = 0.05,
    sa_ratio: Tuple[float, float] = (9.0, 1.0),
    epochs: Optional[int] = None,
    scale: str = "ci",
    seed: int = 0,
    post_deployment_extra: Optional[float] = None,
    **strategy_kwargs,
) -> TrainingResult:
    """Train a GNN on faulty ReRAM hardware with the chosen strategy.

    Parameters
    ----------
    dataset:
        ``ppi`` / ``reddit`` / ``amazon2m`` / ``ogbl`` (synthetic surrogates).
    model:
        ``gcn`` / ``gat`` / ``sage``.
    strategy:
        ``fault_free`` / ``fault_unaware`` / ``nr`` / ``clipping`` / ``fare``.
    fault_density:
        Pre-deployment stuck-at-fault density (paper range: 0.01-0.05).
    sa_ratio:
        SA0:SA1 likelihood ratio, e.g. ``(9, 1)`` or ``(1, 1)``.
    epochs:
        Override the scale's default epoch count.
    scale:
        ``'ci'`` (small, fast) or ``'paper'`` (full surrogate size).
    seed:
        Controls dataset synthesis, fault injection and training randomness.
    post_deployment_extra:
        If given, total extra fault density injected uniformly across epochs
        (the paper's worst-case post-deployment scenario uses 0.01).
    strategy_kwargs:
        Extra arguments forwarded to the strategy constructor (e.g.
        ``clipping_threshold`` or ``sa1_weight`` for FARe).
    """
    from repro.experiments.runner import run_single

    return run_single(
        dataset=dataset,
        model=model,
        strategy_name=strategy,
        fault_density=fault_density,
        sa_ratio=sa_ratio,
        scale=scale,
        seed=seed,
        epochs=epochs,
        post_deployment_extra=post_deployment_extra,
        strategy_kwargs=strategy_kwargs or None,
    )


def compare_strategies(
    dataset: str = "reddit",
    model: str = "gcn",
    strategies: Iterable[str] = ("fault_free", "fault_unaware", "nr", "clipping", "fare"),
    fault_density: float = 0.05,
    sa_ratio: Tuple[float, float] = (9.0, 1.0),
    epochs: Optional[int] = None,
    scale: str = "ci",
    seed: int = 0,
) -> Dict[str, TrainingResult]:
    """Run several strategies under identical fault conditions.

    Every strategy sees the same synthetic graph and the same injected fault
    maps (the hardware RNG is seeded identically), so differences in final
    test accuracy are attributable to the strategy alone.
    """
    from repro.experiments.runner import run_single

    results: Dict[str, TrainingResult] = {}
    for strategy in strategies:
        results[strategy] = run_single(
            dataset=dataset,
            model=model,
            strategy_name=strategy,
            fault_density=fault_density,
            sa_ratio=sa_ratio,
            scale=scale,
            seed=seed,
            epochs=epochs,
        )
    return results


def run_sweep(
    datasets: Iterable[Tuple[str, str]] = (("reddit", "gcn"),),
    strategies: Iterable[str] = ("fault_free", "fault_unaware", "nr", "clipping", "fare"),
    fault_densities: Iterable[float] = (0.01, 0.03, 0.05),
    sa_ratio: Tuple[float, float] = (9.0, 1.0),
    seeds: Iterable[int] = (0,),
    scale: str = "ci",
    epochs: Optional[int] = None,
    max_workers: int = 1,
    use_store: bool = False,
    max_attempts: int = 3,
    group_timeout: Optional[float] = None,
):
    """Execute a (workload × strategy × density × seed) grid declaratively.

    Returns a :class:`~repro.experiments.sweeps.SweepResult`: a mapping from
    each grid cell's canonical :class:`~repro.experiments.sweeps.RunSpec` to
    its :class:`~repro.pipeline.trainer.TrainingResult`.  Preprocessing
    artifacts (dataset, partition, block decomposition, BIST scan, mapping
    plans) are shared across cells; ``max_workers > 1`` distributes whole
    workload groups over spawned processes (results are keyed by spec, so
    parallel and serial execution are bit-identical) and ``max_workers < 1``
    raises ``ValueError``; ``use_store=True``
    persists results under ``benchmarks/results/runcache/`` keyed by the
    run-signature hash, so repeated sweeps skip finished cells across
    sessions.

    Execution is supervised (see :mod:`repro.experiments.failures`):
    transient/infra failures retry up to ``max_attempts`` with deterministic
    seeded backoff, ``group_timeout`` bounds each workload group's wall
    clock under parallel execution, and specs that exhaust their retries are
    quarantined into ``SweepResult.failed_specs`` instead of aborting the
    grid (check ``sweep.complete()``).

    Example — a multi-seed accuracy sweep with error bars::

        from repro.api import run_sweep
        from repro.experiments.tables import mean_std

        sweep = run_sweep(strategies=("fault_unaware", "fare"),
                          fault_densities=(0.05,), seeds=(0, 1, 2))
        by_strategy = {}
        for spec, result in sweep.results.items():
            by_strategy.setdefault(spec.strategy, []).append(
                result.final_test_accuracy)
        for strategy, accs in by_strategy.items():
            print(f"{strategy:14s} {mean_std(accs)}")
    """
    from repro.experiments.failures import RetryPolicy
    from repro.experiments.sweeps import (
        ResultStore,
        SweepEngine,
        SweepPlan,
        default_engine,
    )

    plan = SweepPlan.grid(
        datasets=list(datasets),
        strategies=list(strategies),
        fault_densities=list(fault_densities),
        sa_ratio=sa_ratio,
        seeds=list(seeds),
        scale=scale,
        epochs=epochs,
    )
    # Store-less sweeps with default fault handling share the process-wide
    # engine (one memo + artifact cache with run_single/compare_strategies
    # and the figure drivers); custom persistence or fault settings get a
    # dedicated engine.
    default_faults = max_attempts == 3 and group_timeout is None
    if use_store or not default_faults:
        engine = SweepEngine(
            store=ResultStore() if use_store else None,
            retry_policy=RetryPolicy(max_attempts=max_attempts),
            group_timeout=group_timeout,
        )
    else:
        engine = default_engine()
    return engine.run(plan, max_workers=max_workers)

