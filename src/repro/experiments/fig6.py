"""Fig. 6 — pre-deployment plus post-deployment faults.

Three dataset/model pairs × pre-deployment densities of 1 %, 2 % and 3 % with
an additional 1 % of post-deployment faults injected uniformly across the
training epochs (worst case), for both SA0:SA1 ratios.  The expected shape
mirrors Fig. 5: FARe stays within ~2 % of fault-free while NR loses up to
~15 %.

Declared as a :class:`~repro.experiments.sweeps.SweepPlan`
(:func:`plan_fig6`).  Post-deployment runs share graph-side preprocessing and
the *initial* mapping plans like every other run; the per-epoch re-scans and
plan refreshes stay run-local (they mutate only the run's own rebuilt
hardware state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.configs import (
    COMPARED_STRATEGIES,
    FIG6_FAULT_DENSITIES,
    FIG6_PAIRS,
    FIG6_POST_DEPLOYMENT_EXTRA,
    SA_RATIO_9_1,
)
from repro.experiments.sweeps import (
    RunSpec,
    SweepEngine,
    SweepPlan,
    default_engine,
)
from repro.utils.tabulate import format_table

#: Column headers matching :meth:`Fig6Result.rows` (shared with the CLI).
FIG6_HEADERS: Tuple[str, ...] = ("Workload", "Density") + tuple(COMPARED_STRATEGIES)


@dataclass
class Fig6Result:
    """Test accuracies keyed by (dataset, model, density, strategy).

    Quarantined cells hold ``None`` (rendered ``(missing)``); drops derived
    from a missing cell are ``None`` too.
    """

    sa_ratio: Tuple[float, float]
    densities: Tuple[float, ...]
    pairs: Tuple[Tuple[str, str], ...]
    post_deployment_extra: float
    accuracies: Dict[Tuple[str, str, float, str], Optional[float]] = field(
        default_factory=dict
    )

    def accuracy(
        self, dataset: str, model: str, density: float, strategy: str
    ) -> Optional[float]:
        return self.accuracies[(dataset, model, density, strategy)]

    def accuracy_drop(
        self, dataset: str, model: str, density: float, strategy: str
    ) -> Optional[float]:
        baseline = self.accuracies[(dataset, model, density, "fault_free")]
        measured = self.accuracies[(dataset, model, density, strategy)]
        if baseline is None or measured is None:
            return None
        return baseline - measured

    def rows(self) -> List[List]:
        rows = []
        for dataset, model in self.pairs:
            for density in self.densities:
                row = [f"{dataset} ({model.upper()})", f"{density:.0%}+1%"]
                for strategy in COMPARED_STRATEGIES:
                    row.append(self.accuracies[(dataset, model, density, strategy)])
                rows.append(row)
        return rows


def _fig6_specs(
    sa_ratio: Tuple[float, float],
    densities: Sequence[float],
    pairs: Sequence[Tuple[str, str]],
    strategies: Sequence[str],
    post_deployment_extra: float,
    scale: str,
    seed: int,
    epochs: Optional[int],
) -> Dict[Tuple[str, str, float, str], RunSpec]:
    specs: Dict[Tuple[str, str, float, str], RunSpec] = {}
    for dataset, model in pairs:
        for density in densities:
            for strategy in strategies:
                is_reference = strategy == "fault_free"
                specs[(dataset, model, density, strategy)] = RunSpec.make(
                    dataset,
                    model,
                    strategy,
                    0.0 if is_reference else density,
                    sa_ratio=sa_ratio,
                    scale=scale,
                    seed=seed,
                    epochs=epochs,
                    post_deployment_extra=(
                        None if is_reference else post_deployment_extra
                    ),
                )
    return specs


def plan_fig6(
    sa_ratio: Tuple[float, float] = SA_RATIO_9_1,
    densities: Sequence[float] = FIG6_FAULT_DENSITIES,
    pairs: Sequence[Tuple[str, str]] = FIG6_PAIRS,
    strategies: Sequence[str] = COMPARED_STRATEGIES,
    post_deployment_extra: float = FIG6_POST_DEPLOYMENT_EXTRA,
    scale: str = "ci",
    seed: int = 0,
    epochs: int = None,
) -> SweepPlan:
    """One panel of Fig. 6 as a declarative plan."""
    return SweepPlan(
        _fig6_specs(
            sa_ratio,
            densities,
            pairs,
            strategies,
            post_deployment_extra,
            scale,
            seed,
            epochs,
        ).values()
    )


def run_fig6(
    sa_ratio: Tuple[float, float] = SA_RATIO_9_1,
    densities: Sequence[float] = FIG6_FAULT_DENSITIES,
    pairs: Sequence[Tuple[str, str]] = FIG6_PAIRS,
    strategies: Sequence[str] = COMPARED_STRATEGIES,
    post_deployment_extra: float = FIG6_POST_DEPLOYMENT_EXTRA,
    scale: str = "ci",
    seed: int = 0,
    epochs: int = None,
    engine: Optional[SweepEngine] = None,
) -> Fig6Result:
    """Regenerate one panel of Fig. 6 (choose the panel via ``sa_ratio``)."""
    if engine is None:
        engine = default_engine()
    specs = _fig6_specs(
        sa_ratio,
        densities,
        pairs,
        strategies,
        post_deployment_extra,
        scale,
        seed,
        epochs,
    )
    results = engine.run(SweepPlan(specs.values()))
    result = Fig6Result(
        sa_ratio=tuple(sa_ratio),
        densities=tuple(densities),
        pairs=tuple(tuple(p) for p in pairs),
        post_deployment_extra=post_deployment_extra,
    )
    for cell, spec in specs.items():
        result.accuracies[cell] = results.value(spec, lambda r: r.final_test_accuracy)
    return result


def format_fig6(result: Fig6Result) -> str:
    ratio = f"{result.sa_ratio[0]:.0f}:{result.sa_ratio[1]:.0f}"
    return format_table(
        list(FIG6_HEADERS),
        result.rows(),
        title=(
            f"Fig. 6 — test accuracy with pre+post-deployment faults, "
            f"SA0:SA1 = {ratio}"
        ),
    )
