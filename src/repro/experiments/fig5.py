"""Fig. 5 — test-accuracy comparison of all strategies.

Six dataset/model pairs × three fault densities × five strategies
(fault-free, fault-unaware, NR, weight clipping, FARe) for the 9:1 (panel a)
and 1:1 (panel b) SA0:SA1 ratios.  The expected shape:

* fault-unaware loses the most accuracy,
* NR and clipping-only recover part of it,
* FARe stays within ~1 % (9:1) / ~1.1 % (1:1) of the fault-free accuracy,
* every method's drop is larger under the 1:1 ratio (more SA1 faults).

The full (workload × density × strategy) grid is one
:class:`~repro.experiments.sweeps.SweepPlan` (:func:`plan_fig5`): the engine
de-duplicates the fault-free baselines across panels and shares preprocessing
and mapping plans across strategies and models of the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.configs import (
    COMPARED_STRATEGIES,
    FIG5_FAULT_DENSITIES,
    FIG5_PAIRS,
    SA_RATIO_9_1,
)
from repro.experiments.sweeps import (
    RunSpec,
    SweepEngine,
    SweepPlan,
    default_engine,
)
from repro.utils.tabulate import format_table

#: Column headers matching :meth:`Fig5Result.rows` (shared with the CLI).
FIG5_HEADERS: Tuple[str, ...] = ("Workload", "Density") + tuple(COMPARED_STRATEGIES)


@dataclass
class Fig5Result:
    """Test accuracies keyed by (dataset, model, density, strategy).

    Quarantined cells hold ``None`` (rendered ``(missing)``); drops derived
    from a missing cell are ``None`` too.
    """

    sa_ratio: Tuple[float, float]
    densities: Tuple[float, ...]
    pairs: Tuple[Tuple[str, str], ...]
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
        """Accuracy drop of ``strategy`` relative to fault-free."""
        baseline = self.accuracies[(dataset, model, density, "fault_free")]
        measured = self.accuracies[(dataset, model, density, strategy)]
        if baseline is None or measured is None:
            return None
        return baseline - measured

    def rows(self) -> List[List]:
        rows = []
        for dataset, model in self.pairs:
            for density in self.densities:
                row = [f"{dataset} ({model.upper()})", f"{density:.0%}"]
                for strategy in COMPARED_STRATEGIES:
                    row.append(self.accuracies[(dataset, model, density, strategy)])
                rows.append(row)
        return rows


def _fig5_specs(
    sa_ratio: Tuple[float, float],
    densities: Sequence[float],
    pairs: Sequence[Tuple[str, str]],
    strategies: Sequence[str],
    scale: str,
    seed: int,
    epochs: Optional[int],
) -> Dict[Tuple[str, str, float, str], RunSpec]:
    """Specs keyed by the figure's (dataset, model, density, strategy) cell."""
    specs: Dict[Tuple[str, str, float, str], RunSpec] = {}
    for dataset, model in pairs:
        for density in densities:
            for strategy in strategies:
                effective_density = 0.0 if strategy == "fault_free" else density
                specs[(dataset, model, density, strategy)] = RunSpec.make(
                    dataset,
                    model,
                    strategy,
                    effective_density,
                    sa_ratio=sa_ratio,
                    scale=scale,
                    seed=seed,
                    epochs=epochs,
                )
    return specs


def plan_fig5(
    sa_ratio: Tuple[float, float] = SA_RATIO_9_1,
    densities: Sequence[float] = FIG5_FAULT_DENSITIES,
    pairs: Sequence[Tuple[str, str]] = FIG5_PAIRS,
    strategies: Sequence[str] = COMPARED_STRATEGIES,
    scale: str = "ci",
    seed: int = 0,
    epochs: int = None,
) -> SweepPlan:
    """One panel of Fig. 5 as a declarative plan."""
    return SweepPlan(
        _fig5_specs(
            sa_ratio, densities, pairs, strategies, scale, seed, epochs
        ).values()
    )


def run_fig5(
    sa_ratio: Tuple[float, float] = SA_RATIO_9_1,
    densities: Sequence[float] = FIG5_FAULT_DENSITIES,
    pairs: Sequence[Tuple[str, str]] = FIG5_PAIRS,
    strategies: Sequence[str] = COMPARED_STRATEGIES,
    scale: str = "ci",
    seed: int = 0,
    epochs: int = None,
    engine: Optional[SweepEngine] = None,
) -> Fig5Result:
    """Regenerate one panel of Fig. 5 (choose the panel via ``sa_ratio``)."""
    if engine is None:
        engine = default_engine()
    specs = _fig5_specs(sa_ratio, densities, pairs, strategies, scale, seed, epochs)
    results = engine.run(SweepPlan(specs.values()))
    result = Fig5Result(
        sa_ratio=tuple(sa_ratio),
        densities=tuple(densities),
        pairs=tuple(tuple(p) for p in pairs),
    )
    for cell, spec in specs.items():
        result.accuracies[cell] = results.value(spec, lambda r: r.final_test_accuracy)
    return result


def format_fig5(result: Fig5Result) -> str:
    ratio = f"{result.sa_ratio[0]:.0f}:{result.sa_ratio[1]:.0f}"
    return format_table(
        list(FIG5_HEADERS),
        result.rows(),
        title=f"Fig. 5 — test accuracy, SA0:SA1 = {ratio}",
    )
