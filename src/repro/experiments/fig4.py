"""Fig. 4 — training-accuracy curves with and without FARe.

The paper trains GCN on Reddit at 1 %, 3 % and 5 % pre-deployment fault
density (SA0:SA1 = 9:1) and plots the per-epoch training accuracy of the
fault-unaware implementation (panel a) and of FARe (panel b) against the
fault-free curve.  The expected shape: the fault-unaware curves are depressed
and unstable, while the FARe curves overlap the fault-free one.

The (strategy × fault density) grid is declared as a
:class:`~repro.experiments.sweeps.SweepPlan` (:func:`plan_fig4`); the sweep
benchmark gates the engine's cold wall-clock on exactly this grid shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.configs import FIG5_FAULT_DENSITIES, SA_RATIO_9_1
from repro.experiments.sweeps import (
    RunSpec,
    SweepEngine,
    SweepPlan,
    default_engine,
)
from repro.utils.tabulate import format_table

#: Column headers matching :meth:`Fig4Result.rows`.
FIG4_SUMMARY_HEADERS = ["Strategy", "Density", "Final train accuracy", "Gap to fault-free"]


@dataclass(frozen=True)
class Fig4Result:
    """Per-epoch training accuracy series for both panels.

    A curve whose spec was quarantined by the fault-tolerant engine is
    ``None``; summary cells derived from it render as ``(missing)``.
    """

    dataset: str
    model: str
    densities: Tuple[float, ...]
    fault_free_curve: Optional[List[float]]
    fault_unaware_curves: Dict[float, Optional[List[float]]]
    fare_curves: Dict[float, Optional[List[float]]]

    def final_gap(self, panel: str, density: float) -> Optional[float]:
        """Final-epoch training-accuracy gap to the fault-free curve."""
        curves = self.fault_unaware_curves if panel == "fault_unaware" else self.fare_curves
        curve = curves[density]
        if self.fault_free_curve is None or curve is None:
            return None
        return self.fault_free_curve[-1] - curve[-1]

    def rows(self) -> List[List]:
        """Final-epoch summary rows (see :data:`FIG4_SUMMARY_HEADERS`).

        The per-epoch curves stay in :func:`format_fig4`; these rows are the
        seed-aggregatable form used for mean±std error bars.
        """
        reference_final = (
            None if self.fault_free_curve is None else self.fault_free_curve[-1]
        )
        rows: List[List] = [
            ["fault-free", "-", reference_final, None if reference_final is None else 0.0]
        ]
        for panel, curves in (
            ("fault_unaware", self.fault_unaware_curves),
            ("fare", self.fare_curves),
        ):
            for density in self.densities:
                curve = curves[density]
                rows.append(
                    [
                        panel,
                        f"{density:.0%}",
                        None if curve is None else curve[-1],
                        self.final_gap(panel, density),
                    ]
                )
        return rows


def _fig4_specs(
    dataset: str,
    model: str,
    densities: Sequence[float],
    sa_ratio: Tuple[float, float],
    scale: str,
    seed: int,
    epochs: Optional[int],
) -> Dict[Tuple[str, float], RunSpec]:
    """Specs keyed by (strategy, density); the reference keys on density 0."""
    specs: Dict[Tuple[str, float], RunSpec] = {
        ("fault_free", 0.0): RunSpec.make(
            dataset, model, "fault_free", 0.0, scale=scale, seed=seed, epochs=epochs
        )
    }
    for density in densities:
        for strategy in ("fault_unaware", "fare"):
            specs[(strategy, density)] = RunSpec.make(
                dataset,
                model,
                strategy,
                density,
                sa_ratio=sa_ratio,
                scale=scale,
                seed=seed,
                epochs=epochs,
            )
    return specs


def plan_fig4(
    dataset: str = "reddit",
    model: str = "gcn",
    densities: Tuple[float, ...] = FIG5_FAULT_DENSITIES,
    sa_ratio: Tuple[float, float] = SA_RATIO_9_1,
    scale: str = "ci",
    seed: int = 0,
    epochs: int = None,
) -> SweepPlan:
    """The Fig. 4 grid as a declarative plan."""
    return SweepPlan(
        _fig4_specs(dataset, model, densities, sa_ratio, scale, seed, epochs).values()
    )


def run_fig4(
    dataset: str = "reddit",
    model: str = "gcn",
    densities: Tuple[float, ...] = FIG5_FAULT_DENSITIES,
    sa_ratio: Tuple[float, float] = SA_RATIO_9_1,
    scale: str = "ci",
    seed: int = 0,
    epochs: int = None,
    engine: Optional[SweepEngine] = None,
) -> Fig4Result:
    """Regenerate both panels of Fig. 4."""
    if engine is None:
        engine = default_engine()
    specs = _fig4_specs(dataset, model, densities, sa_ratio, scale, seed, epochs)
    results = engine.run(SweepPlan(specs.values()))
    curve = lambda r: list(r.train_accuracy_history)  # noqa: E731
    return Fig4Result(
        dataset=dataset,
        model=model,
        densities=tuple(densities),
        fault_free_curve=results.value(specs[("fault_free", 0.0)], curve),
        fault_unaware_curves={
            density: results.value(specs[("fault_unaware", density)], curve)
            for density in densities
        },
        fare_curves={
            density: results.value(specs[("fare", density)], curve)
            for density in densities
        },
    )


def format_fig4(result: Fig4Result) -> str:
    """Render the per-epoch series as two tables (one per panel)."""
    headers = ["Epoch", "fault-free"] + [f"{d:.0%}" for d in result.densities]
    all_curves = [result.fault_free_curve]
    all_curves += [result.fault_unaware_curves[d] for d in result.densities]
    all_curves += [result.fare_curves[d] for d in result.densities]
    n_epochs = max((len(c) for c in all_curves if c is not None), default=0)
    blocks = []
    for panel, curves in (
        ("(a) fault unaware", result.fault_unaware_curves),
        ("(b) FARe", result.fare_curves),
    ):
        rows = []
        for epoch in range(n_epochs):
            reference = result.fault_free_curve
            row = [epoch + 1, None if reference is None else reference[epoch]]
            for density in result.densities:
                curve = curves[density]
                row.append(None if curve is None else curve[epoch])
            rows.append(row)
        blocks.append(
            format_table(
                headers,
                rows,
                title=f"Fig. 4{panel} — {result.dataset} ({result.model.upper()}) training accuracy",
            )
        )
    return "\n\n".join(blocks)
