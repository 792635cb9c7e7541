"""Fig. 3 — impact of SA0-only vs SA1-only faults on each computation phase.

The paper injects 5 % pre-deployment faults of a single type (SA0 only or SA1
only) separately into the crossbars storing the weights and those storing the
adjacency matrix, trains SAGE on Amazon2M without any mitigation, and compares
the final test accuracy against the fault-free model.  The expected shape:

* faults in either phase hurt accuracy (motivating mitigation in both),
* SA1-only faults hurt substantially more than SA0-only faults.

The grid is declared as a :class:`~repro.experiments.sweeps.SweepPlan`
(:func:`plan_fig3`) and executed through the sweep engine;
:func:`~repro.experiments.sweeps.run_seed_replicates` gives seed-replicated
results with error bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.sweeps import (
    RunSpec,
    SweepEngine,
    SweepPlan,
    default_engine,
)
from repro.utils.tabulate import format_table

#: The four faulted cells of Fig. 3: (region, label, SA0:SA1 ratio).
FIG3_CELLS: Tuple[Tuple[str, str, Tuple[float, float]], ...] = (
    ("weights", "SA0 only", (1.0, 0.0)),
    ("weights", "SA1 only", (0.0, 1.0)),
    ("adjacency", "SA0 only", (1.0, 0.0)),
    ("adjacency", "SA1 only", (0.0, 1.0)),
)

#: Column headers matching :meth:`Fig3Result.rows` (shared with the CLI).
FIG3_HEADERS: Tuple[str, ...] = ("Faulted matrix", "Fault type", "Test accuracy")


@dataclass(frozen=True)
class Fig3Result:
    """Accuracy of every (region, fault type) combination plus the reference.

    Cells whose spec was quarantined by the fault-tolerant engine are
    ``None`` and render as ``(missing)`` instead of raising.
    """

    dataset: str
    model: str
    fault_density: float
    fault_free_accuracy: Optional[float]
    accuracies: Dict[Tuple[str, str], Optional[float]]

    def rows(self) -> List[List]:
        rows = [["-", "fault-free", self.fault_free_accuracy]]
        for (region, fault_type), acc in sorted(self.accuracies.items()):
            rows.append([region, fault_type, acc])
        return rows


def _fig3_specs(
    dataset: str,
    model: str,
    fault_density: float,
    scale: str,
    seed: int,
    epochs: Optional[int],
) -> Dict[Optional[Tuple[str, str]], RunSpec]:
    """Specs keyed by figure cell (``None`` is the fault-free reference)."""
    specs: Dict[Optional[Tuple[str, str]], RunSpec] = {
        None: RunSpec.make(
            dataset, model, "fault_free", 0.0, scale=scale, seed=seed, epochs=epochs
        )
    }
    for region, fault_type, ratio in FIG3_CELLS:
        specs[(region, fault_type)] = RunSpec.make(
            dataset,
            model,
            "fault_unaware",
            fault_density,
            sa_ratio=ratio,
            scale=scale,
            seed=seed,
            epochs=epochs,
            fault_region=region,
        )
    return specs


def plan_fig3(
    dataset: str = "amazon2m",
    model: str = "sage",
    fault_density: float = 0.05,
    scale: str = "ci",
    seed: int = 0,
    epochs: int = None,
) -> SweepPlan:
    """The Fig. 3 grid as a declarative plan."""
    return SweepPlan(
        _fig3_specs(dataset, model, fault_density, scale, seed, epochs).values()
    )


def run_fig3(
    dataset: str = "amazon2m",
    model: str = "sage",
    fault_density: float = 0.05,
    scale: str = "ci",
    seed: int = 0,
    epochs: int = None,
    engine: Optional[SweepEngine] = None,
) -> Fig3Result:
    """Regenerate Fig. 3 (per-phase SA0/SA1 sensitivity)."""
    if engine is None:
        engine = default_engine()
    specs = _fig3_specs(dataset, model, fault_density, scale, seed, epochs)
    results = engine.run(SweepPlan(specs.values()))
    acc = lambda r: r.final_test_accuracy  # noqa: E731
    return Fig3Result(
        dataset=dataset,
        model=model,
        fault_density=fault_density,
        fault_free_accuracy=results.value(specs[None], acc),
        accuracies={
            cell: results.value(spec, acc)
            for cell, spec in specs.items()
            if cell is not None
        },
    )


def format_fig3(result: Fig3Result) -> str:
    return format_table(
        list(FIG3_HEADERS),
        result.rows(),
        title=(
            f"Fig. 3 — {result.dataset} ({result.model.upper()}), "
            f"{result.fault_density:.0%} fault density"
        ),
    )
