"""Headline claims of the paper, computed from the figure drivers.

The abstract/introduction quote four numbers:

1. FARe restores test accuracy by **47.6 %** on faulty hardware (Reddit, 1:1
   ratio) relative to fault-unaware training.
2. FARe's accuracy loss versus fault-free training is **< 1 %** (9:1) and
   about **1.1 %** (1:1) at fault densities up to 5 %.
3. FARe's timing overhead is about **1 %** of fault-free training.
4. FARe is up to **4×** faster than the NR baseline.

:func:`run_headline` recomputes all four from the same drivers that produce
Fig. 5 and Fig. 7 and returns them side by side with the paper's figures
(``benchmarks/results/headline.txt`` records paper vs measured).  The two
Fig. 5 panels it needs are one combined
:class:`~repro.experiments.sweeps.SweepPlan` (:func:`plan_headline`): the
sweep engine de-duplicates the shared fault-free baseline and reuses each
panel's preprocessing artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.configs import SA_RATIO_1_1, SA_RATIO_9_1
from repro.experiments.fig5 import plan_fig5, run_fig5
from repro.experiments.fig7 import run_fig7
from repro.experiments.sweeps import SweepEngine, SweepPlan, run_seed_replicates
from repro.utils.tabulate import format_table

#: The single workload the headline numbers are quoted for.
HEADLINE_PAIR = (("reddit", "gcn"),)

#: Column headers matching :meth:`HeadlineResult.rows` (shared with the CLI).
HEADLINE_HEADERS = ("Claim", "Paper", "Measured", "Unit")


@dataclass(frozen=True)
class HeadlineClaim:
    """One paper claim with the measured counterpart.

    ``measured_value`` is ``None`` (rendered ``(missing)``) when a spec the
    claim depends on was quarantined by the fault-tolerant engine.
    """

    name: str
    paper_value: float
    measured_value: Optional[float]
    unit: str

    def row(self) -> List:
        return [self.name, self.paper_value, self.measured_value, self.unit]


@dataclass
class HeadlineResult:
    claims: List[HeadlineClaim]

    def claim(self, name: str) -> HeadlineClaim:
        for claim in self.claims:
            if claim.name == name:
                return claim
        raise KeyError(f"no headline claim named {name!r}")

    def rows(self) -> List[List]:
        return [claim.row() for claim in self.claims]


def plan_headline(
    scale: str = "ci",
    seed: int = 0,
    epochs: int = None,
    density: float = 0.05,
) -> SweepPlan:
    """Both Fig. 5 panels of the headline workload as one plan."""
    panel_kwargs = dict(
        densities=(density,), pairs=HEADLINE_PAIR, scale=scale, seed=seed, epochs=epochs
    )
    return plan_fig5(sa_ratio=SA_RATIO_1_1, **panel_kwargs) + plan_fig5(
        sa_ratio=SA_RATIO_9_1, **panel_kwargs
    )


def run_headline(
    scale: str = "ci",
    seed: int = 0,
    epochs: int = None,
    density: float = 0.05,
    engine: Optional[SweepEngine] = None,
) -> HeadlineResult:
    """Recompute the paper's headline numbers at the requested scale."""
    panel_kwargs = dict(
        densities=(density,),
        pairs=HEADLINE_PAIR,
        scale=scale,
        seed=seed,
        epochs=epochs,
        engine=engine,
    )
    panel_b = run_fig5(sa_ratio=SA_RATIO_1_1, **panel_kwargs)
    panel_a = run_fig5(sa_ratio=SA_RATIO_9_1, **panel_kwargs)
    fig7 = run_fig7()

    fare_1_1 = panel_b.accuracy("reddit", "gcn", density, "fare")
    unaware_1_1 = panel_b.accuracy("reddit", "gcn", density, "fault_unaware")
    restoration = (
        None if fare_1_1 is None or unaware_1_1 is None else fare_1_1 - unaware_1_1
    )
    drop_9_1 = panel_a.accuracy_drop("reddit", "gcn", density, "fare")
    drop_1_1 = panel_b.accuracy_drop("reddit", "gcn", density, "fare")
    fare_overhead = (
        max(fig7.time(workload, "fare") for workload, _ in fig7.normalized) - 1.0
    )
    best_speedup = max(
        fig7.speedup_over_nr(workload)
        for workload in {w for w, _ in fig7.normalized}
    )

    maybe_float = lambda v: None if v is None else float(v)  # noqa: E731
    claims = [
        HeadlineClaim(
            name="accuracy_restoration_reddit_1to1",
            paper_value=0.476,
            measured_value=maybe_float(restoration),
            unit="accuracy points",
        ),
        HeadlineClaim(
            name="fare_accuracy_drop_9to1",
            paper_value=0.01,
            measured_value=maybe_float(drop_9_1),
            unit="accuracy points (upper bound)",
        ),
        HeadlineClaim(
            name="fare_accuracy_drop_1to1",
            paper_value=0.011,
            measured_value=maybe_float(drop_1_1),
            unit="accuracy points (upper bound)",
        ),
        HeadlineClaim(
            name="fare_timing_overhead",
            paper_value=0.01,
            measured_value=float(fare_overhead),
            unit="fraction of fault-free time",
        ),
        HeadlineClaim(
            name="fare_speedup_over_nr",
            paper_value=4.0,
            measured_value=float(best_speedup),
            unit="x (up to)",
        ),
    ]
    return HeadlineResult(claims=claims)


def run_headline_seeds(
    seeds: Sequence[int] = (0, 1, 2), **kwargs
) -> Dict[int, HeadlineResult]:
    """Seed-replicated headline numbers (one engine pass over the union grid)."""
    return run_seed_replicates(plan_headline, run_headline, seeds, **kwargs)


def format_headline(result: HeadlineResult) -> str:
    return format_table(
        list(HEADLINE_HEADERS),
        result.rows(),
        float_fmt=".3f",
        title="Headline claims — paper vs measured",
    )
