"""Write-endurance modelling and post-deployment fault scheduling.

ReRAM cells endure 10^6–10^12 writes before failing (Section IV-A).  During
pipelined mini-batch training the adjacency crossbars are rewritten every
batch, so faults can emerge *post-deployment*.  The paper's worst-case
experiment adds a total of 1 % extra fault density spread uniformly over the
training epochs; :class:`PostDeploymentSchedule` reproduces that protocol, and
:class:`EnduranceModel` links write counts to failure probability for the
finer-grained analyses in the test-suite and ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.utils.validation import check_fraction, check_positive_int


@dataclass(frozen=True)
class EnduranceModel:
    """Log-normal write-endurance model.

    A cell fails once its cumulative write count exceeds its endurance, which
    is drawn (conceptually) from a log-normal distribution centred at
    ``mean_endurance``.  The closed-form helpers below avoid storing a sample
    per cell by working with the population failure probability.
    """

    mean_endurance: float = 1e9
    sigma_log10: float = 0.5

    def __post_init__(self) -> None:
        if self.mean_endurance <= 0:
            raise ValueError("mean_endurance must be positive")
        if self.sigma_log10 <= 0:
            raise ValueError("sigma_log10 must be positive")

    def failure_probability(self, writes: float) -> float:
        """Probability that a cell has failed after ``writes`` write cycles."""
        if writes <= 0:
            return 0.0
        z = (np.log10(writes) - np.log10(self.mean_endurance)) / self.sigma_log10
        # Standard normal CDF via the error function.
        from math import erf, sqrt

        return 0.5 * (1.0 + erf(z / sqrt(2.0)))

    def expected_new_faults(self, writes: float, num_cells: int) -> float:
        """Expected number of failed cells among ``num_cells`` after ``writes``."""
        num_cells = check_positive_int(num_cells, "num_cells")
        return self.failure_probability(writes) * num_cells

    def writes_for_probability(self, probability: float) -> float:
        """Inverse of :meth:`failure_probability` (write count at that P).

        Solved by bisection on ``log10(writes)`` — the CDF is strictly
        monotone there — so no inverse error function dependency is needed.
        """
        if not 0.0 < probability < 1.0:
            raise ValueError(
                f"probability must lie strictly in (0, 1), got {probability}"
            )
        centre = float(np.log10(self.mean_endurance))
        # ±12 sigma brackets every probability representable in float64.
        lo = centre - 12.0 * self.sigma_log10
        hi = centre + 12.0 * self.sigma_log10
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.failure_probability(10.0**mid) < probability:
                lo = mid
            else:
                hi = mid
        return 10.0 ** (0.5 * (lo + hi))


@dataclass(frozen=True)
class WearOutSchedule:
    """Fault-density checkpoints along a device's write-cycle lifetime.

    Where :class:`PostDeploymentSchedule` spreads a fixed extra density
    uniformly over one training run, this schedule follows the endurance
    model itself: at each write-count checkpoint the cumulative population
    fault density equals the model's failure probability, and the per-step
    :meth:`density_increments` drive the warm re-plans of the
    ``lifetime`` experiment (:mod:`repro.experiments.lifetime`).
    """

    model: EnduranceModel
    write_checkpoints: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.write_checkpoints:
            raise ValueError("write_checkpoints must not be empty")
        previous = 0.0
        for writes in self.write_checkpoints:
            if writes <= previous:
                raise ValueError(
                    "write_checkpoints must be positive and strictly increasing"
                )
            previous = writes

    @classmethod
    def log_spaced(
        cls,
        model: EnduranceModel,
        start_probability: float = 0.002,
        stop_probability: float = 0.2,
        num_checkpoints: int = 6,
    ) -> "WearOutSchedule":
        """Checkpoints log-spaced between two failure-probability levels."""
        num_checkpoints = check_positive_int(num_checkpoints, "num_checkpoints")
        if not 0.0 < start_probability < stop_probability < 1.0:
            raise ValueError(
                "need 0 < start_probability < stop_probability < 1, got "
                f"({start_probability}, {stop_probability})"
            )
        start = model.writes_for_probability(start_probability)
        stop = model.writes_for_probability(stop_probability)
        writes = np.logspace(np.log10(start), np.log10(stop), num_checkpoints)
        return cls(model=model, write_checkpoints=tuple(float(w) for w in writes))

    def cumulative_densities(self) -> List[float]:
        """Population fault density expected at each checkpoint."""
        return [
            self.model.failure_probability(writes)
            for writes in self.write_checkpoints
        ]

    def density_increments(self) -> List[float]:
        """Fresh fault density to inject when arriving at each checkpoint."""
        cumulative = self.cumulative_densities()
        return [cumulative[0]] + [
            cumulative[k] - cumulative[k - 1] for k in range(1, len(cumulative))
        ]


@dataclass(frozen=True)
class PostDeploymentSchedule:
    """Spread a total extra fault density uniformly over training epochs.

    The paper's post-deployment experiment (Fig. 6) adds 1 % total extra fault
    density distributed uniformly across the epochs of one training run —
    explicitly a worst case, since real endurance is orders of magnitude above
    the per-epoch write count.
    """

    total_extra_density: float = 0.01
    num_epochs: int = 100

    def __post_init__(self) -> None:
        check_fraction(self.total_extra_density, "total_extra_density")
        check_positive_int(self.num_epochs, "num_epochs")

    @property
    def per_epoch_density(self) -> float:
        """Extra fault density injected at the end of each epoch."""
        return self.total_extra_density / self.num_epochs

    def densities(self) -> List[float]:
        """Per-epoch increments (length ``num_epochs``, sums to the total)."""
        return [self.per_epoch_density] * self.num_epochs

    def cumulative(self) -> List[float]:
        """Cumulative extra density after each epoch."""
        return [(i + 1) * self.per_epoch_density for i in range(self.num_epochs)]
