"""Tile and crossbar-pool models.

A :class:`Tile` groups the crossbars and peripheral circuitry described by
Table III.  A :class:`CrossbarPool` aggregates crossbars across tiles and
hands them out to the mapping engine: one partition of the pool stores the
GNN weight matrices, the other receives the per-batch adjacency blocks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.hardware.config import DEFAULT_CONFIG, ReRAMConfig
from repro.hardware.crossbar import Crossbar, FaultClock
from repro.hardware.faults import FaultMap, FaultModel


class Tile:
    """A ReRAM tile: a set of crossbars plus peripheral circuit bookkeeping."""

    def __init__(self, tile_id: int, config: ReRAMConfig = DEFAULT_CONFIG) -> None:
        self.tile_id = int(tile_id)
        self.config = config
        base = tile_id * config.crossbars_per_tile
        self.crossbars: List[Crossbar] = [
            Crossbar(
                crossbar_id=base + i,
                rows=config.crossbar_rows,
                cols=config.crossbar_cols,
                cell_levels=config.cell_levels,
            )
            for i in range(config.crossbars_per_tile)
        ]

    def __repr__(self) -> str:
        return f"Tile(id={self.tile_id}, crossbars={len(self.crossbars)})"

    def total_writes(self) -> int:
        return sum(xbar.total_writes for xbar in self.crossbars)


class CrossbarPool:
    """All crossbars of the accelerator, with fault injection and allocation.

    Parameters
    ----------
    config:
        Architecture configuration; determines the number and size of
        crossbars.
    fault_model:
        Optional :class:`FaultModel` used to draw pre-deployment fault maps at
        construction time.  Without it the pool starts fault-free.
    seed:
        RNG seed forwarded to the fault model.
    """

    def __init__(
        self,
        config: ReRAMConfig = DEFAULT_CONFIG,
        fault_model: Optional[FaultModel] = None,
        num_crossbars: Optional[int] = None,
    ) -> None:
        self.config = config
        count = num_crossbars if num_crossbars is not None else config.crossbar_count
        if count <= 0:
            raise ValueError(f"pool needs at least one crossbar, got {count}")
        # One clock counts every fault-map replacement in the pool until
        # :meth:`split` gives each group its own.
        clock = FaultClock()
        self.crossbars: List[Crossbar] = [
            Crossbar(
                crossbar_id=i,
                rows=config.crossbar_rows,
                cols=config.crossbar_cols,
                cell_levels=config.cell_levels,
                fault_clock=clock,
            )
            for i in range(count)
        ]
        self.fault_model = fault_model
        if fault_model is not None:
            self.inject_pre_deployment(fault_model)

    def __len__(self) -> int:
        return len(self.crossbars)

    def __getitem__(self, index: int) -> Crossbar:
        return self.crossbars[index]

    def __iter__(self):
        return iter(self.crossbars)

    # ------------------------------------------------------------------ #
    # Fault management
    # ------------------------------------------------------------------ #
    def inject_pre_deployment(self, fault_model: FaultModel) -> None:
        """Draw and install pre-deployment fault maps for every crossbar."""
        maps = fault_model.generate(
            len(self.crossbars), self.config.crossbar_rows, self.config.crossbar_cols
        )
        for crossbar, fmap in zip(self.crossbars, maps):
            crossbar.set_fault_map(fmap)
        self.fault_model = fault_model

    def inject_post_deployment(self, extra_density: float) -> None:
        """Overlay additional (post-deployment) faults on every crossbar."""
        if self.fault_model is None:
            raise RuntimeError(
                "inject_post_deployment requires a fault model; call "
                "inject_pre_deployment first or construct with fault_model"
            )
        current = [xbar.fault_map for xbar in self.crossbars]
        updated = self.fault_model.inject_additional(current, extra_density)
        for crossbar, fmap in zip(self.crossbars, updated):
            crossbar.set_fault_map(fmap)

    def fault_maps(self) -> List[FaultMap]:
        """Return the true fault map of every crossbar."""
        return [xbar.fault_map for xbar in self.crossbars]

    def overall_density(self) -> float:
        """Fraction of faulty cells across the whole pool."""
        cells = sum(x.rows * x.cols for x in self.crossbars)
        faults = sum(x.fault_map.num_faults for x in self.crossbars)
        return faults / cells if cells else 0.0

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def allocate(self, count: int) -> List[Crossbar]:
        """Return the first ``count`` crossbars (simple static allocation)."""
        if count > len(self.crossbars):
            raise ValueError(
                f"requested {count} crossbars but the pool only has "
                f"{len(self.crossbars)}"
            )
        return self.crossbars[:count]

    def split(self, first_count: int) -> Sequence[List[Crossbar]]:
        """Split the pool into two disjoint groups (weights vs adjacency).

        Each group gets a :class:`~repro.hardware.crossbar.FaultClock` of its
        own, reading the sum of its crossbars' ``fault_epoch``: a fault change
        in one group leaves the other's clock, and a cache keyed on it, as
        they are.  The clocks are replaced, so split before building such a
        cache.
        """
        if not 0 < first_count < len(self.crossbars):
            raise ValueError(
                f"first_count must be in (0, {len(self.crossbars)}), got {first_count}"
            )
        groups = self.crossbars[:first_count], self.crossbars[first_count:]
        for group in groups:
            clock = FaultClock(sum(crossbar.fault_epoch for crossbar in group))
            for crossbar in group:
                crossbar.fault_clock = clock
        return groups

    def total_writes(self) -> int:
        return sum(x.total_writes for x in self.crossbars)
