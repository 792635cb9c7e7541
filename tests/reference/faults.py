"""Per-map seed paths of fault sampling, post-deployment injection and BIST.

References for :class:`repro.hardware.faults.FaultModel` and
:meth:`repro.hardware.bist.BISTController.scan`: one validated
:class:`FaultMap` built, merged and copied per crossbar.  The production
paths make the same random draws in the same order and write every map of a
call into one stacked pair of planes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.crossbar import Crossbar
from repro.hardware.faults import FaultMap, FaultModel


def _seed_sample_fault_map(
    model: FaultModel, rows: int, cols: int, num_faults: int, rng: np.random.Generator
) -> FaultMap:
    cells = rows * cols
    num_faults = min(num_faults, cells)
    fmap = FaultMap.empty(rows, cols)
    if num_faults == 0:
        return fmap
    flat = rng.choice(cells, size=num_faults, replace=False)
    is_sa1 = rng.random(num_faults) < model.sa1_fraction
    fmap.sa0.flat[flat[~is_sa1]] = True
    fmap.sa1.flat[flat[is_sa1]] = True
    return fmap


def seed_generate(
    model: FaultModel,
    num_crossbars: int,
    rows: int,
    cols: int,
    rng: Optional[np.random.Generator] = None,
) -> List[FaultMap]:
    """``model.generate`` as one sampled map per crossbar."""
    rng = rng if rng is not None else model._rng
    mean_per_crossbar = model.fault_density * rows * cols
    maps: List[FaultMap] = []
    for _ in range(num_crossbars):
        if model.clustered:
            count = int(rng.poisson(mean_per_crossbar))
        else:
            count = int(round(mean_per_crossbar))
        maps.append(_seed_sample_fault_map(model, rows, cols, count, rng))
    return maps


def seed_inject_additional(
    model: FaultModel,
    fault_maps: Sequence[FaultMap],
    extra_density: float,
    rng: Optional[np.random.Generator] = None,
) -> List[FaultMap]:
    """``model.inject_additional`` as one sample-and-merge per map."""
    rng = rng if rng is not None else model._rng
    result: List[FaultMap] = []
    for fmap in fault_maps:
        rows, cols = fmap.shape
        mean = extra_density * rows * cols
        count = int(rng.poisson(mean)) if model.clustered else int(round(mean))
        extra = _seed_sample_fault_map(model, rows, cols, count, rng)
        # Existing faults take precedence over newly emerged ones.
        extra.sa0 &= ~fmap.any_fault
        extra.sa1 &= ~fmap.any_fault
        result.append(FaultMap(fmap.sa0 | extra.sa0, fmap.sa1 | extra.sa1))
    return result


def seed_bist_scan(crossbars: Sequence[Crossbar]) -> Tuple[List[FaultMap], int]:
    """The full-coverage scan with one copy per map: ``(maps, detected faults)``."""
    maps = [crossbar.fault_map.copy() for crossbar in crossbars]
    return maps, sum(fmap.num_faults for fmap in maps)
