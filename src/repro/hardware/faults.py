"""Stuck-at-fault modelling for ReRAM crossbars.

Two fault classes are modelled (Section II-A):

* **SA0** — the cell is stuck at its lowest conductance and always reads as
  the minimum cell value (0).  In a crossbar storing the binary adjacency this
  deletes an edge; in a weight crossbar it zeroes the affected 2-bit slice.
* **SA1** — the cell is stuck at its highest conductance and always reads as
  the maximum cell value.  In the adjacency it adds a spurious edge; in a
  weight crossbar it saturates the slice, which near the most-significant
  cell produces the "weight explosion" the paper describes.

Faults follow the distribution the paper adopts from prior defect studies: the
number of faulty cells per crossbar is Poisson distributed (fault clustering),
positions within a crossbar are uniform, and the SA0:SA1 ratio is configurable
(9:1 and 1:1 are the ratios evaluated).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_fraction,
    check_permutation,
    check_positive_int,
    check_probability_ratio,
)


@dataclass
class FaultMap:
    """Per-crossbar stuck-at-fault map.

    Attributes
    ----------
    sa0, sa1:
        Boolean arrays of shape ``(rows, cols)``; a cell can carry at most one
        fault type.
    """

    sa0: np.ndarray
    sa1: np.ndarray

    def __post_init__(self) -> None:
        self.sa0 = np.asarray(self.sa0, dtype=bool)
        self.sa1 = np.asarray(self.sa1, dtype=bool)
        if self.sa0.shape != self.sa1.shape:
            raise ValueError(
                f"sa0 and sa1 shapes differ: {self.sa0.shape} vs {self.sa1.shape}"
            )
        if self.sa0.ndim != 2:
            raise ValueError(f"fault masks must be 2-D, got {self.sa0.ndim}-D")
        if np.any(self.sa0 & self.sa1):
            raise ValueError("a cell cannot be both SA0 and SA1")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, rows: int, cols: int) -> "FaultMap":
        """A fault-free map."""
        rows = check_positive_int(rows, "rows")
        cols = check_positive_int(cols, "cols")
        return cls(np.zeros((rows, cols), dtype=bool), np.zeros((rows, cols), dtype=bool))

    @classmethod
    def from_indices(
        cls,
        shape: Tuple[int, int],
        sa0_indices: Sequence[Tuple[int, int]] = (),
        sa1_indices: Sequence[Tuple[int, int]] = (),
    ) -> "FaultMap":
        """Build a map from explicit (row, col) fault coordinates."""
        fmap = cls.empty(shape[0], shape[1])
        for r, c in sa0_indices:
            fmap.sa0[r, c] = True
        for r, c in sa1_indices:
            fmap.sa1[r, c] = True
        if np.any(fmap.sa0 & fmap.sa1):
            raise ValueError("a cell cannot be both SA0 and SA1")
        return fmap

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        return self.sa0.shape

    @property
    def num_sa0(self) -> int:
        return int(self.sa0.sum())

    @property
    def num_sa1(self) -> int:
        return int(self.sa1.sum())

    @property
    def num_faults(self) -> int:
        return self.num_sa0 + self.num_sa1

    @property
    def density(self) -> float:
        """Fraction of faulty cells in this crossbar."""
        return self.num_faults / self.sa0.size if self.sa0.size else 0.0

    @property
    def any_fault(self) -> np.ndarray:
        """Boolean mask of cells with either fault type."""
        return self.sa0 | self.sa1

    def is_fault_free(self) -> bool:
        return not (self.sa0.any() or self.sa1.any())

    @property
    def fingerprint(self) -> str:
        """Cheap content hash identifying this fault pattern.

        Two maps with equal shape and identical SA0/SA1 masks share the same
        fingerprint, which is what the mapping cost engine keys its result
        cache and its duplicate-crossbar detection on.  The digest is
        recomputed on every access (hashing a crossbar-sized boolean pair is
        micro-seconds), so mutating the masks in place never yields a stale
        key.  It is ``pattern_fingerprints`` of the stacked ``(sa0, sa1)``.
        """
        return pattern_fingerprints(np.array((self.sa0, self.sa1))[None])[0]

    def copy(self) -> "FaultMap":
        return FaultMap(self.sa0.copy(), self.sa1.copy())

    def permuted_rows(self, permutation: np.ndarray) -> "FaultMap":
        """Return the fault map seen by a block whose rows are permuted.

        ``permutation[i]`` gives the crossbar row that block row ``i`` is
        written to; the returned map is expressed in *block* row order.
        """
        permutation = check_permutation(
            permutation, self.shape[0], "crossbar row permutation"
        )
        return FaultMap(self.sa0[permutation], self.sa1[permutation])

    def merge(self, other: "FaultMap") -> "FaultMap":
        """Union of two fault maps (SA1 wins if both types collide).

        Used to overlay post-deployment faults on the pre-deployment map.
        """
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        sa1 = self.sa1 | other.sa1
        sa0 = (self.sa0 | other.sa0) & ~sa1
        return FaultMap(sa0, sa1)


def pattern_fingerprints(patterns: np.ndarray) -> List[str]:
    """Content hashes of a stack of boolean patterns, one per leading index.

    ``patterns`` has shape ``(N, K, *shape)``: pattern ``n`` is ``K`` boolean
    planes of ``shape``, and its fingerprint hashes ``shape`` and the packed
    bits of each plane in turn.  A fault map is the two planes ``(sa0, sa1)``
    (:attr:`FaultMap.fingerprint`) and a mapping block the one plane
    ``block > 0`` (:func:`repro.core.cost_engine.block_fingerprint`); the
    cost engine hashes all blocks or all fault maps of a plan in one call.
    """
    patterns = np.asarray(patterns, dtype=bool)
    count, planes = patterns.shape[:2]
    plane_shape = patterns.shape[2:]
    head = hashlib.blake2b(
        np.asarray(plane_shape, dtype=np.int64).tobytes(), digest_size=16
    )
    packed = np.packbits(
        patterns.reshape(count, planes, math.prod(plane_shape)), axis=-1
    )
    data = packed.tobytes()
    width = planes * packed.shape[-1]
    fingerprints = []
    for n in range(count):
        digest = head.copy()
        digest.update(data[n * width : (n + 1) * width])
        fingerprints.append(digest.hexdigest())
    return fingerprints


# --------------------------------------------------------------------------- #
# Applying faults to stored data
# --------------------------------------------------------------------------- #
def apply_faults_to_binary(block: np.ndarray, fault_map: FaultMap) -> np.ndarray:
    """Return the binary block as read back from a faulty crossbar.

    SA1 cells read as 1 (spurious edge), SA0 cells read as 0 (deleted edge).
    """
    block = np.asarray(block, dtype=np.float64)
    if block.shape != fault_map.shape:
        raise ValueError(
            f"block shape {block.shape} does not match fault map {fault_map.shape}"
        )
    out = block.copy()
    out[fault_map.sa1] = 1.0
    out[fault_map.sa0] = 0.0
    return out


def apply_faults_to_cells(
    cells: np.ndarray, sa0: np.ndarray, sa1: np.ndarray, cell_levels: int
) -> np.ndarray:
    """Return cell values as read back from faulty cells.

    ``cells`` holds integer cell values; SA0 forces 0 and SA1 forces
    ``cell_levels - 1``.  Masks must match ``cells``' shape.
    """
    cells = np.asarray(cells, dtype=np.int64)
    sa0 = np.asarray(sa0, dtype=bool)
    sa1 = np.asarray(sa1, dtype=bool)
    if sa0.shape != cells.shape or sa1.shape != cells.shape:
        raise ValueError("fault masks must match the cells array shape")
    out = cells.copy()
    out[sa0] = 0
    out[sa1] = cell_levels - 1
    return out


# --------------------------------------------------------------------------- #
# Fault generation
# --------------------------------------------------------------------------- #
class FaultModel:
    """Generates stuck-at-fault maps for a population of crossbars.

    Parameters
    ----------
    fault_density:
        Expected fraction of faulty cells over the whole crossbar population
        (the paper evaluates 0.01–0.05).
    sa0_sa1_ratio:
        Relative likelihood of SA0 vs SA1 faults, e.g. ``(9, 1)`` or ``(1, 1)``.
    clustered:
        If True (default) the per-crossbar fault count is Poisson distributed
        (fault clustering across crossbars); if False every crossbar gets the
        same expected count.
    """

    def __init__(
        self,
        fault_density: float,
        sa0_sa1_ratio: Tuple[float, float] = (9.0, 1.0),
        clustered: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        self.fault_density = check_fraction(fault_density, "fault_density")
        self.sa0_fraction, self.sa1_fraction = check_probability_ratio(*sa0_sa1_ratio)
        self.clustered = bool(clustered)
        self._rng = ensure_rng(seed)

    def __repr__(self) -> str:
        return (
            f"FaultModel(density={self.fault_density}, "
            f"sa0={self.sa0_fraction:.2f}, sa1={self.sa1_fraction:.2f}, "
            f"clustered={self.clustered})"
        )

    @property
    def rng_state(self) -> dict:
        """Snapshot of the generator state (see ``experiments/sweeps.py``).

        Restoring a captured state into a fresh model makes subsequent draws
        (e.g. post-deployment :meth:`inject_additional`) continue the exact
        random stream of the original — what lets the sweep engine rebuild a
        hardware environment from cached fault maps without re-sampling.
        """
        return self._rng.bit_generator.state

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state

    # ------------------------------------------------------------------ #
    def _sample_fault_map(
        self, rows: int, cols: int, num_faults: int, rng: np.random.Generator
    ) -> FaultMap:
        cells = rows * cols
        num_faults = min(num_faults, cells)
        fmap = FaultMap.empty(rows, cols)
        if num_faults == 0:
            return fmap
        flat = rng.choice(cells, size=num_faults, replace=False)
        is_sa1 = rng.random(num_faults) < self.sa1_fraction
        sa1_flat = flat[is_sa1]
        sa0_flat = flat[~is_sa1]
        fmap.sa0.flat[sa0_flat] = True
        fmap.sa1.flat[sa1_flat] = True
        return fmap

    def generate(
        self,
        num_crossbars: int,
        rows: int,
        cols: int,
        rng: Optional[np.random.Generator] = None,
    ) -> List[FaultMap]:
        """Generate pre-deployment fault maps for ``num_crossbars`` crossbars."""
        num_crossbars = check_positive_int(num_crossbars, "num_crossbars")
        rows = check_positive_int(rows, "rows")
        cols = check_positive_int(cols, "cols")
        rng = rng if rng is not None else self._rng
        mean_per_crossbar = self.fault_density * rows * cols
        maps: List[FaultMap] = []
        for _ in range(num_crossbars):
            if self.clustered:
                count = int(rng.poisson(mean_per_crossbar))
            else:
                count = int(round(mean_per_crossbar))
            maps.append(self._sample_fault_map(rows, cols, count, rng))
        return maps

    def inject_additional(
        self,
        fault_maps: Sequence[FaultMap],
        extra_density: float,
        rng: Optional[np.random.Generator] = None,
    ) -> List[FaultMap]:
        """Overlay post-deployment faults of density ``extra_density``.

        Returns new fault maps; the inputs are not modified.  Newly drawn
        fault positions that collide with existing faults keep the existing
        fault type.
        """
        extra_density = check_fraction(extra_density, "extra_density")
        rng = rng if rng is not None else self._rng
        result: List[FaultMap] = []
        for fmap in fault_maps:
            rows, cols = fmap.shape
            mean = extra_density * rows * cols
            count = int(rng.poisson(mean)) if self.clustered else int(round(mean))
            extra = self._sample_fault_map(rows, cols, count, rng)
            # Existing faults take precedence over newly emerged ones.
            extra.sa0 &= ~fmap.any_fault
            extra.sa1 &= ~fmap.any_fault
            merged = FaultMap(fmap.sa0 | extra.sa0, fmap.sa1 | extra.sa1)
            result.append(merged)
        return result


def population_density(fault_maps: Sequence[FaultMap]) -> float:
    """Overall fault density across a collection of fault maps."""
    total_cells = sum(f.sa0.size for f in fault_maps)
    if total_cells == 0:
        return 0.0
    total_faults = sum(f.num_faults for f in fault_maps)
    return total_faults / total_cells


def population_counts(fault_maps: Sequence[FaultMap]) -> Tuple[int, int]:
    """Return (total SA0, total SA1) counts across a collection of maps."""
    return (
        int(sum(f.num_sa0 for f in fault_maps)),
        int(sum(f.num_sa1 for f in fault_maps)),
    )
