"""Versioned effective-state cache for the simulated accelerator.

The training loop re-derives two expensive views of hardware state for every
batch of every epoch:

* the **faulty adjacency read-back** — every adjacency block of the batch is
  programmed onto its assigned crossbar and read back through the stuck-at
  masks (:meth:`AdjacencyCrossbarMapper.apply_mapping`, which computes it in
  sparse coordinates from the batch CSR and the plan, O(nnz + #faults));
* the **effective weights** — every 2-D parameter runs through the
  quantise → bit-slice → fault → reassemble → dequantise pipeline
  (:meth:`WeightCrossbarMapper.effective_weights`).

Both are pure functions of slowly-changing state.  The adjacency read-back
only changes when a fault map changes (post-deployment injection, BIST-driven
re-mapping) or the block → crossbar plan is refreshed; the effective weights
only change when the digital optimiser steps or the weight-crossbar fault
masks are refreshed.  During ``evaluate()`` *neither* changes, yet the seed
loop recomputed both per batch.

:class:`HardwareStateCache` turns these derivations into versioned,
invalidate-on-change lookups:

* adjacency results are keyed on ``(plan version, fault clock)`` — the
  fault component is the :class:`~repro.hardware.crossbar.FaultClock` of the
  adjacency crossbars (their group of the split
  :class:`~repro.hardware.tile.CrossbarPool`), which every
  :meth:`Crossbar.set_fault_map` on one of them advances and no fault change
  on a weight crossbar does, so it is read in O(1) per fetch and equals the
  sum of their ``fault_epoch``; the plan component is bumped explicitly by
  the trainer after :meth:`Strategy.refresh_adjacency`;
* effective weights are keyed on ``(optimizer.param_version,
  weight_mapper.fault_version)`` — the former advances on every
  ``optimizer.step()``, the latter on every
  :meth:`WeightCrossbarMapper.refresh_fault_masks`.  The first fetch under a
  new key reads every mapped weight back in one pass; hits and misses are
  still counted per weight.

Cache hits still advance the *simulated* write accounting (the hardware
re-programs its blocks every batch regardless of what the simulator
recomputes), so the endurance counters and the write-event counters feeding
the Fig. 7 timing model are identical to a run that recomputes every batch.
That uncached run is the pass-through cache in ``tests/reference/hardware.py``
(``tests/test_core_hw_state.py`` holds the bit-identity proof).  The
trainer that owns the cache copies its hit/miss counters (``hw_*``) into
``TrainingResult.counters``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

import numpy as np

from repro.graph.sparse import CSRMatrix


@dataclass
class HwStateStats:
    """Hit/miss counters of the two effective-state caches."""

    adjacency_hits: int = 0
    adjacency_misses: int = 0
    adjacency_invalidations: int = 0
    weight_hits: int = 0
    weight_misses: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hw_adjacency_cache_hits": float(self.adjacency_hits),
            "hw_adjacency_cache_misses": float(self.adjacency_misses),
            "hw_adjacency_cache_invalidations": float(self.adjacency_invalidations),
            "hw_weight_cache_hits": float(self.weight_hits),
            "hw_weight_cache_misses": float(self.weight_misses),
        }


@dataclass
class _AdjacencyEntry:
    """One cached per-batch read-back plus its simulated-write bookkeeping.

    ``writes_per_crossbar`` holds resolved crossbar objects (not ids) so the
    per-hit replay loop does no dictionary lookups.
    """

    key: Tuple
    result: CSRMatrix
    writes_per_crossbar: list
    num_blocks: int


class HardwareStateCache:
    """Epoch-cached hardware read-back for one training run.

    Parameters
    ----------
    adjacency_mapper:
        The run's :class:`~repro.pipeline.mapping_engine.AdjacencyCrossbarMapper`.
    weight_mapper:
        The run's :class:`~repro.pipeline.mapping_engine.WeightCrossbarMapper`
        (optional — only needed for :meth:`effective_weights`).
    """

    def __init__(self, adjacency_mapper, weight_mapper=None) -> None:
        self.adjacency_mapper = adjacency_mapper
        self.weight_mapper = weight_mapper
        self.stats = HwStateStats()
        self._plan_version = 0
        # The distinct fault clocks of the adjacency crossbars: one when they
        # are a group of a split pool.
        clocks = {id(x.fault_clock): x.fault_clock for x in adjacency_mapper.crossbars}
        self._fault_clocks = tuple(clocks.values())
        self._adjacency_cache: Dict[int, _AdjacencyEntry] = {}
        # (key, {name: effective weights}, names fetched under key).
        self._weights: Tuple[Optional[Tuple], Dict[str, np.ndarray], Set[str]] = (
            None,
            {},
            set(),
        )

    # ------------------------------------------------------------------ #
    # Versioning
    # ------------------------------------------------------------------ #
    def bump_plan_version(self) -> None:
        """Invalidate cached read-backs after a mapping-plan refresh.

        Fault-map changes are tracked automatically through the crossbars'
        fault clock; this explicit bump covers the second
        invalidation source — the strategy rewriting its
        :class:`~repro.core.mapping.BatchMapping` plans (row permutations,
        block placement) at the epoch boundary.
        """
        self._plan_version += 1
        self.stats.adjacency_invalidations += 1
        self._adjacency_cache.clear()

    def _adjacency_key(self) -> Tuple:
        # The fault clocks strictly increase on any set_fault_map, so a stale
        # entry can never collide with a new state.
        return (self._plan_version, *(clock.ticks for clock in self._fault_clocks))

    def state_key(self) -> Tuple:
        """Opaque token identifying the current hardware state.

        Changes whenever a cached read-back could go stale (mapping-plan
        refresh or fault-map change) and never otherwise, so callers can
        memoise derived artifacts — e.g. the trainer's fused eval buckets —
        against it.
        """
        return self._adjacency_key()

    # ------------------------------------------------------------------ #
    # Adjacency read-back
    # ------------------------------------------------------------------ #
    def batch_adjacency(
        self, batch_index: int, adjacency: CSRMatrix, mapping
    ) -> CSRMatrix:
        """Faulty read-back of one batch's adjacency, cached per state version.

        On a hit the cached :class:`CSRMatrix` (immutable) is returned and the
        simulated write accounting — ``block_write_events`` plus per-crossbar
        endurance counters — is replayed in bulk, keeping every counter
        identical to the uncached per-batch loop.

        One deliberate relaxation: a hit does *not* rewrite the crossbars'
        stored contents, so between state changes ``Crossbar.read_ideal()``
        on an adjacency crossbar reflects the last recomputed batch rather
        than the last batch trained on (re-storing identical bits per hit is
        exactly the work the cache exists to avoid).  All training-visible
        outputs — read-backs, losses, accuracies, write/endurance counters —
        are bit-identical to the uncached path (``tests/test_core_hw_state.py``).
        """
        mapper = self.adjacency_mapper
        key = self._adjacency_key()
        entry = self._adjacency_cache.get(batch_index)
        if entry is not None and entry.key == key:
            self.stats.adjacency_hits += 1
            mapper.block_write_events += entry.num_blocks
            for crossbar, count in entry.writes_per_crossbar:
                crossbar.record_simulated_writes(count)
            return entry.result
        self.stats.adjacency_misses += 1
        result = mapper.apply_mapping(adjacency, mapping)
        self._adjacency_cache[batch_index] = _AdjacencyEntry(
            key=key,
            result=result,
            writes_per_crossbar=mapper.writes_per_crossbar(mapping),
            num_blocks=len(mapping.blocks),
        )
        return result

    def replay_adjacency_writes(self, batch_index: int) -> None:
        """Replay one batch's simulated write accounting without a fetch.

        The fused train path memoises whole block-diagonal *buckets* against
        :meth:`state_key` and therefore skips the per-member
        :meth:`batch_adjacency` calls entirely between state changes.  The
        hardware still re-programs every member's blocks each epoch, so the
        trainer calls this per skipped member to advance
        ``block_write_events`` and the per-crossbar endurance counters (and
        the hit statistic) exactly as the per-member hit path would have.
        The bucket memo is only ever hit under the state key its members
        were fetched at, so the member's current-state entry always exists.
        """
        entry = self._adjacency_cache[batch_index]
        self.stats.adjacency_hits += 1
        self.adjacency_mapper.block_write_events += entry.num_blocks
        for crossbar, count in entry.writes_per_crossbar:
            crossbar.record_simulated_writes(count)

    # ------------------------------------------------------------------ #
    # Effective weights
    # ------------------------------------------------------------------ #
    def effective_weights(
        self,
        name: str,
        key: Tuple,
        read_back: Callable[[Tuple[str, ...]], Dict[str, np.ndarray]],
        count_write: bool = False,
    ) -> np.ndarray:
        """Effective-weight view of parameter ``name`` under version ``key``.

        ``read_back(names)`` runs the full transform (storage permutation,
        faulty read-back, strategy post-processing) of the named weights and
        returns ``{name: effective values}``.  The first fetch under a new
        key reads back every mapped weight at once, and every fetch under
        that key takes its view from it; a weight's first fetch under a key
        counts as its miss, later ones as hits.  ``count_write`` records one
        simulated re-programming of the weight per fetch — True during
        training (where hardware re-programs per batch), False during
        evaluation (re-read only).
        """
        cached_key, views, fetched = self._weights
        if cached_key != key:
            views = read_back(tuple(self.weight_mapper.layouts))
            fetched = set()
            self._weights = (key, views, fetched)
        if name in fetched:
            self.stats.weight_hits += 1
        else:
            self.stats.weight_misses += 1
            fetched.add(name)
        if count_write:
            self.weight_mapper.record_write(name)
        return views[name]
