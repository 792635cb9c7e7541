"""Fault-handling strategies: FARe and the baselines it is compared against.

A :class:`Strategy` is the pluggable policy the training pipeline consults at
four points:

1. **Pre-processing** — how adjacency blocks of every mini-batch are placed
   onto crossbars (:meth:`Strategy.plan_adjacency`).
2. **Weight storage** — whether weight-matrix rows are remapped before being
   programmed (:meth:`Strategy.weight_storage_permutation`, used by the
   neuron-reordering baseline).
3. **Read-back** — whether the effective weights read from the crossbars are
   clamped by the clipping comparators
   (:meth:`Strategy.transform_effective_weights`) and whether the master
   weights are clamped after the digital update
   (:meth:`Strategy.after_optimizer_step`).
4. **Epoch end** — how the mapping reacts to post-deployment faults reported
   by the BIST re-scan (:meth:`Strategy.refresh_adjacency`).

Implemented strategies (paper Section V):

* ``fault_free``    — ideal hardware reference (no faults applied at all).
* ``fault_unaware`` — naive mapping, no mitigation.
* ``nr``            — neuron reordering: coarse-grained remapping of weight
  rows and adjacency row-groups, recomputed every batch (high overhead).
* ``clipping``      — weight clipping only (combination phase protected,
  aggregation phase exposed).
* ``fare``          — the proposed framework: Algorithm 1 for the adjacency
  plus weight clipping, with post-deployment row-permutation refresh.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.clipping import WeightClipper
from repro.core.mapping import (
    BatchMapping,
    BlockMapping,
    FaultAwareMapper,
    MapperPlanState,
    permutation_mismatch_cost,
    sequential_mapping,
)
from repro.hardware.faults import FaultMap
from repro.matching.bipartite import solve_assignment
from repro.tensor.module import Module


class Strategy:
    """Base class: behaves exactly like the fault-unaware naive mapping."""

    #: Strategy identifier used in experiment tables.
    name = "base"
    #: Whether faults are applied at all (False only for the ideal reference).
    requires_hardware = True
    #: Whether the clipping pipeline stage is present (timing model).
    uses_clipping = False
    #: Whether a reordering stall occurs after every batch (timing model).
    reorders_every_batch = False
    #: Whether the one-time Algorithm 1 preprocessing runs (timing model).
    uses_fault_aware_mapping = False
    #: The trainer's :class:`~repro.core.hw_state.HardwareStateCache`, once
    #: attached; its hit/miss counters surface via :meth:`mapping_engine_stats`.
    _hw_state_cache = None
    #: The trainer's :class:`~repro.tensor.kernels.KernelStatsView`, once
    #: attached; the segment-reduce kernel call/hit counters of the run
    #: surface via :meth:`mapping_engine_stats` alongside the cache stats.
    _kernel_stats = None

    # ------------------------------------------------------------------ #
    # Aggregation phase
    # ------------------------------------------------------------------ #
    def plan_adjacency(
        self,
        blocks_per_batch: Sequence[Sequence[np.ndarray]],
        fault_maps: Sequence[FaultMap],
        crossbar_ids: Sequence[int],
        crossbar_rows: int,
    ) -> List[BatchMapping]:
        """Return one :class:`BatchMapping` per mini-batch (naive by default)."""
        plans = []
        for blocks in blocks_per_batch:
            plans.append(
                sequential_mapping(
                    len(blocks),
                    crossbar_rows,
                    len(crossbar_ids),
                    blocks=blocks,
                    fault_maps=fault_maps,
                )
            )
            for mapping in plans[-1].blocks:
                mapping.crossbar_index = crossbar_ids[
                    mapping.crossbar_index % len(crossbar_ids)
                ]
        return plans

    def refresh_adjacency(
        self,
        plans: List[BatchMapping],
        blocks_per_batch: Sequence[Sequence[np.ndarray]],
        fault_maps_by_id: Dict[int, FaultMap],
    ) -> List[BatchMapping]:
        """React to a post-deployment BIST re-scan (no-op by default)."""
        return plans

    def replan_adjacency(
        self,
        blocks_per_batch: Sequence[Sequence[np.ndarray]],
        fault_maps: Sequence[FaultMap],
        crossbar_ids: Sequence[int],
        crossbar_rows: int,
    ) -> List[BatchMapping]:
        """Full re-plan against new fault maps, warm-started where possible.

        Unlike :meth:`refresh_adjacency` (which keeps the block → crossbar
        assignment Π and only refreshes row permutations), this recomputes
        the complete plan — bit-identical to calling :meth:`plan_adjacency`
        from scratch on the new maps.  Strategies with delta-planning support
        (FARe) reuse the previous plan's solver state so the cost scales with
        the fault delta; the base implementation simply re-plans cold.
        """
        return self.plan_adjacency(
            blocks_per_batch, fault_maps, crossbar_ids, crossbar_rows
        )

    def plan_signature(self) -> Optional[Tuple]:
        """Content key of :meth:`plan_adjacency`'s output, or ``None``.

        Two strategy instances whose signatures compare equal produce
        identical plans from identical ``(blocks, fault maps, crossbar ids,
        rows)`` inputs — what the sweep engine's shared-plan artifact keys on
        (the plan is independent of the model and of knobs like clipping
        thresholds, so e.g. fault-unaware and clipping-only share one
        sequential plan).  ``None`` opts out of sharing.

        Safe by construction: the ``("sequential",)`` key is only reported
        when the class genuinely inherits this base sequential planner.  A
        subclass that overrides :meth:`plan_adjacency` gets ``None`` — no
        sharing — until it declares its own signature covering every knob
        its planning depends on.
        """
        if type(self).plan_adjacency is not Strategy.plan_adjacency:
            return None
        return ("sequential",)

    # ------------------------------------------------------------------ #
    # Combination phase
    # ------------------------------------------------------------------ #
    def weight_storage_permutation(
        self,
        name: str,
        values: np.ndarray,
        mismatch_cost_fn: Callable[[], np.ndarray],
    ) -> Optional[np.ndarray]:
        """Optional permutation of weight-matrix rows before programming.

        ``mismatch_cost_fn()`` lazily computes the (logical row × physical
        row) cell-mismatch cost matrix (see
        :meth:`~repro.pipeline.mapping_engine.WeightCrossbarMapper.row_mismatch_cost`).
        Return ``None`` to store rows in their natural order.
        """
        return None

    def transform_effective_weights(self, name: str, effective: np.ndarray) -> np.ndarray:
        """Post-process the faulty weights read back from the crossbars."""
        return effective

    def after_optimizer_step(self, model: Module) -> None:
        """Hook run after every digital weight update."""

    def on_epoch_end(self) -> None:
        """Hook run at the end of every training epoch."""

    def attach_hw_state_cache(self, cache) -> None:
        """Attach the trainer's hardware-state cache for stats surfacing.

        The :class:`~repro.pipeline.trainer.FaultyTrainer` calls this during
        pre-processing so the cache's hit/miss counters flow through the same
        channel as the mapping cost engine's (:meth:`mapping_engine_stats` →
        trainer counters → timing components).
        """
        self._hw_state_cache = cache

    def attach_kernel_stats(self, view) -> None:
        """Attach a per-run :class:`~repro.tensor.kernels.KernelStatsView`.

        The trainer attaches one snapshot view per run so the segment-reduce
        kernel counters (``kernel_*``: reduceat scatter/gather calls,
        transpose-memo hits) flow through the same channel as the mapping
        cost engine's and hardware-state cache's counters.
        """
        self._kernel_stats = view

    def mapping_engine_stats(self) -> Optional[Dict[str, float]]:
        """Cache/work counters of the mapping machinery, if any is in use.

        The base implementation reports the attached hardware-state cache's
        hit/miss counters (``hw_*``) and the attached segment-reduce kernel
        counters (``kernel_*``); strategies that run Algorithm 1 (FARe)
        merge in their cost engine's counters (``mapping_*``).  Returns
        ``None`` when nothing is attached, e.g. for a freshly built strategy
        that has not been handed to a trainer.  The timing model and the
        trainer surface whatever is reported (see
        :mod:`repro.pipeline.timing`).
        """
        stats: Dict[str, float] = {}
        if self._hw_state_cache is not None:
            stats.update(self._hw_state_cache.stats.as_dict())
        if self._kernel_stats is not None:
            stats.update(self._kernel_stats.as_dict())
        return stats or None

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class FaultFreeStrategy(Strategy):
    """Ideal hardware: no faults are applied anywhere (upper-bound reference)."""

    name = "fault_free"
    requires_hardware = False

    def plan_signature(self) -> Optional[Tuple]:
        """No hardware, no adjacency plan."""
        return None


class FaultUnawareStrategy(Strategy):
    """Naive training on faulty hardware without any mitigation."""

    name = "fault_unaware"


class WeightClippingStrategy(Strategy):
    """Weight clipping only (combination phase protected, aggregation exposed)."""

    name = "clipping"
    uses_clipping = True

    def __init__(self, threshold: float = 1.0) -> None:
        self.clipper = WeightClipper(threshold)

    def transform_effective_weights(self, name: str, effective: np.ndarray) -> np.ndarray:
        return self.clipper.clip_array(effective)

    def after_optimizer_step(self, model: Module) -> None:
        self.clipper.clip_model(model)


class NeuronReorderingStrategy(Strategy):
    """Neuron reordering (NR) baseline.

    Weight-matrix rows and adjacency row-groups are remapped so that stored
    values overlap with the stuck-at values, but — mirroring the paper's
    observation — the remapping granularity is coarse (an entire neuron's
    weights spanning all its cells move as one unit) and the SA1/SA0
    asymmetry is ignored.

    Because the weights change after every batch, the remapped layout has to
    be re-validated and re-programmed after every update — the pipeline stall
    the paper charges NR with (``reorders_every_batch``) and the reason for
    its 2.5-4x slow-down in Fig. 7.  In the accuracy simulation the
    permutation itself is computed once during pre-processing (from the
    initial weights and the BIST fault map) and kept for the rest of
    training: re-aligning faults with *different* weights as training
    progresses amounts to injecting fresh noise at every realignment and
    collapses training outright, which is clearly not the behaviour reported
    for NR [7].  The kept permutation reproduces NR's reported accuracy
    shape — better than fault-unaware, clearly worse than FARe, and markedly
    worse under the 1:1 SA0:SA1 ratio because the matching ignores SA1
    criticality.
    """

    name = "nr"
    reorders_every_batch = True

    def __init__(self, group_size: int = 8, method: str = "greedy") -> None:
        if group_size <= 0:
            raise ValueError(f"group_size must be positive, got {group_size}")
        self.group_size = int(group_size)
        self.method = method
        self._weight_permutations: Dict[str, np.ndarray] = {}

    def plan_signature(self) -> Optional[Tuple]:
        # Same guard as the base class: a subclass overriding the planning
        # must declare its own signature before its plans may be shared.
        if (
            type(self).plan_adjacency is not NeuronReorderingStrategy.plan_adjacency
            or type(self)._group_permutation
            is not NeuronReorderingStrategy._group_permutation
        ):
            return None
        return ("nr", self.group_size, self.method)

    # -- aggregation ---------------------------------------------------- #
    def plan_adjacency(
        self,
        blocks_per_batch: Sequence[Sequence[np.ndarray]],
        fault_maps: Sequence[FaultMap],
        crossbar_ids: Sequence[int],
        crossbar_rows: int,
    ) -> List[BatchMapping]:
        plans: List[BatchMapping] = []
        for blocks in blocks_per_batch:
            plan = sequential_mapping(len(blocks), crossbar_rows, len(crossbar_ids))
            for mapping in plan.blocks:
                local = mapping.crossbar_index % len(crossbar_ids)
                mapping.crossbar_index = crossbar_ids[local]
                mapping.row_permutation = self._group_permutation(
                    blocks[mapping.block_index], fault_maps[local]
                )
                mapping.cost, mapping.sa1_mismatch = permutation_mismatch_cost(
                    blocks[mapping.block_index],
                    fault_maps[local],
                    mapping.row_permutation,
                )
            plans.append(plan)
        return plans

    def _group_permutation(self, block: np.ndarray, fault_map: FaultMap) -> np.ndarray:
        """Permute groups of ``group_size`` rows to reduce (unweighted) mismatch."""
        block = np.asarray(block, dtype=np.float64)
        n = block.shape[0]
        group = min(self.group_size, n)
        num_groups = n // group
        if num_groups <= 1:
            return np.arange(n, dtype=np.int64)
        usable = num_groups * group
        ones = (block[:usable] > 0).reshape(num_groups, group, -1)
        sa0 = fault_map.sa0[:usable].reshape(num_groups, group, -1)
        sa1 = fault_map.sa1[:usable].reshape(num_groups, group, -1)
        # cost[g, h] = mismatches when block group g is stored in crossbar
        # group h, keeping the within-group row order (coarse unit).
        ones_flat = ones.reshape(num_groups, -1)
        zeros_flat = 1.0 - ones_flat
        sa0_flat = sa0.reshape(num_groups, -1).astype(np.float64)
        sa1_flat = sa1.reshape(num_groups, -1).astype(np.float64)
        cost = ones_flat @ sa0_flat.T + zeros_flat @ sa1_flat.T
        group_assignment, _ = solve_assignment(cost, method=self.method)
        permutation = np.arange(n, dtype=np.int64)
        for g in range(num_groups):
            target = int(group_assignment[g])
            permutation[g * group : (g + 1) * group] = np.arange(
                target * group, (target + 1) * group, dtype=np.int64
            )
        return permutation

    # -- combination ---------------------------------------------------- #
    def weight_storage_permutation(
        self,
        name: str,
        values: np.ndarray,
        mismatch_cost_fn: Callable[[], np.ndarray],
    ) -> Optional[np.ndarray]:
        """Remap weight rows so their cells overlap with the stuck values.

        The reordering unit is an entire weight-matrix row (all cells of all
        its weights move together — the coarse granularity the paper points
        out limits NR's effectiveness) and the SA0/SA1 asymmetry is ignored.
        The permutation is computed on the first call per parameter and then
        kept (see the class docstring for why).
        """
        cached = self._weight_permutations.get(name)
        if cached is not None:
            return cached
        cost = np.asarray(mismatch_cost_fn(), dtype=np.float64)
        if cost.shape[0] != np.asarray(values).shape[0]:
            raise ValueError("mismatch cost rows must match the weight's row count")
        if not cost.any():
            return None
        assignment, _ = solve_assignment(cost, method=self.method)
        permutation = assignment.astype(np.int64)
        self._weight_permutations[name] = permutation
        return permutation

    def reset_weight_permutations(self) -> None:
        """Drop the cached permutations (used when re-planning from scratch)."""
        self._weight_permutations.clear()

    def refresh_adjacency(
        self,
        plans: List[BatchMapping],
        blocks_per_batch: Sequence[Sequence[np.ndarray]],
        fault_maps_by_id: Dict[int, FaultMap],
    ) -> List[BatchMapping]:
        """Recompute the coarse row-group permutations against new fault maps."""
        refreshed: List[BatchMapping] = []
        for plan, blocks in zip(plans, blocks_per_batch):
            updated = BatchMapping(blocks=[])
            for mapping in plan.blocks:
                fmap = fault_maps_by_id[mapping.crossbar_index]
                permutation = self._group_permutation(
                    blocks[mapping.block_index], fmap
                )
                cost, sa1 = permutation_mismatch_cost(
                    blocks[mapping.block_index], fmap, permutation
                )
                updated.blocks.append(
                    BlockMapping(
                        block_index=mapping.block_index,
                        crossbar_index=mapping.crossbar_index,
                        row_permutation=permutation,
                        cost=cost,
                        sa1_mismatch=sa1,
                    )
                )
            refreshed.append(updated)
        return refreshed


class FaReStrategy(Strategy):
    """The proposed FARe framework (Algorithm 1 + weight clipping)."""

    name = "fare"
    uses_clipping = True
    uses_fault_aware_mapping = True

    def __init__(
        self,
        clipping_threshold: float = 1.0,
        sa1_weight: float = 4.0,
        row_method: str = "greedy",
        assignment_method: str = "hungarian",
        prune_crossbars: bool = True,
        relax_sparsest_block: bool = True,
    ) -> None:
        self.clipper = WeightClipper(clipping_threshold)
        self.mapper = FaultAwareMapper(
            sa1_weight=sa1_weight,
            row_method=row_method,
            assignment_method=assignment_method,
            prune_crossbars=prune_crossbars,
            relax_sparsest_block=relax_sparsest_block,
        )
        #: Per-batch solver state captured by :meth:`plan_adjacency`, so a
        #: later :meth:`replan_adjacency` only re-solves the fault delta (a
        #: fresh strategy has none and plans cold; plans are bit-identical
        #: either way).
        self._plan_states: Optional[List[Optional[MapperPlanState]]] = None

    # -- aggregation ---------------------------------------------------- #
    def plan_signature(self) -> Optional[Tuple]:
        # Same guard as the base class: a subclass overriding the planning
        # must declare its own signature before its plans may be shared.
        if type(self).plan_adjacency is not FaReStrategy.plan_adjacency:
            return None
        mapper = self.mapper
        return (
            "fare",
            mapper.sa1_weight,
            mapper.row_method,
            mapper.assignment_method,
            mapper.prune_crossbars,
            mapper.relax_sparsest_block,
        )

    def plan_adjacency(
        self,
        blocks_per_batch: Sequence[Sequence[np.ndarray]],
        fault_maps: Sequence[FaultMap],
        crossbar_ids: Sequence[int],
        crossbar_rows: int,
    ) -> List[BatchMapping]:
        plans: List[BatchMapping] = []
        states: List[Optional[MapperPlanState]] = []
        for blocks in blocks_per_batch:
            mapping, state = self.mapper.plan_blocks(
                blocks, fault_maps, crossbar_ids=crossbar_ids
            )
            plans.append(mapping)
            states.append(state)
        self._plan_states = states
        return plans

    def replan_adjacency(
        self,
        blocks_per_batch: Sequence[Sequence[np.ndarray]],
        fault_maps: Sequence[FaultMap],
        crossbar_ids: Sequence[int],
        crossbar_rows: int,
    ) -> List[BatchMapping]:
        """Delta re-plan: warm-start each batch from its previous plan state."""
        states = self._plan_states
        if states is None or len(states) != len(blocks_per_batch):
            return self.plan_adjacency(
                blocks_per_batch, fault_maps, crossbar_ids, crossbar_rows
            )
        plans: List[BatchMapping] = []
        new_states: List[Optional[MapperPlanState]] = []
        for blocks, state in zip(blocks_per_batch, states):
            mapping, new_state = self.mapper.replan_blocks(
                blocks, fault_maps, crossbar_ids=crossbar_ids, prev_state=state
            )
            plans.append(mapping)
            new_states.append(new_state)
        self._plan_states = new_states
        return plans

    def refresh_adjacency(
        self,
        plans: List[BatchMapping],
        blocks_per_batch: Sequence[Sequence[np.ndarray]],
        fault_maps_by_id: Dict[int, FaultMap],
    ) -> List[BatchMapping]:
        """Post-deployment refresh: keep Π, recompute row permutations."""
        return [
            self.mapper.update_row_permutations(plan, blocks, fault_maps_by_id)
            for plan, blocks in zip(plans, blocks_per_batch)
        ]

    # -- combination ---------------------------------------------------- #
    def transform_effective_weights(self, name: str, effective: np.ndarray) -> np.ndarray:
        return self.clipper.clip_array(effective)

    def after_optimizer_step(self, model: Module) -> None:
        self.clipper.clip_model(model)

    # -- introspection --------------------------------------------------- #
    def mapping_engine_stats(self) -> Optional[Dict[str, float]]:
        stats = dict(super().mapping_engine_stats() or {})
        stats.update(self.mapper.cost_engine.stats.as_dict())
        return stats


#: Registry of strategy builders keyed by the names used in the experiments.
STRATEGY_REGISTRY = {
    "fault_free": FaultFreeStrategy,
    "fault_unaware": FaultUnawareStrategy,
    "nr": NeuronReorderingStrategy,
    "clipping": WeightClippingStrategy,
    "fare": FaReStrategy,
}


def build_strategy(name: str, **kwargs) -> Strategy:
    """Instantiate a strategy by name, forwarding keyword arguments."""
    key = name.lower()
    if key not in STRATEGY_REGISTRY:
        raise KeyError(
            f"unknown strategy {name!r}; available: {sorted(STRATEGY_REGISTRY)}"
        )
    return STRATEGY_REGISTRY[key](**kwargs)
