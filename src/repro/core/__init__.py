"""The FARe framework (paper Section IV) and baseline fault-handling strategies.

* :mod:`~repro.core.batch_solvers` — lockstep-batched exact assignment
  solvers (Hungarian, b-Suitor) for the cost engine's pair stacks,
  bit-identical to the scalar solvers in :mod:`repro.matching`.
* :mod:`~repro.core.clipping` — weight clipping for the combination phase.
* :mod:`~repro.core.cost_engine` — batched, cached computation of Algorithm
  1's inner-loop costs (fingerprint dedupe, result cache, one batched pair
  path for plans and the post-deployment refresh).
* :mod:`~repro.core.hw_state` — versioned effective-state cache: per-batch
  faulty adjacency read-backs and effective weights are derived once per
  state change (fault injection, plan refresh, optimiser step) instead of
  once per batch.
* :mod:`~repro.core.mapping` — Algorithm 1: fault-aware mapping of adjacency
  blocks onto crossbars (block decomposition, SA1-weighted row-permutation
  cost, crossbar pruning, optimal block→crossbar assignment).
* :mod:`~repro.core.strategies` — the pluggable strategy objects the training
  pipeline consumes: ``fault_free``, ``fault_unaware``, ``nr`` (neuron
  reordering), ``clipping`` and ``fare``.
"""

from repro.core.clipping import WeightClipper
from repro.core.cost_engine import (
    CostEngineStats,
    MappingCostEngine,
    block_fingerprint,
)
from repro.core.hw_state import HardwareStateCache, HwStateStats
from repro.core.mapping import (
    BlockMapping,
    BatchMapping,
    FaultAwareMapper,
    sequential_mapping,
    sequential_plans,
)
from repro.core.strategies import (
    STRATEGY_REGISTRY,
    FaReStrategy,
    FaultUnawareStrategy,
    NeuronReorderingStrategy,
    Strategy,
    WeightClippingStrategy,
    build_strategy,
)

__all__ = [
    "WeightClipper",
    "CostEngineStats",
    "MappingCostEngine",
    "block_fingerprint",
    "HardwareStateCache",
    "HwStateStats",
    "BlockMapping",
    "BatchMapping",
    "FaultAwareMapper",
    "sequential_mapping",
    "sequential_plans",
    "STRATEGY_REGISTRY",
    "Strategy",
    "FaultUnawareStrategy",
    "NeuronReorderingStrategy",
    "WeightClippingStrategy",
    "FaReStrategy",
    "build_strategy",
]
