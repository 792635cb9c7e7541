"""Pipelined-execution timing model (paper Section V-E, Fig. 7).

The accelerator trains with a PipeLayer-style pipeline: the ``N`` input
subgraphs of an epoch stream through ``S`` pipeline stages, so one epoch
takes ``(N + S - 1) × d`` where ``d`` is the stage delay.  The
fault-tolerance strategies perturb this baseline in different ways:

* **Weight clipping** adds one pipeline stage (the comparator/mux stage), so
  the depth becomes ``N + S`` — negligible because ``N >> S``.
* **FARe** additionally pays a one-time host-side pre-processing cost to run
  Algorithm 1 (~1 % of training time) and, when post-deployment faults are
  tracked, the BIST's 0.13 % per-epoch overhead.  The post-deployment row
  re-permutation runs on the host concurrently with ReRAM execution and adds
  no pipeline time.
* **Neuron reordering (NR)** stalls the pipeline after *every* mini-batch: the
  updated weights must be re-ordered on the host and re-programmed into the
  weight crossbars before the next batch can start.

All Fig. 7 numbers are reported normalised to fault-free training, so only
the ratios between these terms matter; the absolute constants come from
:class:`~repro.hardware.energy.TileCostModel`.

Everything here is *simulated* accelerator time: :class:`TimingBreakdown`
and its ``components`` hold simulated seconds only.  The host's work
counters of a training run (cache hits, kernel calls) are on
``TrainingResult.counters``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.strategies import Strategy
from repro.graph.datasets import DATASET_REGISTRY, DatasetSpec
from repro.hardware.config import DEFAULT_CONFIG, ReRAMConfig
from repro.hardware.energy import TileCostModel


@dataclass(frozen=True)
class TimingInputs:
    """Workload counts consumed by the timing model.

    The counts can come either from an actual :class:`FaultyTrainer` run
    (:meth:`TimingInputs.from_counters`) or from the paper-scale dataset
    specification (:func:`timing_inputs_from_spec`), which is how Fig. 7 is
    regenerated without training the full-size datasets.

    Attributes
    ----------
    num_pipeline_units:
        Number of subgraphs streamed through the pipeline per epoch
        (the paper's ``N``).
    num_batches:
        Number of mini-batches per epoch (each groups several subgraphs);
        this is the granularity at which the NR baseline stalls.
    avg_subgraph_nodes:
        Average node count of one pipeline unit, which sets the stage delay.
    """

    num_pipeline_units: int
    num_batches: int
    epochs: int
    avg_subgraph_nodes: float
    blocks_per_batch: float
    num_adjacency_crossbars: int
    num_weight_crossbars: int
    pipeline_stages: int = 5
    reorder_units: int = 1024
    track_post_deployment: bool = False

    @classmethod
    def from_counters(
        cls,
        counters: Dict[str, float],
        pipeline_stages: int = 5,
        track_post_deployment: bool = False,
    ) -> "TimingInputs":
        """Build inputs from the counters a :class:`FaultyTrainer` collected."""
        num_batches = int(counters.get("num_batches", 1))
        total_blocks = counters.get("total_blocks", float(num_batches))
        return cls(
            num_pipeline_units=num_batches,
            num_batches=num_batches,
            epochs=int(counters.get("epochs", 1)),
            avg_subgraph_nodes=float(counters.get("avg_batch_nodes", 1.0)),
            blocks_per_batch=total_blocks / max(num_batches, 1),
            num_adjacency_crossbars=int(counters.get("num_adjacency_crossbars", 1)),
            num_weight_crossbars=int(counters.get("num_weight_crossbars", 1)),
            pipeline_stages=pipeline_stages,
            reorder_units=int(counters.get("reorder_units", 1024)),
            track_post_deployment=track_post_deployment,
        )


@dataclass
class TimingBreakdown:
    """Execution-time components of one training run (simulated seconds)."""

    strategy: str
    pipeline_time: float
    clipping_stage_time: float = 0.0
    preprocessing_time: float = 0.0
    bist_time: float = 0.0
    reorder_stall_time: float = 0.0
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return (
            self.pipeline_time
            + self.clipping_stage_time
            + self.preprocessing_time
            + self.bist_time
            + self.reorder_stall_time
        )

    def normalized(self, baseline: "TimingBreakdown") -> float:
        """Execution time normalised to ``baseline`` (fault-free)."""
        if baseline.total <= 0:
            raise ValueError("baseline total time must be positive")
        return self.total / baseline.total


def _stage_delay_s(inputs: TimingInputs, cost_model: TileCostModel) -> float:
    """Delay of one pipeline stage: stream every node vector of the subgraph
    through the crossbars plus the (double-buffered) adjacency block write."""
    mvm_stream = inputs.avg_subgraph_nodes * cost_model.mvm_latency_s()
    return mvm_stream + cost_model.crossbar_write_latency_s()


def estimate_execution_time(
    strategy: Strategy,
    inputs: TimingInputs,
    cost_model: Optional[TileCostModel] = None,
    config: ReRAMConfig = DEFAULT_CONFIG,
) -> TimingBreakdown:
    """Estimate the end-to-end training time for ``strategy`` on ``inputs``."""
    cost_model = cost_model or TileCostModel(config=config)
    stage_delay = _stage_delay_s(inputs, cost_model)
    depth = inputs.num_pipeline_units + inputs.pipeline_stages - 1
    pipeline_time = inputs.epochs * depth * stage_delay

    breakdown = TimingBreakdown(strategy=strategy.name, pipeline_time=pipeline_time)
    breakdown.components["stage_delay_s"] = stage_delay

    if strategy.uses_clipping:
        # One extra pipeline stage per epoch (depth N + S instead of N + S - 1).
        breakdown.clipping_stage_time = inputs.epochs * stage_delay

    if strategy.uses_fault_aware_mapping:
        total_blocks = inputs.num_batches * inputs.blocks_per_batch
        breakdown.preprocessing_time = cost_model.mapping_preprocess_time_s(
            int(total_blocks), inputs.num_adjacency_crossbars
        )
        if inputs.track_post_deployment:
            # BIST re-scan at the end of every epoch (~0.13 % of epoch time).
            breakdown.bist_time = (
                inputs.epochs * depth * stage_delay * config.bist_time_overhead
            )

    if strategy.reorders_every_batch:
        # The pipeline stalls after every batch: the reordered weights must be
        # re-programmed into every weight crossbar (serialised writes, one
        # write driver per tile) and the host recomputes the permutation.
        write_parallelism = max(config.num_tiles, 1)
        reprogram = (
            inputs.num_weight_crossbars / write_parallelism
        ) * cost_model.crossbar_write_latency_s()
        host = cost_model.neuron_reorder_time_s(inputs.reorder_units)
        breakdown.reorder_stall_time = (
            inputs.epochs * inputs.num_batches * (reprogram + host)
        )
        breakdown.components["reorder_stall_per_batch_s"] = reprogram + host

    return breakdown


# --------------------------------------------------------------------------- #
# Paper-scale inputs for Fig. 7
# --------------------------------------------------------------------------- #
#: Input feature dimensionality of the real datasets (used only by the
#: analytical Fig. 7 timing model, which never materialises the graphs).
PAPER_FEATURE_DIMS: Dict[str, int] = {
    "ppi": 50,
    "reddit": 602,
    "amazon2m": 100,
    "ogbl": 128,
}

#: Output dimensionality of the real datasets (classes / label count).
PAPER_CLASS_DIMS: Dict[str, int] = {
    "ppi": 121,
    "reddit": 41,
    "amazon2m": 47,
    "ogbl": 40,
}


def timing_inputs_from_spec(
    spec: DatasetSpec,
    hidden_features: int = 1024,
    epochs: int = 100,
    pipeline_stages: int = 5,
    config: ReRAMConfig = DEFAULT_CONFIG,
    track_post_deployment: bool = False,
) -> TimingInputs:
    """Build paper-scale :class:`TimingInputs` from a Table II dataset spec."""
    num_pipeline_units = spec.paper_partitions
    num_batches = max(1, spec.paper_partitions // spec.paper_batch)
    avg_subgraph_nodes = spec.paper_nodes / max(num_pipeline_units, 1)
    batch_nodes = avg_subgraph_nodes * spec.paper_batch
    blocks_per_side = max(1, -(-int(batch_nodes) // config.crossbar_rows))
    blocks_per_batch = float(blocks_per_side * blocks_per_side)

    features = PAPER_FEATURE_DIMS.get(spec.name, 128)
    num_classes = PAPER_CLASS_DIMS.get(spec.name, 40)
    cells_per_weight = config.cells_per_weight

    def crossbars_for(rows: int, cols: int) -> int:
        row_tiles = -(-rows // config.crossbar_rows)
        col_tiles = -(-(cols * cells_per_weight) // config.crossbar_cols)
        return row_tiles * col_tiles

    num_weight_crossbars = crossbars_for(features, hidden_features) + crossbars_for(
        hidden_features, num_classes
    )
    num_adjacency_crossbars = max(1, config.crossbar_count - num_weight_crossbars)

    return TimingInputs(
        num_pipeline_units=num_pipeline_units,
        num_batches=num_batches,
        epochs=epochs,
        avg_subgraph_nodes=avg_subgraph_nodes,
        blocks_per_batch=blocks_per_batch,
        num_adjacency_crossbars=num_adjacency_crossbars,
        num_weight_crossbars=num_weight_crossbars,
        pipeline_stages=pipeline_stages,
        reorder_units=hidden_features,
        track_post_deployment=track_post_deployment,
    )


def fig7_paper_datasets() -> Dict[str, DatasetSpec]:
    """The dataset/model pairs of Fig. 7, keyed by their x-axis labels."""
    return {
        "Ogbl (SAGE)": DATASET_REGISTRY["ogbl"],
        "Reddit (GCN)": DATASET_REGISTRY["reddit"],
        "PPI (GAT)": DATASET_REGISTRY["ppi"],
        "Amazon2M (GCN)": DATASET_REGISTRY["amazon2m"],
    }
