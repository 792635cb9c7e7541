"""Mini-batch GNN training on (faulty) ReRAM hardware.

:class:`FaultyTrainer` reproduces the training procedure of Section III/IV:

1. **Pre-processing (host)** — the graph is partitioned, mini-batches are
   formed from cluster groups, the BIST reports the pre-deployment fault maps
   and the active strategy plans the adjacency block → crossbar mapping.
2. **Training (accelerator)** — for every batch the adjacency blocks are
   programmed onto their assigned crossbars and read back (faults included),
   weights are programmed/read through the weight mapper (faults + optional
   clipping), the model computes forward/backward with those effective
   values and the digital optimiser updates the master weights.
3. **Epoch end** — optional post-deployment faults are injected, the BIST
   re-scans, the strategy refreshes its mapping, and train/test accuracy are
   recorded.

The trainer also accumulates the counters (batches, blocks, crossbars,
reordering events) the Fig. 7 timing model consumes.

Performance model: the per-batch hardware *simulation* (faulty adjacency
read-back, effective-weight pipeline) is served from the versioned
:class:`~repro.core.hw_state.HardwareStateCache` — recomputed only when the
underlying state changes (fault injection, BIST re-scan, plan refresh,
optimiser step), while the simulated write/endurance accounting still
advances per batch exactly as on the uncached path.  Per-epoch train/test
accuracy comes from one block-diagonal eval forward per bucket of batches.

The seed paths these replace live with the tests: the uncached per-batch
recomputation in ``tests/reference/hardware.py`` (bit-identity enforced by
``tests/test_core_hw_state.py``, throughput by
``benchmarks/test_bench_train_epoch.py``), the per-member gradient
accumulation that ``train_mode="fused"`` must match in
``tests/reference/trainer.py``, and the per-split eval loop is the public
:meth:`FaultyTrainer.evaluate`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hw_state import HardwareStateCache
from repro.core.mapping import BatchMapping
from repro.core.strategies import Strategy
from repro.graph.graph import Graph
from repro.graph.sampling import ClusterBatch, ClusterBatchSampler
from repro.graph.sparse import CSRMatrix
from repro.hardware.bist import BISTReport
from repro.hardware.endurance import PostDeploymentSchedule
from repro.nn.base import BatchInputs, GNNModel
from repro.nn.factory import build_model
from repro.nn.losses import (
    bce_with_logits,
    bce_with_logits_segmented,
    cross_entropy,
    cross_entropy_segmented,
)
from repro.nn.metrics import evaluate_predictions
from repro.pipeline.mapping_engine import (
    AdjacencyCrossbarMapper,
    HardwareEnvironment,
    WeightCrossbarMapper,
)
from repro.tensor import kernels
from repro.tensor.optim import Adam
from repro.tensor.tensor import no_grad
from repro.utils.logging import get_logger
from repro.utils.rng import spawn_rngs

logger = get_logger("pipeline.trainer")


@dataclass
class TrainingConfig:
    """Hyperparameters of one training run (Table II defaults, scaled)."""

    epochs: int = 20
    learning_rate: float = 0.01
    hidden_features: int = 32
    dropout: float = 0.2
    num_parts: int = 12
    batch_clusters: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_clusters > self.num_parts:
            raise ValueError("batch_clusters cannot exceed num_parts")


@dataclass
class TrainerArtifacts:
    """Precomputed preprocessing inputs a trainer may reuse instead of rebuild.

    Produced by the sweep engine (:mod:`repro.experiments.sweeps`), which
    content-keys these artifacts and shares them across the runs of a grid.
    Every field is optional and independent; a missing field is computed the
    usual way.  All supplied objects are consumed **read-only** — training
    never mutates batches, blocks, BIST reports or plans — so one artifact
    set may feed many trainers.  Supplying them does not change the training
    outcome (bit-identical histories; enforced by
    ``tests/test_experiments_sweeps.py``).
    """

    #: The fixed mini-batch list (skips partitioning and the sampler).
    batches: Optional[List[ClusterBatch]] = None
    #: Per-batch adjacency blocks (skips ``decompose``): one sequence of
    #: crossbar-sized blocks per batch, e.g. the ``AdjacencyBlocks`` views.
    blocks_per_batch: Optional[List[Sequence[np.ndarray]]] = None
    #: Pre-deployment scan result (skips the BIST scan).
    bist_report: Optional[BISTReport] = None
    #: Adjacency mapping plans (skips ``strategy.plan_adjacency``).
    plans: Optional[List[BatchMapping]] = None


@dataclass
class TrainingResult:
    """Outcome of one training run."""

    strategy: str
    dataset: str
    model: str
    epochs_run: int
    train_accuracy_history: List[float] = field(default_factory=list)
    test_accuracy_history: List[float] = field(default_factory=list)
    loss_history: List[float] = field(default_factory=list)
    final_train_accuracy: float = 0.0
    final_test_accuracy: float = 0.0
    fault_density: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    def summary_row(self) -> List:
        """Row used by the experiment tables."""
        return [
            self.dataset,
            self.model,
            self.strategy,
            self.fault_density,
            self.final_test_accuracy,
        ]


class FaultyTrainer:
    """Trains one GNN on one graph under one fault-handling strategy.

    The trainer builds every pre-processing input that ``artifacts`` does
    not supply.  The sweep engine supplies the inputs it shares across runs;
    ``tests/reference/sweeps.py`` builds trainers with none, the reference
    that sharing is proved against.  After each epoch of a post-deployment
    schedule the BIST re-scans and the strategy refreshes its mapping with
    Π kept (Section IV-A); a full re-plan is :meth:`apply_fault_delta` with
    ``replan=True``, which the lifetime experiment calls.
    """

    #: Node budget of one batched-eval bucket: consecutive mini-batches are
    #: fused into one block-diagonal forward until adding the next batch
    #: would exceed this many nodes (a bucket always holds ≥ 1 batch).
    EVAL_BUCKET_NODES = 4096
    #: Node budget of one *training* bucket (train mode ``"fused"``): the
    #: same layout rule, one block-diagonal forward and one optimizer step
    #: per bucket; a budget of 1 makes every bucket a single batch (the seed
    #: step granularity).  Both layouts are built on first use.
    TRAIN_BUCKET_NODES = 4096

    def __init__(
        self,
        graph: Graph,
        model_name: str,
        strategy: Strategy,
        config: TrainingConfig,
        hardware: Optional[HardwareEnvironment] = None,
        post_deployment: Optional[PostDeploymentSchedule] = None,
        artifacts: Optional[TrainerArtifacts] = None,
        use_agg_precompute: bool = True,
        train_mode: str = "per_batch",
    ) -> None:
        self.graph = graph
        self.model_name = model_name.lower()
        self.strategy = strategy
        self.config = config
        self.hardware = hardware
        self.post_deployment = post_deployment
        self.artifacts = artifacts or TrainerArtifacts()
        #: Cache the weight-independent first-layer aggregation across steps
        #: (see ``docs/ARCHITECTURE.md``, "Batched multi-graph training").
        self.use_agg_precompute = bool(use_agg_precompute)
        #: Training-step granularity (see ``docs/ARCHITECTURE.md``, "Batched
        #: multi-graph training"):
        #:
        #: * ``"per_batch"`` (default) — the seed loop: one forward/backward/
        #:   optimizer step per mini-batch.
        #: * ``"fused"`` — consecutive batches are grouped into buckets
        #:   capped at :attr:`TRAIN_BUCKET_NODES` nodes; each bucket runs
        #:   one block-diagonal forward, a segmented per-member loss and one
        #:   optimizer step.  Gradients are the sum of the per-member
        #:   gradients of the accumulation reference in
        #:   ``tests/reference/trainer.py`` (bit-identical structural
        #:   reductions, round-off contract where GEMMs/``reduceat``
        #:   reassociate).
        if train_mode not in ("per_batch", "fused"):
            raise ValueError(
                f"train_mode must be 'per_batch' or 'fused', got {train_mode!r}"
            )
        self.train_mode = train_mode
        if strategy.requires_hardware and hardware is None:
            raise ValueError(
                f"strategy {strategy.name!r} requires a HardwareEnvironment"
            )

        rng_model, rng_sampler, self._train_rng = spawn_rngs(config.seed, 3)

        # Batch composition is fixed across epochs: the adjacency mapping is
        # computed once in pre-processing (Section IV-A).  The sampler stream
        # (`rng_sampler`) only feeds partitioning tie-breaks, so injecting a
        # precomputed batch list leaves the model/training streams — and the
        # outcome — intact.
        if self.artifacts.batches is not None:
            self.batches = list(self.artifacts.batches)
        else:
            sampler = ClusterBatchSampler(
                graph,
                num_parts=config.num_parts,
                batch_clusters=config.batch_clusters,
                seed=rng_sampler,
            )
            self.batches = list(sampler.epoch())

        self.model: GNNModel = build_model(
            self.model_name,
            in_features=graph.num_features,
            hidden_features=config.hidden_features,
            num_classes=graph.num_classes,
            dropout=config.dropout,
            rng=rng_model,
        )
        self.optimizer = Adam(self.model.parameters(), lr=config.learning_rate)

        self._weight_mapper: Optional[WeightCrossbarMapper] = None
        self._adjacency_mapper: Optional[AdjacencyCrossbarMapper] = None
        self._hw_cache: Optional[HardwareStateCache] = None
        self._plans = None
        self._blocks_per_batch = None
        # Batched-eval state: the bucket layout is fixed (batch composition
        # never changes), the fused block-diagonal inputs are memoised per
        # bucket on the identity of the member adjacencies (stable while the
        # hardware state is stable, invalidated the moment a read-back
        # changes — same identity-keying as normalize_adjacency_cached).
        self._eval_buckets: Optional[List[List[int]]] = None
        self._fused_eval_cache: Dict[int, tuple] = {}
        self._batched_eval_forwards = 0
        # Batched-train state: bucket layout for the fused mode,
        # the per-bucket workspace shared with eval (member offsets, fused
        # features/labels, loss segment plan — all hardware-independent,
        # built once per bucket), and the fused train-input memo keyed on
        # the hardware state like the eval one.  All of it, like the plans
        # and block views, is derived from the fixed batch list.
        self._train_buckets: Optional[List[List[int]]] = None
        self._bucket_workspaces: Dict[tuple, dict] = {}
        self._fused_train_cache: Dict[tuple, tuple] = {}
        self._batched_train_buckets = 0
        self._train_fused_forwards = 0
        self.model.set_agg_precompute(self.use_agg_precompute)
        self._preprocess()

    # ------------------------------------------------------------------ #
    # Pre-processing phase
    # ------------------------------------------------------------------ #
    def _preprocess(self) -> None:
        if not self.strategy.requires_hardware:
            return
        hw = self.hardware
        self._weight_mapper = WeightCrossbarMapper(
            self.model, hw.weight_crossbars, hw.fmt, hw.config
        )
        self._adjacency_mapper = AdjacencyCrossbarMapper(
            hw.adjacency_crossbars, hw.config
        )
        self._hw_cache = HardwareStateCache(self._adjacency_mapper, self._weight_mapper)
        # The views hold O(nnz) cell indices and build each block when it is
        # read, so every batch keeps one for the run: planning, FARe's
        # refresh and re-planning after a BIST re-scan all read them.
        if self.artifacts.blocks_per_batch is not None:
            if len(self.artifacts.blocks_per_batch) != len(self.batches):
                raise ValueError(
                    f"artifacts cover {len(self.artifacts.blocks_per_batch)} "
                    f"block lists but the sampler produced {len(self.batches)} "
                    "batches"
                )
            self._blocks_per_batch = self.artifacts.blocks_per_batch
        else:
            self._blocks_per_batch = [
                self._adjacency_mapper.decompose(batch.subgraph.adjacency)[0]
                for batch in self.batches
            ]
        if self.artifacts.plans is not None:
            if len(self.artifacts.plans) != len(self.batches):
                raise ValueError(
                    f"artifacts supply {len(self.artifacts.plans)} mapping "
                    f"plans but the sampler produced {len(self.batches)} batches"
                )
            self._plans = list(self.artifacts.plans)
            return
        report = self.artifacts.bist_report
        if report is None:
            report = hw.bist.scan(self._adjacency_mapper.crossbars)
        self._plans = self.strategy.plan_adjacency(
            self._blocks_per_batch,
            report.fault_maps,
            self._adjacency_mapper.crossbar_ids,
            hw.config.crossbar_rows,
        )

    # ------------------------------------------------------------------ #
    # Hardware views
    # ------------------------------------------------------------------ #
    def _weight_transform(self, name: str, values: np.ndarray) -> np.ndarray:
        layout_names = self._weight_mapper.layouts
        if name not in layout_names:
            return values
        # Evaluation re-reads the crossbars without re-programming them, so
        # only training-mode calls count as weight-write events (the Fig. 7
        # timing counters track training writes).
        training = self.model.training

        def compute() -> np.ndarray:
            permutation = self.strategy.weight_storage_permutation(
                name,
                values,
                lambda: self._weight_mapper.row_mismatch_cost(name, values),
            )
            effective = self._weight_mapper.effective_weights(
                name, values, row_permutation=permutation, count_write=training
            )
            return self.strategy.transform_effective_weights(name, effective)

        key = (self.optimizer.param_version, self._weight_mapper.fault_version)
        return self._hw_cache.effective_weights(
            name, key, compute, count_hit_write=training
        )

    @contextmanager
    def _weights_on_hardware(self) -> Iterator[None]:
        """Read the model's weights through the crossbars inside the block.

        The transform is a bound method of this trainer, so leaving it
        installed would keep the trainer, its hardware, caches and plans
        alive in a reference cycle through the model after the run.  The
        previous transform comes back on exit, so an :meth:`evaluate` called
        inside :meth:`train` leaves training on the hardware.
        """
        previous = self.model.weight_transform
        self.model.set_weight_transform(
            self._weight_transform if self.strategy.requires_hardware else None
        )
        try:
            yield
        finally:
            self.model.set_weight_transform(previous)

    def _batch_inputs(self, batch_index: int) -> BatchInputs:
        batch = self.batches[batch_index]
        adjacency = batch.subgraph.adjacency
        if self.strategy.requires_hardware:
            # The read-back works from the batch CSR and the plan alone.
            adjacency = self._hw_cache.batch_adjacency(
                batch_index, adjacency, self._plans[batch_index]
            )
        return BatchInputs(features=batch.subgraph.features, adjacency=adjacency)

    def _loss(self, logits, labels, mask):
        if self.graph.is_multilabel:
            return bce_with_logits(logits, labels, mask)
        return cross_entropy(logits, labels, mask)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def train(self) -> TrainingResult:
        """Run the full training loop and return the result record."""
        config = self.config
        result = TrainingResult(
            strategy=self.strategy.name,
            dataset=self.graph.name,
            model=self.model_name,
            epochs_run=0,
            fault_density=(
                self.hardware.overall_fault_density() if self.hardware else 0.0
            ),
        )
        # The kernel counters are process-wide: only what happens from here
        # on (not another trainer's run, not pre-processing) is this run's.
        kernel_baseline = kernels.COUNTERS.as_dict()

        with self._weights_on_hardware():
            for epoch in range(config.epochs):
                self.model.train()
                if self.train_mode == "fused":
                    epoch_losses = self._train_epoch_fused()
                else:
                    epoch_losses = self._train_epoch_per_batch()

                self._end_of_epoch()
                result.loss_history.append(float(np.mean(epoch_losses)))
                train_acc, test_acc = self._evaluate_epoch()
                result.train_accuracy_history.append(train_acc)
                result.test_accuracy_history.append(test_acc)
                result.epochs_run = epoch + 1

        result.final_train_accuracy = result.train_accuracy_history[-1]
        result.final_test_accuracy = result.test_accuracy_history[-1]
        result.counters = self._counters(kernel_baseline)
        return result

    def _train_epoch_per_batch(self) -> List[float]:
        """The seed training epoch: one forward/backward/step per batch."""
        epoch_losses: List[float] = []
        order = self._train_rng.permutation(len(self.batches))
        for batch_index in order:
            batch = self.batches[batch_index]
            inputs = self._batch_inputs(int(batch_index))
            logits = self.model(inputs)
            loss = self._loss(
                logits, batch.subgraph.labels, batch.subgraph.train_mask
            )
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()
            self.strategy.after_optimizer_step(self.model)
            epoch_losses.append(loss.item())
        return epoch_losses

    def _train_epoch_fused(self) -> List[float]:
        """One block-diagonal forward + one backward + one step per bucket.

        Semantics of per-member gradient accumulation (``zero_grad`` once
        per bucket, one backward per member, one optimizer step per bucket;
        the reference epoch in ``tests/reference/trainer.py``) with the
        per-member forwards fused: the segmented loss applies each member's
        own mean-reduction weight, so the single backward produces exactly
        the sum of the per-member reference gradients — bit-identical where
        reductions are structural (per-row sparse kernels, dropout masks,
        per-row loss gradients), round-off contract where the fused GEMMs /
        ``reduceat`` reassociate sums (see ``docs/ARCHITECTURE.md``).  The
        epoch permutation is drawn over buckets.  Single-member buckets take
        the plain unfused step, which keeps them bit-identical to the
        reference.
        """
        epoch_losses: List[float] = []
        buckets = self._train_bucket_layout()
        order = self._train_rng.permutation(len(buckets))
        for bucket_position in order:
            bucket = buckets[int(bucket_position)]
            self._batched_train_buckets += 1
            self.optimizer.zero_grad()
            if len(bucket) == 1:
                index = bucket[0]
                batch = self.batches[index]
                logits = self.model(self._batch_inputs(index))
                loss = self._loss(
                    logits, batch.subgraph.labels, batch.subgraph.train_mask
                )
                loss.backward()
                epoch_losses.append(loss.item())
            else:
                workspace = self._bucket_workspace(bucket, count_plan_hit=True)
                fused = self._fused_train_inputs(bucket)
                self._train_fused_forwards += 1
                logits = self.model(
                    BatchInputs(features=workspace["features"], adjacency=fused)
                )
                if self.graph.is_multilabel:
                    total, member_losses = bce_with_logits_segmented(
                        logits,
                        workspace["labels"],
                        workspace["selected"],
                        workspace["member_ids"],
                        workspace["counts"],
                        plan=workspace["plan"],
                    )
                else:
                    total, member_losses = cross_entropy_segmented(
                        logits,
                        workspace["labels"],
                        workspace["selected"],
                        workspace["member_ids"],
                        workspace["counts"],
                        plan=workspace["plan"],
                    )
                if workspace["selected"].size:
                    total.backward()
                # The reference fetches the effective weights once per
                # member forward; the fused forward fetched them once, so
                # replay the other B-1 simulated re-programming events.
                if self.strategy.requires_hardware:
                    for _ in range(len(bucket) - 1):
                        for name in self._weight_mapper.layouts:
                            self._weight_mapper.record_write(name)
                epoch_losses.extend(member_losses)
            self.optimizer.step()
            self.strategy.after_optimizer_step(self.model)
        return epoch_losses

    def _train_bucket_layout(self) -> List[List[int]]:
        """Consecutive-batch buckets capped at :attr:`TRAIN_BUCKET_NODES`.

        Mirrors :meth:`_eval_bucket_layout` (a bucket always holds at least
        one batch); the train and eval caps are independent so the two
        layouts may differ.
        """
        if self._train_buckets is None:
            self._train_buckets = self._bucket_layout(self.TRAIN_BUCKET_NODES)
        return self._train_buckets

    def _bucket_layout(self, cap: int) -> List[List[int]]:
        buckets: List[List[int]] = []
        current: List[int] = []
        nodes = 0
        for index, batch in enumerate(self.batches):
            if current and nodes + batch.num_nodes > cap:
                buckets.append(current)
                current, nodes = [], 0
            current.append(index)
            nodes += batch.num_nodes
        if current:
            buckets.append(current)
        return buckets

    def _bucket_workspace(self, bucket: List[int], count_plan_hit: bool = False) -> dict:
        """Hardware-independent per-bucket arrays, built once per bucket.

        Shared by the fused train and eval paths (keyed on the member tuple,
        so differing train/eval layouts never collide): member row offsets,
        the concatenated feature matrix (stable identity — the aggregation
        precompute cache keys on it), concatenated labels, the train-mask
        row selection with its member ids/counts, and the memoised
        :class:`~repro.tensor.kernels.SegmentPlan` for the per-member loss
        scatter.  ``count_plan_hit`` counts reuse (the fused train path) in
        ``kernel_segment_plan_cache_hits``.
        """
        key = tuple(bucket)
        workspace = self._bucket_workspaces.get(key)
        if workspace is not None:
            if count_plan_hit:
                kernels.COUNTERS.segment_plan_cache_hits += 1
            return workspace
        subgraphs = [self.batches[index].subgraph for index in bucket]
        sizes = [self.batches[index].num_nodes for index in bucket]
        offsets = np.concatenate(
            ([0], np.cumsum(np.asarray(sizes, dtype=np.int64)))
        )
        if len(bucket) == 1:
            features = subgraphs[0].features
            labels = subgraphs[0].labels
        else:
            features = np.concatenate([sub.features for sub in subgraphs], axis=0)
            labels = np.concatenate([sub.labels for sub in subgraphs], axis=0)
        selected_parts = [
            np.flatnonzero(sub.train_mask) + offsets[k]
            for k, sub in enumerate(subgraphs)
        ]
        counts = np.array([part.size for part in selected_parts], dtype=np.int64)
        selected = (
            np.concatenate(selected_parts)
            if selected_parts
            else np.zeros(0, dtype=np.int64)
        )
        member_ids = np.repeat(np.arange(len(bucket), dtype=np.int64), counts)
        workspace = {
            "offsets": offsets,
            "features": features,
            "labels": labels,
            "selected": selected,
            "member_ids": member_ids,
            "counts": counts,
            "plan": kernels.segment_plan(member_ids, len(bucket)),
        }
        self._bucket_workspaces[key] = workspace
        return workspace

    def _fused_train_inputs(self, bucket: List[int]) -> CSRMatrix:
        """Block-diagonal training adjacency of one bucket, state-memoised.

        Same state-key memoisation as the eval bucket cache, with one
        difference in the accounting: training re-programs every member's
        blocks each epoch, so a memo hit replays the per-member simulated
        write events through
        :meth:`~repro.core.hw_state.HardwareStateCache.replay_adjacency_writes`
        instead of skipping them like eval does.
        """
        key = (
            self._hw_cache.state_key()
            if self.strategy.requires_hardware
            else ("static",)
        )
        cache_key = tuple(bucket)
        entry = self._fused_train_cache.get(cache_key)
        if entry is not None and entry[0] == key:
            if self.strategy.requires_hardware:
                for index in bucket:
                    self._hw_cache.replay_adjacency_writes(index)
            return entry[1]
        inputs = [self._batch_inputs(index) for index in bucket]
        fused, _ = CSRMatrix.block_diag([item.adjacency for item in inputs])
        self._fused_train_cache[cache_key] = (key, fused)
        return fused

    def _end_of_epoch(self) -> None:
        """Post-deployment fault injection, BIST re-scan, mapping refresh."""
        if self.strategy.requires_hardware and self.post_deployment is not None:
            self.apply_fault_delta(self.post_deployment.per_epoch_density)

    def apply_fault_delta(
        self, extra_density: float, replan: bool = False
    ) -> BISTReport:
        """Inject extra faults, BIST re-scan, and refresh or re-plan mappings.

        This is the full post-deployment reaction cycle, callable both from
        the epoch loop and externally (the lifetime experiment drives it from
        an endurance wear-out schedule).  The injection always runs — even at
        density 0.0 — so the hardware RNG stream advances exactly as it did
        on the pre-factored epoch path (bit-identical histories).  With
        ``replan=True`` the strategy recomputes the complete block → crossbar
        plan with :meth:`Strategy.plan_adjacency` instead of the Π-preserving
        row-permutation refresh.  Returns the fresh BIST report.
        """
        self.hardware.inject_post_deployment(extra_density)
        report = self.hardware.bist.scan(self._adjacency_mapper.crossbars)
        self._weight_mapper.refresh_fault_masks()
        if replan:
            self._plans = self.strategy.plan_adjacency(
                self._blocks_per_batch,
                report.fault_maps,
                self._adjacency_mapper.crossbar_ids,
                self.hardware.config.crossbar_rows,
            )
        else:
            fault_maps_by_id = dict(
                zip(self._adjacency_mapper.crossbar_ids, report.fault_maps)
            )
            self._plans = self.strategy.refresh_adjacency(
                self._plans, self._blocks_per_batch, fault_maps_by_id
            )
        # Fault maps and (potentially) plans changed: cached read-backs are
        # stale.  The fault-map component of the cache key advances on its
        # own (crossbar fault epochs); this bump covers the plan refresh.
        self._hw_cache.bump_plan_version()
        return report

    @property
    def plans(self) -> Optional[List[BatchMapping]]:
        """The current per-batch adjacency mapping plans (read-only view)."""
        return self._plans

    @property
    def blocks_per_batch(self) -> Optional[List[Sequence[np.ndarray]]]:
        """Per-batch adjacency blocks (read-only view, set by preprocessing)."""
        return self._blocks_per_batch

    @property
    def adjacency_crossbar_ids(self) -> Optional[List[int]]:
        """Physical ids of the adjacency crossbars (read-only view)."""
        if self._adjacency_mapper is None:
            return None
        return list(self._adjacency_mapper.crossbar_ids)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, split: str = "test") -> float:
        """Evaluate the current model on ``split`` nodes (on faulty hardware).

        Inference runs batch-by-batch on the same crossbar mapping used for
        training, so test accuracy reflects the deployed, faulty accelerator.
        """
        if split not in ("train", "val", "test"):
            raise ValueError(f"split must be train/val/test, got {split!r}")
        mask_name = f"{split}_mask"
        self.model.eval()
        logits_chunks: List[np.ndarray] = []
        labels_chunks: List[np.ndarray] = []
        with self._weights_on_hardware(), no_grad():
            for batch_index, batch in enumerate(self.batches):
                mask = getattr(batch.subgraph, mask_name)
                if not mask.any():
                    continue
                inputs = self._batch_inputs(batch_index)
                logits = self.model(inputs)
                logits_chunks.append(logits.data[mask])
                labels_chunks.append(batch.subgraph.labels[mask])
        self.model.train()
        if not logits_chunks:
            return 0.0
        logits_all = np.concatenate(logits_chunks, axis=0)
        labels_all = np.concatenate(labels_chunks, axis=0)
        return evaluate_predictions(logits_all, labels_all)

    # ------------------------------------------------------------------ #
    # Shared / batched epoch evaluation
    # ------------------------------------------------------------------ #
    def _evaluate_epoch(self) -> Tuple[float, float]:
        """Per-epoch ``(train accuracy, test accuracy)``.

        The logits of an eval forward do not depend on the split mask, so
        both accuracies come from **one** forward per bucket of consecutive
        batches fused into one block-diagonal forward (see
        :meth:`_eval_bucket_layout`) — per split, the gathered logits match
        what the per-split :meth:`evaluate` loop produces, in the same batch
        order.

        Accounting note: bucket inputs are re-fetched only when the hardware
        state actually changed, so eval-time ``block_write_events`` drop to
        one pass per state version, where :meth:`evaluate` programs each
        batch's adjacency once per split.  The training write stream is
        untouched; documented in ``docs/ARCHITECTURE.md``.
        """
        self.model.eval()
        chunks: Dict[str, Tuple[List[np.ndarray], List[np.ndarray]]] = {
            "train": ([], []),
            "test": ([], []),
        }
        with no_grad():
            for bucket in self._eval_bucket_layout():
                for index, rows in zip(bucket, self._bucket_forward(bucket)):
                    self._gather_split_chunks(index, rows, chunks)
        self.model.train()
        accuracies = []
        for split in ("train", "test"):
            logits_chunks, labels_chunks = chunks[split]
            if not logits_chunks:
                accuracies.append(0.0)
                continue
            accuracies.append(
                evaluate_predictions(
                    np.concatenate(logits_chunks, axis=0),
                    np.concatenate(labels_chunks, axis=0),
                )
            )
        return accuracies[0], accuracies[1]

    def _gather_split_chunks(
        self,
        batch_index: int,
        logits_rows: np.ndarray,
        chunks: Dict[str, Tuple[List[np.ndarray], List[np.ndarray]]],
    ) -> None:
        sub = self.batches[batch_index].subgraph
        for split, (logits_chunks, labels_chunks) in chunks.items():
            mask = getattr(sub, f"{split}_mask")
            if not mask.any():
                continue
            logits_chunks.append(logits_rows[mask])
            labels_chunks.append(sub.labels[mask])

    def _eval_bucket_layout(self) -> List[List[int]]:
        """Consecutive-batch buckets capped at :attr:`EVAL_BUCKET_NODES`.

        Built once per run: a bucket always holds at least one batch, so an
        oversized batch forms its own (B=1, unfused) bucket.
        """
        if self._eval_buckets is None:
            self._eval_buckets = self._bucket_layout(self.EVAL_BUCKET_NODES)
        return self._eval_buckets

    def _bucket_forward(self, bucket: List[int]) -> List[np.ndarray]:
        """One eval forward over a bucket; returns per-batch logits rows.

        Multi-batch buckets run the model once on the block-diagonal fusion
        of the member adjacencies (features concatenated row-wise) and split
        the logits back at the member row offsets.  Per-row kernels over a
        block-diagonal CSR never mix rows across members, so per-member
        results match the unfused forwards (bit-identical through the sparse
        kernels; dense GEMMs are subject to the round-off contract).

        The bucket inputs are memoised against the hardware-state version
        (mapping-plan version + crossbar fault epochs): between state changes
        the crossbars hold the same bits and evaluation is a pure re-read, so
        the per-batch adjacency fetches — and the simulated re-programming
        they account for — happen only when the state actually changed (see
        the accounting note on :meth:`_evaluate_epoch`).
        """
        self._batched_eval_forwards += 1
        key = (
            self._hw_cache.state_key()
            if self.strategy.requires_hardware
            else ("static",)
        )
        entry = self._fused_eval_cache.get(bucket[0])
        if entry is None or entry[0] != key:
            # Member offsets and the concatenated features come from the
            # bucket workspace shared with the fused train path — their
            # identity is stable across hardware-state changes, so only the
            # adjacency fusion is rebuilt here.
            workspace = self._bucket_workspace(bucket)
            inputs = [self._batch_inputs(index) for index in bucket]
            if len(inputs) == 1:
                fused = inputs[0].adjacency
            else:
                fused, _ = CSRMatrix.block_diag(
                    [item.adjacency for item in inputs]
                )
            entry = (key, fused, workspace["features"], workspace["offsets"])
            self._fused_eval_cache[bucket[0]] = entry
        _, fused, features, offsets = entry
        logits = self.model(BatchInputs(features=features, adjacency=fused))
        return [
            logits.data[offsets[k] : offsets[k + 1]]
            for k in range(len(offsets) - 1)
        ]

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #
    def _counters(self, kernel_baseline: Dict[str, float]) -> Dict[str, float]:
        """The run's counters, each read from the component that owns it.

        The trainer's own counts (the Fig. 7 timing inputs among them), the
        hardware-state cache's ``hw_*``, the change in the process-wide
        ``kernel_*`` counters since ``kernel_baseline`` (taken when
        :meth:`train` began) and the strategy's ``mapping_*`` engine
        counters, if it has an engine.
        """
        counters: Dict[str, float] = {
            "num_batches": float(len(self.batches)),
            "epochs": float(self.config.epochs),
            "avg_batch_nodes": float(
                np.mean([b.num_nodes for b in self.batches]) if self.batches else 0.0
            ),
            "total_blocks": float(
                sum(len(blocks) for blocks in self._blocks_per_batch or ())
            ),
        }
        if self._weight_mapper is not None:
            counters["num_weight_crossbars"] = float(
                self._weight_mapper.num_weight_crossbars
            )
            counters["weight_write_events"] = float(
                self._weight_mapper.weight_write_events
            )
        if self._adjacency_mapper is not None:
            counters["num_adjacency_crossbars"] = float(
                len(self._adjacency_mapper.crossbars)
            )
            counters["block_write_events"] = float(
                self._adjacency_mapper.block_write_events
            )
        counters["batched_eval_forwards"] = float(self._batched_eval_forwards)
        counters["batched_eval_buckets"] = float(len(self._eval_bucket_layout()))
        counters["batched_train_buckets"] = float(self._batched_train_buckets)
        counters["train_fused_forwards"] = float(self._train_fused_forwards)
        counters["train_bucket_layout"] = float(
            len(self._train_bucket_layout()) if self.train_mode == "fused" else 0
        )
        if self._hw_cache is not None:
            counters.update(self._hw_cache.stats.as_dict())
        counters.update(
            (key, value - kernel_baseline[key])
            for key, value in kernels.COUNTERS.as_dict().items()
        )
        engine_stats = self.strategy.mapping_engine_stats()
        if engine_stats:
            counters.update(engine_stats)
        return counters
