"""Multi-graph vectorised training + memory-bounded streaming mode.

Four subsystems under test:

* the sparse block decomposition (``decompose_adjacency``) — bit-identical
  to a dense reference, shared frozen zero blocks, counters;
* the block-diagonal CSR fusion (``block_diag_csr`` / ``CSRMatrix.block_diag``)
  and the bucketed-eval / aggregation-precompute trainer paths — fuzzed
  equivalence against the seed per-split per-batch loop
  (:class:`reference.trainer.PerSplitEvalTrainer`) across the three models,
  fault-free and fault-injected;
* the streaming dataset generator and partitioner;
* the trainer's ``streaming_blocks`` mode — plans and histories identical to
  the retained-blocks path without ever retaining per-batch dense blocks.

Equivalence contract (``docs/ARCHITECTURE.md``): per-row sparse kernels over
a block-diagonal matrix never mix rows across members, so fused results are
bit-identical through the sparse kernels; the GCN aggregation precompute
reassociates one dense GEMM and is compared with a tight tolerance instead.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.strategies import build_strategy
from repro.graph.datasets import synthetic_graph, synthetic_graph_streaming
from repro.graph.normalize import clear_normalize_cache
from repro.graph.partition import (
    STREAMING_NODE_THRESHOLD,
    partition_graph,
)
from repro.graph.sparse import CSRMatrix
from repro.hardware.config import ReRAMConfig
from repro.hardware.faults import FaultModel
from repro.pipeline.mapping_engine import (
    DECOMPOSE_COUNTERS,
    HardwareEnvironment,
    decompose_adjacency,
    peak_rss_bytes,
)
from repro.pipeline.trainer import FaultyTrainer, TrainerArtifacts, TrainingConfig
from repro.tensor import kernels, ops
from repro.tensor.tensor import Tensor

from reference.trainer import PerSplitEvalTrainer


def _random_csr(rng, n, m, density=0.08):
    mask = rng.random((n, m)) < density
    dense = np.where(mask, 1.0, 0.0)
    rows, cols = np.nonzero(dense)
    return (
        CSRMatrix.from_coo(rows, cols, dense[rows, cols], (n, m)),
        dense,
    )


def _dense_decompose_reference(dense, rows, cols):
    """The seed dense implementation: pad, slice, binarise."""
    n, m = dense.shape
    row_blocks = -(-n // rows) if n else 0
    col_blocks = -(-m // cols) if m else 0
    padded = np.zeros((row_blocks * rows, col_blocks * cols))
    padded[:n, :m] = dense
    blocks = []
    for bi in range(row_blocks):
        for bj in range(col_blocks):
            block = padded[bi * rows : (bi + 1) * rows, bj * cols : (bj + 1) * cols]
            blocks.append((block > 0).astype(np.float64))
    return blocks, (row_blocks, col_blocks)


class TestSparseDecompose:
    @pytest.mark.parametrize("shape", [(48, 48), (50, 50), (17, 33), (16, 16)])
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.3])
    def test_matches_dense_reference(self, rng, shape, density):
        mat, dense = _random_csr(rng, *shape, density=density)
        blocks, grid = decompose_adjacency(mat, 16, 16)
        ref_blocks, ref_grid = _dense_decompose_reference(dense, 16, 16)
        assert grid == ref_grid
        assert len(blocks) == len(ref_blocks)
        for got, want in zip(blocks, ref_blocks):
            np.testing.assert_array_equal(got, want)

    def test_empty_blocks_share_one_frozen_array(self, rng):
        mat, _ = _random_csr(rng, 64, 64, density=0.005)
        blocks, _ = decompose_adjacency(mat, 16, 16)
        zeros = [b for b in blocks if not b.any()]
        assert zeros, "expected at least one empty block at this density"
        for z in zeros:
            assert z is zeros[0]
            assert not z.flags.writeable

    def test_counters_advance(self, rng):
        mat, _ = _random_csr(rng, 32, 32, density=0.1)
        before = dict(DECOMPOSE_COUNTERS.as_dict())
        blocks, _ = decompose_adjacency(mat, 16, 16)
        after = DECOMPOSE_COUNTERS.as_dict()
        assert after["decompose_calls"] == before["decompose_calls"] + 1
        materialised = sum(1 for b in blocks if b.any())
        assert (
            after["decompose_blocks_materialised"]
            == before["decompose_blocks_materialised"] + materialised
        )

    def test_nonbinary_values_threshold(self):
        mat = CSRMatrix.from_coo([0, 1], [1, 0], [2.5, 7.0], (4, 4))
        blocks, _ = decompose_adjacency(mat, 4, 4)
        assert blocks[0][0, 1] == 1.0 and blocks[0][1, 0] == 1.0

    def test_peak_rss_positive(self):
        assert peak_rss_bytes() > 0

    def test_peak_rss_is_per_exec_not_inherited(self):
        """A fresh child must not report its parent's peak.

        ``ru_maxrss`` survives ``execve`` on Linux, so a subprocess spawned
        by a fat parent (the streaming benchmark child under a long pytest
        session) would inherit the parent's high-water mark if
        ``peak_rss_bytes`` read ``getrusage``.  Inflate this process, then
        check a do-nothing child reports a peak far below the ballast.
        """
        import subprocess
        import sys

        ballast = np.ones(40_000_000)  # ~305 MiB resident in the parent
        assert peak_rss_bytes() > ballast.nbytes
        child = (
            "from repro.pipeline.mapping_engine import peak_rss_bytes;"
            "print(peak_rss_bytes())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            check=True,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
            },
        )
        assert 0 < int(proc.stdout.strip()) < ballast.nbytes // 2


class TestBlockDiagCSR:
    def test_fused_matches_members(self, rng):
        mats, denses, feats = [], [], []
        for n in (7, 13, 5):
            mat, dense = _random_csr(rng, n, n, density=0.2)
            mats.append(mat)
            denses.append(dense)
            feats.append(rng.normal(size=(n, 3)))
        fused, offsets = CSRMatrix.block_diag(mats)
        assert offsets.tolist() == [0, 7, 20, 25]
        out = fused.dot(np.concatenate(feats, axis=0))
        # Bit-identical per member: the fused rows hold exactly the member's
        # entries in the member's column order, so the per-row reduction sums
        # the same floats in the same order.
        for k, (mat, x) in enumerate(zip(mats, feats)):
            np.testing.assert_array_equal(
                out[offsets[k] : offsets[k + 1]], mat.dot(x)
            )

    def test_counters(self, rng):
        mats = [_random_csr(rng, 4, 4, density=0.5)[0] for _ in range(3)]
        before_calls = kernels.COUNTERS.batched_block_diag_calls
        before_fused = kernels.COUNTERS.batched_graphs_fused
        CSRMatrix.block_diag(mats)
        assert kernels.COUNTERS.batched_block_diag_calls == before_calls + 1
        assert kernels.COUNTERS.batched_graphs_fused == before_fused + 3


class TestOuterConstant:
    def test_forward_backward(self, rng):
        scale = rng.normal(size=5)
        vec = Tensor(rng.normal(size=3), requires_grad=True)
        out = ops.outer_constant(scale, vec)
        np.testing.assert_allclose(out.data, np.outer(scale, vec.data))
        upstream = rng.normal(size=(5, 3))
        out.backward(upstream)
        np.testing.assert_allclose(vec.grad, scale @ upstream)


# --------------------------------------------------------------------------- #
# Trainer equivalence
# --------------------------------------------------------------------------- #
def _graph(seed, nodes=72):
    return synthetic_graph(
        num_nodes=nodes,
        num_communities=4,
        num_features=12,
        num_classes=4,
        avg_degree=6.0,
        name="fuzz",
        seed=seed,
    )


def _hardware():
    config = ReRAMConfig(
        crossbar_rows=16, crossbar_cols=16, crossbars_per_tile=24, num_tiles=2
    )
    return HardwareEnvironment(
        config=config,
        fault_model=FaultModel(0.05, (9.0, 1.0), seed=11),
        weight_fraction=0.5,
    )


def _train(model, strategy_name, graph, trainer_cls=FaultyTrainer, **flags):
    clear_normalize_cache()
    strategy = build_strategy(strategy_name)
    hardware = _hardware() if strategy.requires_hardware else None
    config = TrainingConfig(
        epochs=3,
        hidden_features=8,
        dropout=0.0,
        num_parts=4,
        batch_clusters=1,
        eval_every=1,
        seed=0,
        eval_bucket_nodes=flags.pop("eval_bucket_nodes", 4096),
    )
    trainer = trainer_cls(graph, model, strategy, config, hardware=hardware, **flags)
    result = trainer.train()
    params = {n: p.data.copy() for n, p in trainer.model.named_parameters()}
    return result, params, trainer


def _train_seed(model, strategy_name, graph, **flags):
    """The seed loop: per-split eval, no aggregation precompute."""
    return _train(
        model,
        strategy_name,
        graph,
        trainer_cls=PerSplitEvalTrainer,
        use_agg_precompute=False,
        **flags,
    )


class TestVectorisedEquivalence:
    """Fuzzed: vectorised paths vs the seed loop, three models, both regimes."""

    @pytest.mark.parametrize("model", ["gcn", "sage", "gat"])
    @pytest.mark.parametrize("strategy", ["fault_free", "fare"])
    @pytest.mark.parametrize("seed", [3, 19])
    def test_flags_on_vs_seed(self, model, strategy, seed):
        graph = _graph(seed)
        base, base_params, _ = _train_seed(model, strategy, graph)
        fast, fast_params, trainer = _train(model, strategy, graph)
        if model == "gcn":
            # Aggregation precompute reassociates one GEMM: round-off contract.
            np.testing.assert_allclose(
                base.loss_history, fast.loss_history, rtol=0, atol=1e-9
            )
            for name in base_params:
                np.testing.assert_allclose(
                    base_params[name], fast_params[name], rtol=0, atol=1e-9
                )
        else:
            # SAGE consumes the cached spmm result directly; GAT ignores the
            # precompute flag — training is bit-identical either way.
            assert base.loss_history == fast.loss_history
            for name in base_params:
                np.testing.assert_array_equal(base_params[name], fast_params[name])
        assert base.train_accuracy_history == fast.train_accuracy_history
        assert base.test_accuracy_history == fast.test_accuracy_history
        # The vectorised paths must actually fire.
        counters = fast.counters
        assert counters["batched_eval_buckets"] >= 1
        assert counters["batched_eval_forwards"] >= 1
        # One eval pass per epoch -> forwards = epochs x buckets.
        assert counters["batched_eval_forwards"] == (
            fast.epochs_run * counters["batched_eval_buckets"]
        )
        if model != "gat":
            assert counters.get("kernel_batched_agg_cache_misses", 0) >= 1

    @pytest.mark.parametrize("model", ["gcn", "sage"])
    def test_ragged_b1_buckets_match_per_split_eval(self, model):
        """eval_bucket_nodes=1 forces one batch per bucket (no fusion)."""
        graph = _graph(5)
        base, base_params, _ = _train(
            model, "fare", graph, trainer_cls=PerSplitEvalTrainer
        )
        ragged, ragged_params, trainer = _train(
            model, "fare", graph, eval_bucket_nodes=1
        )
        assert base.loss_history == ragged.loss_history
        assert base.train_accuracy_history == ragged.train_accuracy_history
        assert base.test_accuracy_history == ragged.test_accuracy_history
        for name in base_params:
            np.testing.assert_array_equal(base_params[name], ragged_params[name])
        assert ragged.counters["batched_eval_buckets"] == len(trainer.batches)
        # Eval re-programs each batch's adjacency only when the hardware
        # state changed, not once per split (documented accounting).
        assert (
            ragged.counters["block_write_events"]
            < base.counters["block_write_events"]
        )

    def test_fused_buckets_bitwise_vs_seed(self):
        """Fused eval buckets alone (no aggregation precompute) change no bit."""
        graph = _graph(7)
        base, base_params, _ = _train_seed("gcn", "fare", graph)
        fused, fused_params, trainer = _train(
            "gcn", "fare", graph, use_agg_precompute=False
        )
        assert fused.counters["batched_eval_buckets"] < len(trainer.batches)
        assert base.loss_history == fused.loss_history
        assert base.train_accuracy_history == fused.train_accuracy_history
        assert base.test_accuracy_history == fused.test_accuracy_history
        for name in base_params:
            np.testing.assert_array_equal(base_params[name], fused_params[name])


# --------------------------------------------------------------------------- #
# Streaming generator + partitioner
# --------------------------------------------------------------------------- #
class TestStreamingGenerator:
    def test_shapes_and_labels(self):
        g = synthetic_graph_streaming(500, 8, 6, 4, avg_degree=6.0, seed=2)
        assert g.num_nodes == 500
        assert g.num_features == 6
        assert not g.is_multilabel
        assert g.labels.min() >= 0 and g.labels.max() < 4
        assert g.num_edges > 0
        # Masks partition the nodes.
        assert (
            g.train_mask.sum() + g.val_mask.sum() + g.test_mask.sum() == 500
        )
        assert not (g.train_mask & g.test_mask).any()

    def test_deterministic(self):
        a = synthetic_graph_streaming(300, 6, 4, 4, seed=9)
        b = synthetic_graph_streaming(300, 6, 4, 4, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.adjacency.indices, b.adjacency.indices)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_community_structure_dominates(self):
        g = synthetic_graph_streaming(2000, 8, 4, 4, intra_ratio=0.9, seed=1)
        rows, cols, _ = g.adjacency.coo()
        same = (g.labels[rows] == g.labels[cols]).mean()
        # 8 communities folded on 4 classes: random edges would agree ~25%.
        assert same > 0.6

    def test_degree_close_to_target(self):
        g = synthetic_graph_streaming(5000, 10, 4, 4, avg_degree=10.0, seed=4)
        # Symmetrised, dedup'd: directed edges / nodes slightly under target.
        assert 7.0 < g.num_edges / g.num_nodes <= 10.0


class TestStreamingPartitioner:
    def test_small_graph_streaming_is_valid(self, rng):
        g = synthetic_graph(
            num_nodes=400, num_communities=8, num_features=4, num_classes=4,
            avg_degree=8.0, seed=6,
        )
        part = partition_graph(g.adjacency, 8, seed=6, method="streaming")
        sizes = part.part_sizes()
        assert part.assignment.shape == (400,)
        assert sizes.sum() == 400
        assert sizes.min() >= 1, "streaming partitions must have no empty part"
        assert part.balance <= 2.0

    def test_streaming_deterministic(self):
        g = synthetic_graph_streaming(3000, 12, 4, 4, seed=8)
        a = partition_graph(g.adjacency, 12, seed=5, method="streaming")
        b = partition_graph(g.adjacency, 12, seed=5, method="streaming")
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_auto_threshold_picks_multilevel_below(self):
        g = synthetic_graph(
            num_nodes=200, num_communities=4, num_features=4, num_classes=4,
            avg_degree=6.0, seed=2,
        )
        auto = partition_graph(g.adjacency, 4, seed=2, method="auto")
        multi = partition_graph(g.adjacency, 4, seed=2, method="multilevel")
        np.testing.assert_array_equal(auto.assignment, multi.assignment)
        assert STREAMING_NODE_THRESHOLD > 200

    def test_invalid_method_rejected(self, rng):
        mat, _ = _random_csr(rng, 10, 10, density=0.3)
        with pytest.raises(ValueError, match="method"):
            partition_graph(mat, 2, method="bogus")


# --------------------------------------------------------------------------- #
# Trainer streaming-blocks mode
# --------------------------------------------------------------------------- #
class TestStreamingBlocksMode:
    @pytest.mark.parametrize("strategy", ["fault_unaware", "fare"])
    def test_bitwise_equivalent_to_retained(self, strategy):
        graph = _graph(13)
        retained, retained_params, rt = _train(
            "gcn", strategy, graph, streaming_blocks=False
        )
        streaming, streaming_params, st = _train(
            "gcn", strategy, graph, streaming_blocks=True
        )
        assert retained.loss_history == streaming.loss_history
        assert retained.test_accuracy_history == streaming.test_accuracy_history
        for name in retained_params:
            np.testing.assert_array_equal(
                retained_params[name], streaming_params[name]
            )
        assert st.blocks_per_batch is None
        assert rt.blocks_per_batch is not None
        # Same plans (every strategy plans its batches independently).
        for plan_r, plan_s in zip(rt.plans, st.plans):
            for br, bs in zip(plan_r.blocks, plan_s.blocks):
                assert br.block_index == bs.block_index
                assert br.crossbar_index == bs.crossbar_index
                assert br.cost == bs.cost
                np.testing.assert_array_equal(
                    br.row_permutation, bs.row_permutation
                )
        assert retained.counters["total_blocks"] == streaming.counters[
            "total_blocks"
        ] > 0

    def test_fault_delta_requires_retained_blocks(self):
        graph = _graph(13)
        strategy = build_strategy("fare")
        trainer = FaultyTrainer(
            graph,
            "gcn",
            strategy,
            TrainingConfig(epochs=1, num_parts=4, batch_clusters=2, seed=0),
            hardware=_hardware(),
            streaming_blocks=True,
        )
        with pytest.raises(RuntimeError, match="retained per-batch blocks"):
            trainer.apply_fault_delta(0.01)

    def test_streaming_conflicts_with_block_artifacts(self):
        graph = _graph(13)
        strategy = build_strategy("fare")
        hw = _hardware()
        base = FaultyTrainer(
            graph,
            "gcn",
            strategy,
            TrainingConfig(epochs=1, num_parts=4, batch_clusters=2, seed=0),
            hardware=hw,
        )
        artifacts = TrainerArtifacts(
            blocks_per_batch=base.blocks_per_batch,
            grids=list(base._grids),
        )
        with pytest.raises(ValueError, match="streaming_blocks"):
            FaultyTrainer(
                graph,
                "gcn",
                build_strategy("fare"),
                TrainingConfig(epochs=1, num_parts=4, batch_clusters=2, seed=0),
                hardware=_hardware(),
                artifacts=artifacts,
                streaming_blocks=True,
            )
