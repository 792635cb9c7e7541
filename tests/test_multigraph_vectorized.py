"""Multi-graph vectorised training + the million-node streaming path.

Four subsystems under test:

* the lazy block views (``decompose_adjacency`` → ``AdjacencyBlocks``) —
  fuzzed bit-identical to a dense reference;
* the block-diagonal CSR fusion (``block_diag_csr`` / ``CSRMatrix.block_diag``)
  and the bucketed-eval / aggregation-precompute trainer paths — fuzzed
  equivalence against the seed per-split per-batch loop
  (:class:`reference.trainer.PerSplitEvalTrainer`) across the three models,
  fault-free and fault-injected;
* the streaming dataset generator and partitioner;
* the post-deployment fault reaction over block views — histories, plans and
  counters identical to a trainer given the dense reference blocks, and
  working above the streaming partitioner's node threshold.

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
from repro.hardware.bist import BISTReport
from repro.hardware.config import ReRAMConfig
from repro.hardware.endurance import PostDeploymentSchedule
from repro.hardware.faults import FaultModel
from repro.pipeline.mapping_engine import (
    AdjacencyBlocks,
    HardwareEnvironment,
    decompose_adjacency,
    peak_rss_bytes,
)
from repro.pipeline.trainer import FaultyTrainer, TrainerArtifacts, TrainingConfig
from repro.tensor import kernels
from repro.tensor.tensor import Tensor

from reference.fused import outer_constant
from reference.hardware import dense_decompose_adjacency
from reference.trainer import PerSplitEvalTrainer, ReplanEveryEpochTrainer


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

    def test_fuzz_matches_dense_reference(self):
        """Ragged shapes, unsorted and duplicate entries, non-positive data.

        The dense matrix is written entry by entry in CSR storage order, so
        the last duplicate of a cell wins and ``> 0`` keeps only positive
        values — the rules the view must apply.  Every case is also checked
        against the eager dense decomposition the views replaced.
        """
        rng = np.random.default_rng(2024)
        for case in range(240):
            n, m = (int(v) for v in rng.integers(1, 90, size=2))
            rows, cols = (int(v) for v in rng.integers(1, 24, size=2))
            nnz = 0 if case % 10 == 0 else int(rng.integers(1, 4 * max(n, m)))
            entry_rows = np.sort(rng.integers(0, n, size=nnz))
            entry_cols = rng.integers(0, m, size=nnz)  # unsorted within a row
            if case % 3 == 0 and nnz:
                # Re-store a third of the cells with a different value.
                again = rng.integers(0, nnz, size=max(1, nnz // 3))
                entry_rows = np.concatenate((entry_rows, entry_rows[again]))
                entry_cols = np.concatenate((entry_cols, entry_cols[again]))
                order = np.argsort(entry_rows, kind="stable")
                entry_rows, entry_cols = entry_rows[order], entry_cols[order]
            data = rng.choice([-2.0, 0.0, 0.5, 1.0, 3.0], size=entry_rows.size)
            indptr = np.concatenate(([0], np.cumsum(np.bincount(entry_rows, minlength=n))))
            mat = CSRMatrix(indptr, entry_cols, data, (n, m))
            dense = np.zeros((n, m))
            for r, c, v in zip(entry_rows, entry_cols, data):
                dense[r, c] = v

            view, grid = decompose_adjacency(mat, rows, cols)
            ref_blocks, ref_grid = _dense_decompose_reference(dense, rows, cols)
            eager_blocks, _ = dense_decompose_adjacency(mat, rows, cols)
            assert isinstance(view, AdjacencyBlocks)
            assert grid == view.grid == ref_grid
            assert len(view) == len(ref_blocks)
            for k, want in enumerate(ref_blocks):
                got = view[k]
                assert got.dtype == np.float64 and got.shape == (rows, cols)
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(got, eager_blocks[k])
            start, stop = sorted(int(v) for v in rng.integers(0, len(view) + 1, 2))
            sliced = view[start:stop]
            assert isinstance(sliced, list) and len(sliced) == stop - start
            for got, want in zip(sliced, ref_blocks[start:stop]):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(view[-1], ref_blocks[-1])
            with pytest.raises(IndexError):
                view[len(view)]
            with pytest.raises(IndexError):
                view[-len(view) - 1]

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
        out = outer_constant(scale, vec)
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
        seed=0,
    )
    bucket_nodes = flags.pop("bucket_nodes", FaultyTrainer.EVAL_BUCKET_NODES)
    trainer = trainer_cls(graph, model, strategy, config, hardware=hardware, **flags)
    trainer.EVAL_BUCKET_NODES = bucket_nodes
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
        """An eval bucket cap of 1 forces one batch per bucket (no fusion)."""
        graph = _graph(5)
        base, base_params, _ = _train(
            model, "fare", graph, trainer_cls=PerSplitEvalTrainer
        )
        ragged, ragged_params, trainer = _train(
            model, "fare", graph, bucket_nodes=1
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
# Post-deployment fault reaction over block views
# --------------------------------------------------------------------------- #
def _same_plans(left, right):
    assert len(left) == len(right)
    for plan_l, plan_r in zip(left, right):
        assert len(plan_l) == len(plan_r)
        for bl, br in zip(plan_l.blocks, plan_r.blocks):
            assert bl.block_index == br.block_index
            assert bl.crossbar_index == br.crossbar_index
            assert bl.cost == br.cost
            assert bl.sa1_mismatch == br.sa1_mismatch
            np.testing.assert_array_equal(bl.row_permutation, br.row_permutation)


class TestPostDeploymentViews:
    @pytest.mark.parametrize("replan", [False, True], ids=["refresh", "replan"])
    @pytest.mark.parametrize("strategy", ["fault_unaware", "fare", "nr"])
    def test_matches_dense_reference_blocks(self, strategy, replan):
        """BIST re-scans refresh or re-plan from the views exactly as from
        the dense reference blocks."""
        graph = _graph(13)
        post = PostDeploymentSchedule(total_extra_density=0.02, num_epochs=3)
        trainer_cls = ReplanEveryEpochTrainer if replan else FaultyTrainer
        views, view_params, vt = _train(
            "gcn", strategy, graph, trainer_cls=trainer_cls, post_deployment=post
        )
        dense = [
            dense_decompose_adjacency(batch.subgraph.adjacency, 16, 16)[0]
            for batch in vt.batches
        ]
        ref, ref_params, rt = _train(
            "gcn",
            strategy,
            graph,
            trainer_cls=trainer_cls,
            post_deployment=post,
            artifacts=TrainerArtifacts(blocks_per_batch=dense),
        )
        assert all(isinstance(b, AdjacencyBlocks) for b in vt.blocks_per_batch)
        assert rt.blocks_per_batch is dense
        assert views.loss_history == ref.loss_history
        assert views.train_accuracy_history == ref.train_accuracy_history
        assert views.test_accuracy_history == ref.test_accuracy_history
        for name in ref_params:
            np.testing.assert_array_equal(view_params[name], ref_params[name])
        _same_plans(vt.plans, rt.plans)
        assert views.counters == ref.counters
        assert views.counters["total_blocks"] == sum(len(b) for b in dense) > 0

    def test_block_artifacts_must_cover_every_batch(self):
        graph = _graph(13)
        config = TrainingConfig(epochs=1, num_parts=4, batch_clusters=1, seed=0)
        base = FaultyTrainer(
            graph, "gcn", build_strategy("fare"), config, hardware=_hardware()
        )
        short = TrainerArtifacts(blocks_per_batch=base.blocks_per_batch[:-1])
        with pytest.raises(ValueError, match="block lists"):
            FaultyTrainer(
                graph,
                "gcn",
                build_strategy("fare"),
                config,
                hardware=_hardware(),
                artifacts=short,
            )

    def test_fault_delta_above_streaming_threshold(self):
        """Post-deployment reaction works at streaming-partitioner scale."""
        nodes = STREAMING_NODE_THRESHOLD
        parts = nodes // 1250
        graph = synthetic_graph_streaming(nodes, parts, 8, 8, avg_degree=8.0, seed=3)
        hardware = HardwareEnvironment(
            config=ReRAMConfig(
                crossbar_rows=64, crossbar_cols=64, crossbars_per_tile=160, num_tiles=2
            ),
            fault_model=FaultModel(0.05, (9.0, 1.0), seed=4),
            weight_fraction=0.5,
        )
        trainer = FaultyTrainer(
            graph,
            "gcn",
            build_strategy("fault_unaware"),
            TrainingConfig(
                epochs=1, hidden_features=8, num_parts=parts, batch_clusters=1,
                seed=0,
            ),
            hardware=hardware,
        )
        before = trainer.plans
        assert isinstance(trainer.apply_fault_delta(0.01), BISTReport)
        assert trainer.plans is before  # refresh keeps the sequential plan
        assert isinstance(trainer.apply_fault_delta(0.01, replan=True), BISTReport)
        assert len(trainer.plans) == len(trainer.batches)
        assert sum(plan.total_cost for plan in trainer.plans) > sum(
            plan.total_cost for plan in before
        )
