"""Fused train-step batching: block-diagonal training forwards.

Three subsystems under test:

* the segmented per-member losses (``cross_entropy_segmented`` /
  ``bce_with_logits_segmented``) — member loss values match the per-member
  reference losses and the gradients reaching the logits are **bit-identical**
  to the reference per-row scales;
* the trainer's ``train_mode="fused"`` (one block-diagonal forward + one
  backward per bucket) vs the per-member gradient accumulation of
  :class:`reference.trainer.AccumulationTrainer` (zero_grad once per
  bucket, per-member backward, one optimizer step per bucket) — fuzzed
  equivalence across the three models, fault-free and fault-injected,
  post-deployment deltas, ragged B=1 buckets, lazy block views, with
  the write/endurance counters and optimizer step accounting identical;
* the ``edge_list_graph_streaming`` loader contract.

Equivalence contract (``docs/ARCHITECTURE.md``): per-row sparse kernels and
the per-row loss gradients are structural (bit-identical per member); the
fused GEMMs and the ``reduceat`` loss-value reductions reassociate sums, so
histories/weights are compared to ≤1e-9 tolerances.  A
``TRAIN_BUCKET_NODES`` of 1 degenerates both bucket paths to the seed
per-batch loop bit-for-bit.
"""

import functools

import numpy as np
import pytest

from repro.core.strategies import build_strategy
from repro.graph.datasets import (
    edge_list_graph_streaming,
    synthetic_graph,
)
from repro.graph.normalize import clear_normalize_cache
from repro.hardware.config import ReRAMConfig
from repro.hardware.endurance import PostDeploymentSchedule
from repro.hardware.faults import FaultModel
from repro.nn.losses import (
    bce_with_logits,
    bce_with_logits_segmented,
    cross_entropy,
    cross_entropy_segmented,
)
from repro.pipeline.mapping_engine import HardwareEnvironment
from repro.pipeline.trainer import FaultyTrainer, TrainingConfig
from repro.tensor import kernels
from repro.tensor.tensor import Tensor

from reference.trainer import AccumulationTrainer


# --------------------------------------------------------------------------- #
# Segmented losses
# --------------------------------------------------------------------------- #
def _bucket_fixture(rng, sizes, num_classes=5, multilabel=False, empty=()):
    """Random fused logits + per-member labels/masks for ``sizes`` members."""
    total = sum(sizes)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    if multilabel:
        labels = (rng.random((total, num_classes)) > 0.5).astype(np.int64)
    else:
        labels = rng.integers(0, num_classes, size=total)
    mask = rng.random(total) < 0.7
    for k in empty:
        mask[offsets[k] : offsets[k + 1]] = False
    for k in range(len(sizes)):
        if k not in empty and not mask[offsets[k] : offsets[k + 1]].any():
            mask[offsets[k]] = True
    selected_parts = [
        np.flatnonzero(mask[offsets[k] : offsets[k + 1]]) + offsets[k]
        for k in range(len(sizes))
    ]
    counts = np.array([p.size for p in selected_parts], dtype=np.int64)
    selected = np.concatenate(selected_parts)
    member_ids = np.repeat(np.arange(len(sizes), dtype=np.int64), counts)
    logits = rng.normal(size=(total, num_classes))
    return logits, labels, mask, offsets, selected, member_ids, counts


class TestSegmentedLosses:
    @pytest.mark.parametrize("empty", [(), (1,)])
    def test_cross_entropy_matches_reference(self, rng, empty):
        sizes = [6, 4, 9]
        logits_data, labels, mask, offsets, selected, member_ids, counts = (
            _bucket_fixture(rng, sizes, empty=empty)
        )
        fused = Tensor(logits_data.copy(), requires_grad=True)
        plan = kernels.segment_plan(member_ids, len(sizes))
        total, member_losses = cross_entropy_segmented(
            fused, labels, selected, member_ids, counts, plan=plan
        )
        total.backward()
        for k in range(len(sizes)):
            lo, hi = offsets[k], offsets[k + 1]
            ref_logits = Tensor(logits_data[lo:hi].copy(), requires_grad=True)
            ref = cross_entropy(ref_logits, labels[lo:hi], mask[lo:hi])
            if ref.requires_grad:
                ref.backward()
                # Per-row gradients are structural: bit-identical.
                np.testing.assert_array_equal(fused.grad[lo:hi], ref_logits.grad)
            else:
                assert member_losses[k] == 0.0
                if fused.grad is not None:
                    np.testing.assert_array_equal(
                        fused.grad[lo:hi], np.zeros((hi - lo, logits_data.shape[1]))
                    )
            # Loss values reassociate through reduceat: round-off contract.
            np.testing.assert_allclose(
                member_losses[k], ref.item(), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("empty", [(), (0,)])
    def test_bce_matches_reference(self, rng, empty):
        sizes = [5, 7, 3]
        logits_data, labels, mask, offsets, selected, member_ids, counts = (
            _bucket_fixture(rng, sizes, multilabel=True, empty=empty)
        )
        fused = Tensor(logits_data.copy(), requires_grad=True)
        total, member_losses = bce_with_logits_segmented(
            fused, labels, selected, member_ids, counts
        )
        total.backward()
        for k in range(len(sizes)):
            lo, hi = offsets[k], offsets[k + 1]
            ref_logits = Tensor(logits_data[lo:hi].copy(), requires_grad=True)
            ref = bce_with_logits(ref_logits, labels[lo:hi], mask[lo:hi])
            if ref.requires_grad:
                ref.backward()
                np.testing.assert_array_equal(fused.grad[lo:hi], ref_logits.grad)
            else:
                assert member_losses[k] == 0.0
            np.testing.assert_allclose(
                member_losses[k], ref.item(), rtol=0, atol=1e-12
            )

    def test_all_empty_bucket_has_no_gradient(self, rng):
        logits = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        labels = rng.integers(0, 4, size=8)
        empty = np.zeros(0, dtype=np.int64)
        total, member_losses = cross_entropy_segmented(
            logits, labels, empty, empty, np.array([0, 0], dtype=np.int64)
        )
        assert member_losses == [0.0, 0.0]
        assert total.item() == 0.0


# --------------------------------------------------------------------------- #
# Trainer equivalence
# --------------------------------------------------------------------------- #
def _graph(seed, nodes=72, multilabel=False):
    return synthetic_graph(
        num_nodes=nodes,
        num_communities=4,
        num_features=12,
        num_classes=4,
        avg_degree=6.0,
        multilabel=multilabel,
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
        dropout=flags.pop("dropout", 0.2),
        num_parts=4,
        batch_clusters=1,
        eval_every=1,
        seed=0,
    )
    bucket_nodes = flags.pop("bucket_nodes", 64)
    trainer = trainer_cls(graph, model, strategy, config, hardware=hardware, **flags)
    trainer.TRAIN_BUCKET_NODES = bucket_nodes
    result = trainer.train()
    params = {n: p.data.copy() for n, p in trainer.model.named_parameters()}
    return result, params, trainer


def _accumulate(model, strategy_name, graph, **flags):
    return _train(model, strategy_name, graph, trainer_cls=AccumulationTrainer, **flags)


def _assert_equivalent(reference, fused, ref_params, fused_params):
    np.testing.assert_allclose(
        reference.loss_history, fused.loss_history, rtol=0, atol=1e-9
    )
    for name in ref_params:
        np.testing.assert_allclose(
            ref_params[name], fused_params[name], rtol=0, atol=1e-9
        )
    assert reference.train_accuracy_history == fused.train_accuracy_history
    assert reference.test_accuracy_history == fused.test_accuracy_history


def _write_counters(result):
    return {
        key: value
        for key, value in result.counters.items()
        if "write" in key
    }


class TestFusedTrainEquivalence:
    """Fuzzed: fused mode vs the accumulation reference, three models."""

    @pytest.mark.parametrize("model", ["gcn", "sage", "gat"])
    @pytest.mark.parametrize("strategy", ["fault_free", "fare"])
    @pytest.mark.parametrize("seed", [3, 19])
    def test_fused_vs_accumulation(self, model, strategy, seed):
        graph = _graph(seed)
        ref, ref_params, ref_trainer = _accumulate(model, strategy, graph)
        fused, fused_params, trainer = _train(
            model, strategy, graph, train_mode="fused"
        )
        _assert_equivalent(ref, fused, ref_params, fused_params)
        # Identical write/endurance accounting (fused path replays the
        # per-member adjacency and weight programming events).
        assert _write_counters(ref) == _write_counters(fused)
        # The fused path must actually fire, and both modes step the
        # optimizer exactly once per bucket.
        assert fused.counters["train_fused_forwards"] >= 1
        assert fused.counters["batched_train_buckets"] >= 1
        layout = fused.counters["train_bucket_layout"]
        assert layout >= 1
        assert fused.counters["batched_train_buckets"] == (
            fused.epochs_run * layout
        )
        assert trainer.optimizer.param_version == (
            fused.epochs_run * layout
        )
        assert (
            ref_trainer.optimizer.param_version
            == trainer.optimizer.param_version
        )
        # The plan-cache counter is counted by the kernel layer; the run
        # reports its change over train().
        assert fused.counters["kernel_segment_plan_cache_hits"] >= 1

    def test_multilabel_bce_fused_vs_accumulation(self):
        graph = _graph(23, multilabel=True)
        ref, ref_params, _ = _accumulate("gcn", "fare", graph)
        fused, fused_params, _ = _train("gcn", "fare", graph, train_mode="fused")
        _assert_equivalent(ref, fused, ref_params, fused_params)

    @pytest.mark.parametrize(
        "run",
        [_accumulate, functools.partial(_train, train_mode="fused")],
        ids=["accumulate", "fused"],
    )
    def test_bucket_nodes_1_degenerates_to_seed(self, run):
        """A bucket cap of 1 forces B=1 buckets: bit-identical to seed."""
        graph = _graph(5)
        seed_result, seed_params, _ = _train(
            "gcn", "fare", graph, train_mode="per_batch"
        )
        bucket, bucket_params, trainer = run("gcn", "fare", graph, bucket_nodes=1)
        assert seed_result.loss_history == bucket.loss_history
        assert seed_result.test_accuracy_history == bucket.test_accuracy_history
        for name in seed_params:
            np.testing.assert_array_equal(seed_params[name], bucket_params[name])
        assert bucket.counters["batched_train_buckets"] == (
            bucket.epochs_run * len(trainer.batches)
        )
        assert bucket.counters["train_fused_forwards"] == 0

    @pytest.mark.parametrize("model", ["gcn", "sage"])
    def test_post_deployment_delta(self, model):
        post = PostDeploymentSchedule(total_extra_density=0.01, num_epochs=3)
        graph = _graph(13)
        ref, ref_params, _ = _accumulate(model, "fare", graph, post_deployment=post)
        fused, fused_params, _ = _train(
            model, "fare", graph, train_mode="fused", post_deployment=post
        )
        _assert_equivalent(ref, fused, ref_params, fused_params)
        assert _write_counters(ref) == _write_counters(fused)

    def test_block_views_compose(self):
        graph = _graph(17)
        ref, ref_params, _ = _accumulate("sage", "fare", graph)
        fused, fused_params, _ = _train("sage", "fare", graph, train_mode="fused")
        _assert_equivalent(ref, fused, ref_params, fused_params)
        assert _write_counters(ref) == _write_counters(fused)

    @pytest.mark.parametrize("mode", ["bogus", "accumulate"])
    def test_invalid_train_mode_rejected(self, mode):
        graph = _graph(3)
        with pytest.raises(ValueError, match="train_mode"):
            FaultyTrainer(
                graph,
                "gcn",
                build_strategy("fault_free"),
                TrainingConfig(epochs=1, num_parts=4, batch_clusters=1, seed=0),
                train_mode=mode,
            )


class TestSeedPathUntouched:
    def test_default_mode_is_per_batch(self):
        graph = _graph(7)
        default, default_params, trainer = _train("gcn", "fare", graph)
        explicit, explicit_params, _ = _train(
            "gcn", "fare", graph, train_mode="per_batch"
        )
        assert trainer.train_mode == "per_batch"
        assert default.loss_history == explicit.loss_history
        for name in default_params:
            np.testing.assert_array_equal(
                default_params[name], explicit_params[name]
            )
        assert default.counters["batched_train_buckets"] == 0
        assert default.counters["train_fused_forwards"] == 0
        assert default.counters["train_bucket_layout"] == 0


# --------------------------------------------------------------------------- #
# Real-data streaming loader
# --------------------------------------------------------------------------- #
class TestEdgeListLoader:
    def test_npz_round_trip_with_full_payload(self, rng, tmp_path):
        reference = _graph(31, nodes=60)
        rows, cols, _ = reference.adjacency.coo()
        path = tmp_path / "export.npz"
        np.savez(
            path,
            edges=np.stack([rows, cols], axis=1),
            num_nodes=np.int64(reference.num_nodes),
            features=reference.features,
            labels=reference.labels,
            train_mask=reference.train_mask,
            val_mask=reference.val_mask,
            test_mask=reference.test_mask,
        )
        loaded = edge_list_graph_streaming(str(path))
        assert loaded.num_nodes == reference.num_nodes
        np.testing.assert_array_equal(loaded.features, reference.features)
        np.testing.assert_array_equal(loaded.labels, reference.labels)
        np.testing.assert_array_equal(loaded.train_mask, reference.train_mask)
        # Same edge set through the same symmetrise/dedup contract.
        np.testing.assert_array_equal(
            loaded.adjacency.indptr, reference.adjacency.indptr
        )
        np.testing.assert_array_equal(
            loaded.adjacency.indices, reference.adjacency.indices
        )
        assert loaded.metadata["streaming"] == 1.0

    def test_npz_structure_only_synthesises_rest(self, tmp_path):
        path = tmp_path / "structure.npz"
        src = np.array([0, 1, 2, 3, 4, 5, 6, 7], dtype=np.int64)
        dst = np.array([1, 2, 3, 0, 5, 6, 7, 4], dtype=np.int64)
        np.savez(path, src=src, dst=dst)
        loaded = edge_list_graph_streaming(
            str(path), num_features=6, num_classes=3, seed=4
        )
        assert loaded.num_nodes == 8
        assert loaded.features.shape == (8, 6)
        assert loaded.labels.shape == (8,)
        assert loaded.labels.max() < 3
        assert (
            loaded.train_mask.sum()
            + loaded.val_mask.sum()
            + loaded.test_mask.sum()
        ) == 8
        again = edge_list_graph_streaming(
            str(path), num_features=6, num_classes=3, seed=4
        )
        np.testing.assert_array_equal(loaded.features, again.features)

    def test_text_edge_list_chunked(self, tmp_path):
        path = tmp_path / "edges.txt"
        lines = ["# comment", "% other comment", ""]
        edges = [(i, (i + 1) % 10) for i in range(10)]
        lines += [f"{u} {v}" for u, v in edges[:5]]
        lines += [f"{u},{v}" for u, v in edges[5:]]
        path.write_text("\n".join(lines) + "\n")
        loaded = edge_list_graph_streaming(
            str(path), num_features=4, num_classes=2, seed=0, chunk_edges=3
        )
        assert loaded.num_nodes == 10
        assert loaded.num_edges > 0
        unchunked = edge_list_graph_streaming(
            str(path), num_features=4, num_classes=2, seed=0
        )
        np.testing.assert_array_equal(
            loaded.adjacency.indices, unchunked.adjacency.indices
        )

    def test_same_contract_as_synthetic_streaming(self, tmp_path):
        """The loaded graph trains like a synthetic streaming graph."""
        path = tmp_path / "train.npz"
        reference = _graph(37, nodes=72)
        rows, cols, _ = reference.adjacency.coo()
        np.savez(path, edges=np.stack([rows, cols], axis=1))
        graph = edge_list_graph_streaming(
            str(path), num_features=8, num_classes=4, seed=2
        )
        clear_normalize_cache()
        trainer = FaultyTrainer(
            graph,
            "gcn",
            build_strategy("fare"),
            TrainingConfig(
                epochs=1, hidden_features=8, num_parts=4, batch_clusters=1,
                seed=0,
            ),
            hardware=_hardware(),
            train_mode="fused",
        )
        result = trainer.train()
        assert result.epochs_run == 1

    def test_bad_inputs_rejected(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no edges"):
            edge_list_graph_streaming(str(empty))
        bad = tmp_path / "bad.npz"
        np.savez(bad, nonsense=np.zeros(3))
        with pytest.raises(ValueError, match="edges"):
            edge_list_graph_streaming(str(bad))
        short = tmp_path / "short.npz"
        np.savez(
            short,
            edges=np.array([[0, 5]], dtype=np.int64),
            num_nodes=np.int64(3),
        )
        with pytest.raises(ValueError, match="num_nodes"):
            edge_list_graph_streaming(str(short))

    @pytest.mark.skipif(
        "REPRO_REAL_EDGELIST" not in __import__("os").environ,
        reason="set REPRO_REAL_EDGELIST to a real .npz/edge-list export",
    )
    def test_real_dataset_fixture_when_present(self):
        import os

        graph = edge_list_graph_streaming(os.environ["REPRO_REAL_EDGELIST"])
        assert graph.num_nodes > 0
        assert graph.num_edges > 0
        assert graph.metadata.get("real_edges") == 1.0
