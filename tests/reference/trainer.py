"""Reference training and evaluation loops of :class:`FaultyTrainer`."""

from __future__ import annotations

from typing import List, Tuple

from repro.pipeline.trainer import FaultyTrainer
from repro.tensor import kernels


class AccumulationTrainer(FaultyTrainer):
    """``train_mode="fused"`` semantics through per-member accumulation.

    ``zero_grad`` runs once per bucket, every member's ``backward()``
    accumulates into the shared parameter gradients, and the optimizer
    steps once per bucket.  The bucket layout and the epoch permutation
    (one RNG draw over buckets) are the fused mode's, so with
    ``train_bucket_nodes=1`` both degenerate to the seed per-batch loop.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, train_mode="fused", **kwargs)

    def _train_epoch_fused(self) -> List[float]:
        epoch_losses: List[float] = []
        buckets = self._train_bucket_layout()
        order = self._train_rng.permutation(len(buckets))
        for bucket_position in order:
            bucket = buckets[int(bucket_position)]
            kernels.COUNTERS.batched_train_buckets += 1
            self._batched_train_buckets += 1
            self.optimizer.zero_grad()
            for index in bucket:
                batch = self.batches[index]
                logits = self.model(self._batch_inputs(index))
                loss = self._loss(
                    logits, batch.subgraph.labels, batch.subgraph.train_mask
                )
                loss.backward()
                epoch_losses.append(loss.item())
            self.optimizer.step()
            self.strategy.after_optimizer_step(self.model)
        return epoch_losses


class PerSplitEvalTrainer(FaultyTrainer):
    """Per-epoch accuracies from one :meth:`evaluate` pass per split.

    The seed eval loop: one forward per batch per split, each programming
    the batch's adjacency again.
    """

    def _evaluate_epoch(self) -> Tuple[float, float]:
        return self.evaluate(split="train"), self.evaluate(split="test")
