"""Cluster-GCN style mini-batch construction.

The paper (Section III-A / Table II) trains with mini-batches built from the
METIS partitions: each batch groups ``batch_size`` clusters, the induced
subgraph over their union is formed, and the GNN processes the subgraph's
adjacency on the ReRAM crossbars.  :class:`ClusterBatchSampler` reproduces
that procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.graph.graph import Graph, Subgraph
from repro.graph.partition import PartitionResult, partition_graph
from repro.utils.validation import check_positive_int


@dataclass
class ClusterBatch:
    """A single training batch: a subgraph plus the clusters it came from."""

    index: int
    cluster_ids: List[int]
    subgraph: Subgraph

    @property
    def num_nodes(self) -> int:
        return self.subgraph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.subgraph.num_edges


class ClusterBatchSampler:
    """Builds mini-batches by grouping graph partitions.

    Parameters
    ----------
    graph:
        The full training graph.
    num_parts:
        Number of clusters produced by the partitioner.
    batch_clusters:
        Number of clusters grouped into one mini-batch (Table II "Batch").
    seed:
        Seed (or generator) breaking the partitioner's ties.
    partition:
        Optionally supply a precomputed :class:`PartitionResult` (used by
        tests and by experiments that share partitions across methods).
    """

    def __init__(
        self,
        graph: Graph,
        num_parts: int,
        batch_clusters: int,
        seed: Optional[int] = 0,
        partition: Optional[PartitionResult] = None,
    ) -> None:
        self.graph = graph
        self.num_parts = check_positive_int(num_parts, "num_parts")
        self.batch_clusters = check_positive_int(batch_clusters, "batch_clusters")
        if self.batch_clusters > self.num_parts:
            raise ValueError(
                f"batch_clusters ({batch_clusters}) cannot exceed num_parts "
                f"({num_parts})"
            )
        self.partition = partition or partition_graph(
            graph.adjacency, num_parts, seed=seed
        )
        if self.partition.num_parts != self.num_parts:
            raise ValueError(
                "partition.num_parts does not match num_parts "
                f"({self.partition.num_parts} vs {self.num_parts})"
            )
        if self.partition.assignment.shape[0] != graph.num_nodes:
            raise ValueError(
                "injected partition covers "
                f"{self.partition.assignment.shape[0]} nodes but the graph "
                f"has {graph.num_nodes}"
            )

    @property
    def num_batches(self) -> int:
        """Number of batches per epoch."""
        return int(np.ceil(self.num_parts / self.batch_clusters))

    def epoch(self) -> Iterator[ClusterBatch]:
        """Yield the batches of one training epoch, clusters in order."""
        for batch_index in range(self.num_batches):
            start = batch_index * self.batch_clusters
            cluster_ids = list(
                range(start, min(start + self.batch_clusters, self.num_parts))
            )
            node_ids = np.concatenate(
                [self.partition.part_nodes(c) for c in cluster_ids]
            )
            node_ids.sort()
            yield ClusterBatch(
                index=batch_index,
                cluster_ids=cluster_ids,
                subgraph=self.graph.subgraph(node_ids),
            )
