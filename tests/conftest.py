"""Shared fixtures for the test-suite.

Everything here is deliberately tiny (dozens of nodes, 16×16 crossbars) so
individual tests run in milliseconds; the benchmark harness exercises the
realistic sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.graph.datasets import synthetic_graph
from repro.hardware.config import ReRAMConfig
from repro.hardware.faults import FaultMap, FaultModel
from repro.hardware.quantization import FixedPointFormat

# Every run draws the same hypothesis examples and neither reads nor writes an
# example database, so a pass or a failure repeats from one run to the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_config() -> ReRAMConfig:
    """A miniature accelerator: 16×16 crossbars, 8 per tile, 2 tiles."""
    return ReRAMConfig(
        crossbar_rows=16,
        crossbar_cols=16,
        crossbars_per_tile=8,
        num_tiles=2,
    )


@pytest.fixture
def small_config() -> ReRAMConfig:
    """A small accelerator: 32×32 crossbars, 48 crossbars total."""
    return ReRAMConfig(
        crossbar_rows=32,
        crossbar_cols=32,
        crossbars_per_tile=24,
        num_tiles=2,
    )


@pytest.fixture
def fmt() -> FixedPointFormat:
    return FixedPointFormat(total_bits=16, max_value=4.0, bits_per_cell=2)


@pytest.fixture
def fault_model() -> FaultModel:
    return FaultModel(fault_density=0.05, sa0_sa1_ratio=(9.0, 1.0), seed=7)


@pytest.fixture
def small_fault_map(rng) -> FaultMap:
    """A 16×16 fault map with a handful of SA0 and SA1 faults."""
    fmap = FaultMap.empty(16, 16)
    cells = rng.choice(16 * 16, size=12, replace=False)
    for i, flat in enumerate(cells):
        r, c = divmod(int(flat), 16)
        if i < 8:
            fmap.sa0[r, c] = True
        else:
            fmap.sa1[r, c] = True
    return fmap


@pytest.fixture
def tiny_graph():
    """A 60-node community graph, single-label, 4 classes."""
    return synthetic_graph(
        num_nodes=60,
        num_communities=4,
        num_features=12,
        num_classes=4,
        avg_degree=6.0,
        name="tiny",
        seed=3,
    )


@pytest.fixture
def tiny_multilabel_graph():
    """A 48-node multi-label graph (PPI-style)."""
    return synthetic_graph(
        num_nodes=48,
        num_communities=4,
        num_features=10,
        num_classes=5,
        avg_degree=6.0,
        multilabel=True,
        name="tiny-ppi",
        seed=5,
    )
