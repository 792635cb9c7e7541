"""Pytest fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper: it runs
the corresponding experiment driver once (``benchmark.pedantic`` with a single
round — the drivers themselves are the expensive part), asserts the paper's
qualitative shape, prints the rows/series the paper reports and also writes
them under the untracked ``.benchmarks/results/`` so the output survives
pytest's capture (``run_benchmarks.py`` copies them into
``benchmarks/results/``).  See ``_bench_utils`` for the environment variables
controlling scale, epochs and seed.

The throughput benchmarks time the production paths against the seed paths
in ``tests/reference/``, imported as the ``reference`` package.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make `_bench_utils` and the `reference` package importable regardless of
# how pytest was invoked.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))


@pytest.fixture
def run_once(benchmark):
    """Run an experiment driver exactly once under pytest-benchmark timing."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
