"""Helpers shared by the benchmark modules (scale/seed selection, result files).

Scale is controlled with the ``REPRO_BENCH_SCALE`` environment variable
(``ci`` by default; set ``paper`` for the full surrogate sizes), the epoch
count with ``REPRO_BENCH_EPOCHS`` (defaults to the scale's setting) and the
seed with ``REPRO_BENCH_SEED``.

Benchmarks that want to be tracked pass ``metrics`` (a flat
``name → number`` mapping) to :func:`record_result`.  Results land in the
untracked ``.benchmarks/results/``, so a plain test run leaves the tracked
tree alone; ``benchmarks/run_benchmarks.py`` copies the files its own run
wrote into ``benchmarks/results/`` and merges every metrics file into
``benchmarks/results/bench_summary.json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional

OUTPUT_DIR = Path(__file__).resolve().parent.parent / ".benchmarks" / "results"


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "ci")


def bench_epochs() -> Optional[int]:
    value = os.environ.get("REPRO_BENCH_EPOCHS", "")
    return int(value) if value else None


def bench_seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "0"))


def record_result(
    name: str, text: str, metrics: Optional[Dict[str, float]] = None
) -> None:
    """Print a result table and persist it under ``.benchmarks/results/``.

    The single output channel of every benchmark (see
    ``benchmarks/README.md`` for the full contract and the summary schema).

    Parameters
    ----------
    name:
        Result file stem: the table lands in ``<name>.txt`` and the metrics
        in ``<name>.json`` (the directory is created on demand).
    text:
        Human-readable table; also printed so it survives pytest's capture
        in the ``run_benchmarks.py`` log.
    metrics:
        Optional flat ``metric name → number`` mapping for the
        perf-trajectory summary assembled by ``run_benchmarks.py``
        (merged into ``benchmarks/results/bench_summary.json``).  Values are coerced
        with ``float()``; keys should use the ``"<bench>.<quantity>"``
        dotted convention so the merged summary stays collision-free.
    """
    print()
    print(text)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
    if metrics is not None:
        payload = {key: float(value) for key, value in metrics.items()}
        (OUTPUT_DIR / f"{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
