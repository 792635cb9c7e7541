#!/usr/bin/env python
"""Run the benchmark suite and write a machine-readable perf summary.

Entry point for CI / tooling::

    python benchmarks/run_benchmarks.py                # whole suite, ci scale
    python benchmarks/run_benchmarks.py -k throughput  # subset (pytest args)
    REPRO_BENCH_SCALE=paper python benchmarks/run_benchmarks.py

The suite runs at ``REPRO_BENCH_SCALE=ci`` unless the environment already
says otherwise.  Benchmarks write their tables and metrics to the untracked
``.benchmarks/results/`` (``_bench_utils.record_result``); afterwards the
files this run wrote are copied into ``benchmarks/results/`` and every
``<name>.json`` metrics file among them is merged into
``benchmarks/results/bench_summary.json`` — a flat ``metric name → value``
mapping plus a ``_meta`` block (scale, seed, pytest exit code) — so the perf
trajectory can be diffed without parsing tables.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from _bench_utils import OUTPUT_DIR

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
SUMMARY_PATH = RESULTS_DIR / "bench_summary.json"


def publish_results(since: float) -> None:
    """Copy the result files written at or after ``since`` into ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    for path in sorted(OUTPUT_DIR.glob("*")):
        if path.is_file() and path.stat().st_mtime >= since:
            shutil.copyfile(path, RESULTS_DIR / path.name)


def collect_summary(
    exit_code: int, scale: str, seed: str, since: float = 0.0
) -> dict:
    """Merge the per-benchmark metrics JSONs into one flat summary.

    Only files (re)written at or after ``since`` are merged, so metrics left
    behind by an earlier run at a different scale/seed are never mislabeled
    with this run's ``_meta``.
    """
    metrics = {}
    for path in sorted(RESULTS_DIR.glob("*.json")):
        if path.name == SUMMARY_PATH.name:
            continue
        try:
            if path.stat().st_mtime < since:
                print(f"note: skipping stale metrics file {path.name}")
                continue
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping unreadable metrics file {path}: {exc}")
            continue
        if not isinstance(payload, dict):
            print(f"warning: skipping non-object metrics file {path}")
            continue
        metrics.update(payload)
    return {
        "_meta": {
            "scale": scale,
            "seed": seed,
            "pytest_exit_code": exit_code,
        },
        **metrics,
    }


def main(argv: list) -> int:
    env = dict(os.environ)
    env.setdefault("REPRO_BENCH_SCALE", "ci")
    src = str(BENCH_DIR.parent / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )

    command = [sys.executable, "-m", "pytest", "-q", str(BENCH_DIR), *argv]
    print("running:", " ".join(command))
    # 2 s slack: coarse filesystem mtime granularity must not make metrics
    # written moments after this stamp look stale.
    started = time.time() - 2.0
    exit_code = subprocess.call(command, env=env)

    publish_results(started)
    summary = collect_summary(
        exit_code,
        scale=env["REPRO_BENCH_SCALE"],
        seed=env.get("REPRO_BENCH_SEED", "0"),
        since=started,
    )
    SUMMARY_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {SUMMARY_PATH} ({len(summary) - 1} metrics)")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
