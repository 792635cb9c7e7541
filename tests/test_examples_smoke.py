"""Smoke tests executing the README's advertised commands.

``examples/quickstart.py`` is the advertised entry point of the repository;
running it (tiny configuration, a second or two) inside tier-1 means the
README's quickstart can never silently rot.  The example is executed as a
real subprocess — fresh interpreter, ``PYTHONPATH=src`` exactly as the
README instructs — not imported, so argument parsing and the module guard
are exercised too.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run(cmd, env, timeout=180):
    return subprocess.run(
        cmd,
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
        cwd=str(REPO_ROOT),
    )


def _src_env(**extra):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env.update(extra)
    return env


def test_quickstart_example_runs_end_to_end():
    env = _src_env()
    proc = _run(
        [
            sys.executable,
            str(REPO_ROOT / "examples" / "quickstart.py"),
            "--epochs",
            "2",
        ],
        env,
    )
    assert proc.returncode == 0, f"quickstart failed:\n{proc.stderr}"
    # The comparison table and the closing summary must both be present.
    for needle in ("fault_free", "fault_unaware", "fare", "FARe restores"):
        assert needle in proc.stdout, (
            f"expected {needle!r} in quickstart output:\n{proc.stdout}"
        )


def test_readme_large_graph_quickstart():
    """The README's streaming quickstart at smoke scale.

    60k nodes sits above ``STREAMING_NODE_THRESHOLD`` (50k), so the run
    exercises the real large-graph machinery — chunked generation and the
    streaming partitioner — in a few seconds, planning from lazy block
    views.  The full 10^6-node configuration is gated (with a peak-RSS
    ceiling) in ``benchmarks/test_bench_multigraph_train.py``.
    """
    env = _src_env()
    proc = _run(
        [
            sys.executable,
            str(REPO_ROOT / "examples" / "large_graph.py"),
            "--nodes",
            "60000",
        ],
        env,
    )
    assert proc.returncode == 0, f"large_graph failed:\n{proc.stderr}"
    # The README advertises the fused train step as the example's default;
    # the trainer must report it active (not silently fall back).
    assert "train mode: fused" in proc.stdout
    for needle in ("peak RSS", "dense blocks if retained", "test accuracy"):
        assert needle in proc.stdout, (
            f"expected {needle!r} in large_graph output:\n{proc.stdout}"
        )


def test_readme_lifetime_quickstart():
    """The README's device-lifetime commands (tiny checkpoint counts)."""
    env = _src_env()
    module = [sys.executable, "-m", "repro.experiments", "lifetime"]

    curve = _run(module + ["--epochs", "1", "--checkpoints", "2"], env)
    assert curve.returncode == 0, f"lifetime failed:\n{curve.stderr}"
    assert "Device lifetime" in curve.stdout
    assert "Writes" in curve.stdout and "Replan ms" in curve.stdout
    # Two wear-out checkpoints were walked: header + separator + 2 rows.
    assert len(curve.stdout.strip().splitlines()) >= 4

    grid = _run(
        module + ["--grid", "--densities", "0.012", "0.014", "--compare-cold"], env
    )
    assert grid.returncode == 0, f"lifetime --grid failed:\n{grid.stderr}"
    assert "Cross-density plan grid" in grid.stdout
    # --compare-cold fills the final column with measured times, not dashes.
    assert "Cold ms" in grid.stdout
    last_row = grid.stdout.strip().splitlines()[-1]
    assert not last_row.rstrip().endswith("-")

