"""Benchmark results stay out of the tracked tree unless a recorded run
publishes them.

``record_result`` writes into the gitignored ``.benchmarks/results/``, so a
plain test run rewrites no tracked file; ``run_benchmarks.py`` copies only
the files its own run wrote into ``benchmarks/results/``.
"""

import json
import os
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import _bench_utils
    import run_benchmarks

    return _bench_utils, run_benchmarks


def test_record_result_writes_to_the_untracked_directory(
    bench_modules, tmp_path, monkeypatch
):
    utils, _ = bench_modules
    assert utils.OUTPUT_DIR == BENCH.parent / ".benchmarks" / "results"
    monkeypatch.setattr(utils, "OUTPUT_DIR", tmp_path / "out")
    utils.record_result("demo", "table", {"demo.x": 1})
    assert (tmp_path / "out" / "demo.txt").read_text() == "table\n"
    assert json.loads((tmp_path / "out" / "demo.json").read_text()) == {"demo.x": 1.0}


def test_publish_copies_only_this_runs_files(bench_modules, tmp_path, monkeypatch):
    _, runner = bench_modules
    out, results = tmp_path / "out", tmp_path / "results"
    out.mkdir()
    (out / "earlier.txt").write_text("earlier\n")
    os.utime(out / "earlier.txt", (1_000.0, 1_000.0))
    (out / "this_run.json").write_text('{"demo.x": 2.0}\n')
    monkeypatch.setattr(runner, "OUTPUT_DIR", out)
    monkeypatch.setattr(runner, "RESULTS_DIR", results)
    runner.publish_results(since=2_000.0)
    assert [path.name for path in results.iterdir()] == ["this_run.json"]
    assert runner.collect_summary(0, "ci", "0", since=2_000.0)["demo.x"] == 2.0


@pytest.fixture
def fake_run(bench_modules, tmp_path, monkeypatch):
    """``run_benchmarks.main`` on temporary directories, pytest replaced.

    The replacement writes one metrics file, ``demo.json``, as a benchmark's
    ``record_result`` would; the summary lands in a temporary results
    directory, so no tracked file is written.
    """
    _, runner = bench_modules
    out, results = tmp_path / "out", tmp_path / "results"
    out.mkdir()
    results.mkdir()
    monkeypatch.setattr(runner, "OUTPUT_DIR", out)
    monkeypatch.setattr(runner, "RESULTS_DIR", results)
    monkeypatch.setattr(runner, "SUMMARY_PATH", results / "bench_summary.json")
    monkeypatch.setenv("REPRO_BENCH_SCALE", "ci")
    monkeypatch.delenv("REPRO_BENCH_SEED", raising=False)

    def pytest_writing_demo(command, env):
        (out / "demo.json").write_text('{"demo.x": 2.0}\n')
        return 0

    monkeypatch.setattr(runner.subprocess, "call", pytest_writing_demo)

    def run(argv, previous=None):
        if previous is not None:
            runner.SUMMARY_PATH.write_text(json.dumps(previous))
        assert runner.main(argv) == 0
        return json.loads(runner.SUMMARY_PATH.read_text())

    return run


def test_subset_run_keeps_the_other_benchmarks_keys(fake_run):
    previous = {
        "_meta": {"scale": "ci", "seed": "0", "pytest_exit_code": 1},
        "demo.x": 1.0,
        "other.y": 5.0,
    }
    summary = fake_run(["-k", "demo"], previous)
    assert summary["demo.x"] == 2.0
    assert summary["other.y"] == 5.0
    assert summary["_meta"] == {
        "scale": "ci",
        "seed": "0",
        "pytest_exit_code": 0,
        "subset": "-k demo",
    }


def test_subset_run_at_another_seed_starts_afresh(fake_run):
    previous = {"_meta": {"scale": "ci", "seed": "3"}, "other.y": 5.0}
    summary = fake_run(["-k", "demo"], previous)
    assert "other.y" not in summary
    assert summary["demo.x"] == 2.0
    assert summary["_meta"]["seed"] == "0"
    assert summary["_meta"]["subset"] == "-k demo"


def test_full_run_starts_afresh(fake_run):
    previous = {"_meta": {"scale": "ci", "seed": "0"}, "other.y": 5.0}
    summary = fake_run([], previous)
    assert summary == {
        "_meta": {"scale": "ci", "seed": "0", "pytest_exit_code": 0},
        "demo.x": 2.0,
    }
