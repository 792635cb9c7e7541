"""Failure tests for the sweep engine.

The contract under test (see ``repro/experiments/failures.py``):

* a spec whose run raises is quarantined after one attempt, serially or in
  a worker, with its remote traceback, whatever the exception type;
* a lost worker group reruns once, alone: a worker killed once leaves the
  results bit-identical to a failure-free run, and a group that kills its
  worker every time quarantines only its own specs;
* quarantined cells render as missing, and the CLI exits 1 on them;
* an interrupted sweep resumes from the result store alone, through the
  engine and through ``python -m repro.experiments --store``, without
  recomputing finished specs.

Failures enter through the ``execute_spec`` seam, with the substitutes of
``reference.chaos``.
"""

import re
from functools import partial

import pytest

from repro.api import run_sweep
from repro.experiments import sweeps
from repro.experiments.failures import (
    FailureRecord,
    SpecExecutionError,
    WorkerCrashError,
    format_failure_report,
)
from repro.experiments.sweeps import ResultStore, SweepEngine, SweepPlan
from repro.experiments.tables import aggregate_seed_rows
from repro.utils.tabulate import MISSING, format_table

from reference import chaos
from test_experiments_sweeps import SMALL_GRID, TWO_SPEC_PLAN, comparable

#: Two artifact groups (groups key on dataset/scale/seed) so a parallel run
#: has a second group in the pool when one group's worker dies.
TWO_GROUP_GRID = SweepPlan.grid(
    datasets=[("ppi", "gcn"), ("reddit", "gcn")],
    strategies=("fault_free", "fault_unaware"),
    fault_densities=(0.05,),
    seeds=(0,),
    scale="ci",
    epochs=1,
)

#: Exception types a spec's run might raise; none of them is retried.
SPEC_ERRORS = (ConnectionError, OSError, MemoryError)


def reference_results(plan):
    """Failure-free serial reference for bit-identity assertions."""
    engine = SweepEngine()
    sweep = engine.run(plan)
    assert sweep.complete()
    return {spec: comparable(sweep[spec]) for spec in plan}


@pytest.fixture(scope="module")
def two_group_reference():
    return reference_results(TWO_GROUP_GRID)


def by_signature(plan):
    return sorted(plan, key=lambda s: s.signature())


def victim_errors(plan):
    """Map the plan's first specs, by signature, to one error type each."""
    return {
        spec.signature(): error_type
        for spec, error_type in zip(by_signature(plan), SPEC_ERRORS)
    }


class TestFailureRecord:
    def test_record_carries_spec_context_and_remote_traceback(self):
        spec = next(iter(SMALL_GRID))
        try:
            raise ValueError("exploded in run")
        except ValueError as caught:
            record = FailureRecord.from_exception(spec, caught)
        assert record.signature == spec.signature()
        assert record.error_type == "ValueError"
        assert "exploded in run" in record.traceback
        error = SpecExecutionError(record)
        assert error.signature == spec.signature()
        message = str(error)
        assert spec.signature() in message
        assert "remote traceback" in message
        assert "exploded in run" in message

    def test_failure_report_renders_table_and_tracebacks(self):
        spec = next(iter(SMALL_GRID))
        try:
            raise ValueError("exploded in run")
        except ValueError as caught:
            record = FailureRecord.from_exception(spec, caught)
        report = format_failure_report([record])
        assert spec.signature()[:12] in report
        assert "ValueError: exploded in run" in report
        assert "no quarantined specs" in format_failure_report([])


class TestSerialFaults:
    def test_exception_quarantines_after_one_attempt(self, monkeypatch):
        errors = victim_errors(SMALL_GRID)
        inject = partial(chaos.raise_on, errors)
        calls = []

        def counting(spec, artifacts=None):
            calls.append(spec.signature())
            return inject(spec, artifacts)

        monkeypatch.setattr(sweeps, "execute_spec", counting)
        engine = SweepEngine()
        sweep = engine.run(SMALL_GRID)
        assert sorted(calls) == sorted(spec.signature() for spec in SMALL_GRID)
        victims = [spec for spec in SMALL_GRID if spec.signature() in errors]
        assert set(sweep.failed) == set(victims)
        assert len(sweep.results) == len(SMALL_GRID) - len(errors)
        assert sweep.failed_specs == [sweep.failed[spec] for spec in victims]
        for spec in victims:
            record = sweep.failed[spec]
            error_type = errors[spec.signature()]
            assert record.error_type == error_type.__name__
            assert f"injected {error_type.__name__}" in record.message
            assert "chaos.py" in record.traceback
            with pytest.raises(SpecExecutionError) as excinfo:
                sweep[spec]
            assert spec.signature() in str(excinfo.value)
            assert sweep.get(spec) is None
            assert sweep.value(spec, lambda r: r.final_test_accuracy) is None
        assert engine.summary()["quarantine_specs"] == len(errors)

    def test_quarantine_is_session_sticky(self, monkeypatch):
        """A later plan over the same engine reports, not re-executes."""
        victim = by_signature(SMALL_GRID)[0]
        monkeypatch.setattr(
            sweeps,
            "execute_spec",
            partial(chaos.raise_on, {victim.signature(): RuntimeError}),
        )
        engine = SweepEngine()
        engine.run(SMALL_GRID)
        executed_before = engine.runs_executed
        sweep = engine.run(SMALL_GRID)
        assert victim in sweep.failed
        assert engine.runs_executed == executed_before
        assert engine.summary()["quarantine_memo_hits"] == 1
        engine.clear_memo()
        assert engine.run(SweepPlan([victim])).failed  # re-attempted, re-failed


class TestParallelFaults:
    def test_exception_quarantines_with_remote_traceback(
        self, monkeypatch, two_group_reference
    ):
        errors = victim_errors(TWO_GROUP_GRID)
        monkeypatch.setattr(sweeps, "execute_spec", partial(chaos.raise_on, errors))
        engine = SweepEngine(max_workers=2)
        sweep = engine.run(TWO_GROUP_GRID)
        assert {spec.signature() for spec in sweep.failed} == set(errors)
        for spec, record in sweep.failed.items():
            error_type = errors[spec.signature()]
            assert record.error_type == error_type.__name__
            # The traceback was formatted in the worker and crossed the pipe.
            assert "chaos.py" in record.traceback
            assert f"injected {error_type.__name__}" in record.traceback
        for spec, result in sweep.results.items():
            assert comparable(result) == two_group_reference[spec], spec
        stats = engine.summary()
        assert stats["worker_crashes"] == 0
        assert stats["quarantine_specs"] == len(errors)
        assert stats["runs_executed"] == len(TWO_GROUP_GRID) - len(errors)

    def test_worker_killed_once_reruns_to_identical_results(
        self, monkeypatch, tmp_path, two_group_reference
    ):
        victim = by_signature(TWO_GROUP_GRID)[0]
        marker = tmp_path / "killed"
        monkeypatch.setattr(
            sweeps,
            "execute_spec",
            partial(chaos.kill_once, str(marker), {victim.signature()}),
        )
        engine = SweepEngine(max_workers=2)
        sweep = engine.run(TWO_GROUP_GRID)
        assert marker.exists(), "the injected kill never struck"
        assert sweep.complete()
        assert {
            spec: comparable(sweep[spec]) for spec in TWO_GROUP_GRID
        } == two_group_reference
        stats = engine.summary()
        assert stats["worker_crashes"] == 1
        assert stats["quarantine_specs"] == 0

    def test_group_killing_every_worker_quarantines_only_itself(
        self, monkeypatch, two_group_reference
    ):
        victim = by_signature(TWO_GROUP_GRID)[0]
        victim_group = {
            spec
            for spec in TWO_GROUP_GRID
            if spec.artifact_group() == victim.artifact_group()
        }
        monkeypatch.setattr(
            sweeps, "execute_spec", partial(chaos.kill_always, {victim.signature()})
        )
        engine = SweepEngine(max_workers=2)
        sweep = engine.run(TWO_GROUP_GRID)
        assert set(sweep.failed) == victim_group
        for record in sweep.failed.values():
            assert record.error_type == WorkerCrashError.__name__
            assert record.traceback == ""
        survivors = [spec for spec in TWO_GROUP_GRID if spec not in victim_group]
        assert survivors and set(sweep.results) == set(survivors)
        for spec in survivors:
            assert comparable(sweep[spec]) == two_group_reference[spec], spec
        stats = engine.summary()
        # The shared pool broke once, then the victim's group died alone.
        assert stats["worker_crashes"] == 2
        assert stats["quarantine_specs"] == len(victim_group)

    @pytest.mark.parametrize("workers", [0, -2])
    @pytest.mark.parametrize("entry", ["constructor", "run", "api"])
    def test_rejects_worker_count_below_one(self, entry, workers):
        """A worker count below 1 raises instead of running serially."""
        engine = SweepEngine()
        with pytest.raises(ValueError, match="max_workers"):
            if entry == "constructor":
                SweepEngine(max_workers=workers)
            elif entry == "run":
                engine.run(TWO_SPEC_PLAN, max_workers=workers)
            else:
                run_sweep(
                    datasets=(("ppi", "gcn"),),
                    strategies=("fault_free",),
                    fault_densities=(0.05,),
                    epochs=1,
                    max_workers=workers,
                )
        assert engine.runs_executed == 0


class TestResume:
    def test_interrupted_sweep_resumes_without_recompute(self, tmp_path, monkeypatch):
        reference = reference_results(SMALL_GRID)
        store_dir = tmp_path / "runcache"
        published = len(SMALL_GRID) // 2
        monkeypatch.setattr(sweeps, "execute_spec", chaos.InterruptAfter(published))
        first = SweepEngine(store=ResultStore(store_dir))
        with pytest.raises(KeyboardInterrupt):
            first.run(SMALL_GRID)
        assert first.runs_executed == published
        monkeypatch.undo()

        resumed = SweepEngine(store=ResultStore(store_dir))
        sweep = resumed.run(SMALL_GRID)
        assert sweep.complete()
        assert {spec: comparable(sweep[spec]) for spec in SMALL_GRID} == reference
        stats = resumed.summary()
        # Only the unfinished specs recompute; finished ones are store hits.
        assert stats["runs_executed"] == len(SMALL_GRID) - published
        assert stats["store_hits"] == published

    def test_corrupted_store_file_recomputes_only_that_spec(self, tmp_path):
        reference = reference_results(SMALL_GRID)
        store_dir = tmp_path / "runcache"
        first = SweepEngine(store=ResultStore(store_dir))
        assert first.run(SMALL_GRID).complete()

        victim = by_signature(SMALL_GRID)[0]
        (store_dir / f"{victim.signature()}.json").write_text('{"torn": ')

        resumed = SweepEngine(store=ResultStore(store_dir))
        sweep = resumed.run(SMALL_GRID)
        assert sweep.complete()
        assert {spec: comparable(sweep[spec]) for spec in SMALL_GRID} == reference
        stats = resumed.summary()
        assert stats["runs_executed"] == 1  # just the corrupted spec
        assert stats["store_hits"] == len(SMALL_GRID) - 1
        assert stats["store_invalidations"] >= 1


class TestPartialGrids:
    def test_missing_cells_render_as_missing(self):
        assert MISSING in format_table(["a"], [[None]])

    def test_aggregate_seed_rows_tolerates_missing(self):
        rows = aggregate_seed_rows(
            [
                [["w", 0.5, None]],
                [["w", 0.7, None]],
            ]
        )
        assert rows == [["w", "0.6000 ± 0.1000", None]]
        partial_rows = aggregate_seed_rows([[["w", 0.5]], [["w", None]]])
        assert partial_rows == [["w", "0.5000 [1/2 seeds]"]]

    def test_fig3_renders_partial_grid(self, monkeypatch):
        from repro.experiments.fig3 import format_fig3, plan_fig3, run_fig3

        victim = by_signature(plan_fig3(epochs=1))[0]
        monkeypatch.setattr(
            sweeps,
            "execute_spec",
            partial(chaos.raise_on, {victim.signature(): RuntimeError}),
        )
        result = run_fig3(epochs=1, engine=SweepEngine())
        rendered = format_fig3(result)
        assert MISSING in rendered  # the quarantined cell is marked, not fatal

    def test_fig4_renders_partial_grid(self, monkeypatch):
        from repro.experiments.fig4 import format_fig4, plan_fig4, run_fig4

        victim = by_signature(plan_fig4(epochs=1))[0]
        monkeypatch.setattr(
            sweeps,
            "execute_spec",
            partial(chaos.raise_on, {victim.signature(): RuntimeError}),
        )
        result = run_fig4(epochs=1, engine=SweepEngine())
        rendered = format_fig4(result)
        assert MISSING in rendered
        summary_rows = result.rows()
        assert any(None in row for row in summary_rows)


def _counter(out, name):
    match = re.search(rf"^\s+{name}\s+(\S+)$", out, re.MULTILINE)
    return match.group(1)


class TestCLI:
    def test_cli_exits_nonzero_and_reports_on_quarantine(self, capsys, monkeypatch):
        from repro.experiments.__main__ import main

        real_execute = sweeps.execute_spec

        def flaky_execute(spec, artifacts=None):
            if spec.fault_region == "adjacency":
                raise ValueError("injected CLI failure")
            return real_execute(spec, artifacts)

        monkeypatch.setattr(sweeps, "execute_spec", flaky_execute)
        code = main(["fig3", "--epochs", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert MISSING in captured.out
        assert "failure report" in captured.out
        assert "quarantined" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig3", "--epochs", "0"],
            ["fig3", "--workers", "0"],
            ["fig3", "--workers", "-3"],
            ["fig3", "--seeds", "0", "1", "--epochs", "-1", "--workers", "2"],
        ],
        ids=["epochs0", "workers0", "workers-3", "epochs-1-parallel"],
    )
    def test_cli_rejects_non_positive_numbers(self, argv, capsys, monkeypatch):
        from repro.experiments.__main__ import main

        executed = []

        def recording_execute(spec, artifacts=None):
            executed.append(spec)
            raise AssertionError("a spec executed despite a bad argument")

        monkeypatch.setattr(sweeps, "execute_spec", recording_execute)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "must be positive" in capsys.readouterr().err
        assert executed == []

    @pytest.mark.parametrize("flag", ["--max-attempts", "--timeout"])
    def test_cli_rejects_removed_retry_flags(self, flag, capsys, monkeypatch):
        """Sweeps neither retry nor time out: the old flags are usage errors."""
        from repro.experiments.__main__ import main

        executed = []
        monkeypatch.setattr(
            sweeps, "execute_spec", lambda spec, artifacts=None: executed.append(spec)
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--epochs", "1", flag, "2"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert executed == []

    def test_cli_succeeds_without_faults(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig3", "--epochs", "1"]) == 0
        assert "failure report" not in capsys.readouterr().out

    def test_cli_store_rerun_serves_every_spec_from_store(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.experiments.__main__ import main
        from repro.experiments.fig3 import plan_fig3

        monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path))
        assert main(["fig3", "--epochs", "1", "--store"]) == 0
        first = capsys.readouterr().out
        assert main(["fig3", "--epochs", "1", "--store"]) == 0
        second = capsys.readouterr().out

        plan = plan_fig3(epochs=1)
        assert len(plan) == 5
        assert _counter(first, "runs_executed") == "5"
        assert _counter(second, "runs_executed") == "0"
        assert _counter(second, "store_hits") == "5"
        summary = "sweep engine summary:"
        assert second.split(summary)[0] == first.split(summary)[0]
        # The store is the only sweep state on disk: one file per spec.
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"{spec.signature()}.json" for spec in plan
        )

    def test_cli_interrupt_exits_130_and_store_rerun_resumes(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.experiments.__main__ import main

        monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path))
        with monkeypatch.context() as interrupted:
            interrupted.setattr(sweeps, "execute_spec", chaos.InterruptAfter(2))
            assert main(["fig3", "--epochs", "1", "--store"]) == 130
        assert "rerun with --store" in capsys.readouterr().err
        assert len(list(tmp_path.glob("*.json"))) == 2
        assert main(["fig3", "--epochs", "1", "--store"]) == 0
        out = capsys.readouterr().out
        assert _counter(out, "runs_executed") == "3"
        assert _counter(out, "store_hits") == "2"
