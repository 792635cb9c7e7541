"""Fault-injection tests for the supervised sweep engine.

The contract under test (see ``repro/experiments/failures.py``):

* classification routes every failure to TRANSIENT / DETERMINISTIC / INFRA,
  retry schedules are a deterministic pure function of (seed, signature,
  attempt), and quarantined specs surface structured context instead of
  aborting the sweep,
* injected chaos — killed workers, transient/deterministic/infra exceptions,
  hung groups, corrupted store files, interrupted sweeps — leaves the final
  results bit-identical to a failure-free run (or correctly marked missing
  when quarantined),
* an interrupted sweep resumes from the result store alone, through the
  engine and through ``python -m repro.experiments --store``, without
  recomputing finished specs.
"""

import re

import pytest

from repro.api import run_sweep
from repro.experiments import sweeps
from repro.experiments.failures import (
    FailureKind,
    FailureRecord,
    FaultInjector,
    GroupTimeoutError,
    InjectedDeterministicError,
    InjectedInfraError,
    InjectedTransientError,
    RetryPolicy,
    SpecExecutionError,
    WorkerCrashError,
    classify_failure,
    format_failure_report,
)
from repro.experiments.sweeps import ResultStore, SweepEngine, SweepPlan
from repro.experiments.tables import aggregate_seed_rows
from repro.utils.tabulate import MISSING, format_table

from test_experiments_sweeps import SMALL_GRID, TWO_SPEC_PLAN, comparable

#: Two artifact groups (groups key on dataset/scale/seed) so the parallel
#: supervisor has in-flight work to requeue when one group's worker dies.
TWO_GROUP_GRID = SweepPlan.grid(
    datasets=[("ppi", "gcn"), ("reddit", "gcn")],
    strategies=("fault_free", "fault_unaware"),
    fault_densities=(0.05,),
    seeds=(0,),
    scale="ci",
    epochs=1,
)

#: Retry policy with near-zero backoff so chaos tests stay fast.
FAST_RETRIES = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)


def reference_results(plan):
    """Failure-free serial reference for bit-identity assertions."""
    engine = SweepEngine()
    sweep = engine.run(plan)
    assert sweep.complete()
    return {spec: comparable(sweep[spec]) for spec in plan}


class TestClassification:
    def test_taxonomy(self):
        assert classify_failure(WorkerCrashError("killed")) is FailureKind.TRANSIENT
        assert classify_failure(GroupTimeoutError("hung")) is FailureKind.TRANSIENT
        assert classify_failure(InjectedTransientError("flaky")) is FailureKind.TRANSIENT
        assert classify_failure(TimeoutError()) is FailureKind.TRANSIENT
        assert classify_failure(EOFError()) is FailureKind.TRANSIENT
        assert classify_failure(OSError(5, "io")) is FailureKind.INFRA
        assert classify_failure(InjectedInfraError(0, "disk")) is FailureKind.INFRA
        assert classify_failure(MemoryError()) is FailureKind.INFRA
        assert classify_failure(ValueError("bad shape")) is FailureKind.DETERMINISTIC
        assert (
            classify_failure(InjectedDeterministicError("bug"))
            is FailureKind.DETERMINISTIC
        )

    def test_connection_errors_are_transient_not_infra(self):
        """BrokenPipeError is an OSError, but means 'worker went away'."""
        assert classify_failure(BrokenPipeError()) is FailureKind.TRANSIENT
        assert classify_failure(ConnectionResetError()) is FailureKind.TRANSIENT

    def test_wrapper_passes_classification_through(self):
        spec = next(iter(SMALL_GRID))
        record = FailureRecord.from_exception(spec, GroupTimeoutError("hung"), 2)
        error = SpecExecutionError(record)
        assert classify_failure(error) is FailureKind.TRANSIENT
        assert error.signature == spec.signature()

    def test_record_carries_spec_context_and_remote_traceback(self):
        spec = next(iter(SMALL_GRID))
        try:
            raise ValueError("exploded in run")
        except ValueError as caught:
            record = FailureRecord.from_exception(spec, caught, attempts=3)
        assert record.signature == spec.signature()
        assert record.kind is FailureKind.DETERMINISTIC
        assert record.attempts == 3
        assert "exploded in run" in record.traceback
        message = str(SpecExecutionError(record))
        assert spec.signature() in message
        assert "remote traceback" in message
        assert "exploded in run" in message

    def test_failure_report_renders_table_and_tracebacks(self):
        spec = next(iter(SMALL_GRID))
        try:
            raise ValueError("exploded in run")
        except ValueError as caught:
            record = FailureRecord.from_exception(spec, caught, attempts=1)
        report = format_failure_report([record])
        assert spec.signature()[:12] in report
        assert "deterministic" in report
        assert "exploded in run" in report
        assert "no quarantined specs" in format_failure_report([])


class TestRetryPolicy:
    def test_deterministic_seeded_jitter(self):
        policy = RetryPolicy(seed=7)
        sig = "a" * 24
        delays = [policy.delay(sig, attempt) for attempt in range(3)]
        assert delays == [policy.delay(sig, attempt) for attempt in range(3)]
        # Exponential growth below the jitter-free doubling bound's jitter cap.
        assert delays[0] < delays[1] < delays[2]
        # Different signatures and seeds draw different jitter.
        assert policy.delay("b" * 24, 0) != delays[0]
        assert RetryPolicy(seed=8).delay(sig, 0) != delays[0]

    def test_delay_capped(self):
        policy = RetryPolicy(base_delay=1.0, backoff_factor=10.0, max_delay=2.0)
        assert policy.delay("c" * 24, 5) == 2.0

    def test_should_retry(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(FailureKind.TRANSIENT, 0)
        assert policy.should_retry(FailureKind.INFRA, 1)
        assert not policy.should_retry(FailureKind.TRANSIENT, 2)
        # Deterministic failures never retry.
        assert not policy.should_retry(FailureKind.DETERMINISTIC, 0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestSerialFaults:
    def test_transient_failure_retries_to_identical_result(self):
        reference = reference_results(SMALL_GRID)
        victim = sorted(SMALL_GRID, key=lambda s: s.signature())[0]
        engine = SweepEngine(
            retry_policy=FAST_RETRIES,
            fault_injector=FaultInjector(
                transient_specs=((victim.signature(), 2),)
            ),
        )
        sweep = engine.run(SMALL_GRID)
        assert sweep.complete()
        assert {spec: comparable(sweep[spec]) for spec in SMALL_GRID} == reference
        stats = engine.summary()
        # Two injected failures, both retried; counters are deterministic
        # in serial execution.
        assert stats["retry_attempts"] == 2
        assert stats["retry_transient"] == 2
        assert stats["quarantine_specs"] == 0

    def test_deterministic_failure_quarantines_without_retry(self):
        victim = sorted(SMALL_GRID, key=lambda s: s.signature())[0]
        engine = SweepEngine(
            retry_policy=FAST_RETRIES,
            fault_injector=FaultInjector(deterministic_specs=(victim.signature(),)),
        )
        sweep = engine.run(SMALL_GRID)
        assert not sweep.complete()
        assert len(sweep.results) == len(SMALL_GRID) - 1
        record = sweep.failed[victim]
        assert record.kind is FailureKind.DETERMINISTIC
        assert record.attempts == 1  # retrying a deterministic bug is pointless
        assert sweep.failed_specs == [record]
        with pytest.raises(SpecExecutionError) as excinfo:
            sweep[victim]
        assert victim.signature() in str(excinfo.value)
        assert sweep.get(victim) is None
        assert sweep.value(victim, lambda r: r.final_test_accuracy) is None
        stats = engine.summary()
        assert stats["retry_attempts"] == 0
        assert stats["quarantine_specs"] == 1

    def test_infra_failure_exhausts_bounded_retries(self):
        victim = sorted(SMALL_GRID, key=lambda s: s.signature())[0]
        engine = SweepEngine(
            retry_policy=FAST_RETRIES,
            fault_injector=FaultInjector(infra_specs=(victim.signature(),)),
        )
        sweep = engine.run(SMALL_GRID)
        record = sweep.failed[victim]
        assert record.kind is FailureKind.INFRA
        assert record.attempts == FAST_RETRIES.max_attempts
        stats = engine.summary()
        assert stats["retry_infra"] == FAST_RETRIES.max_attempts - 1
        assert stats["quarantine_specs"] == 1

    def test_quarantine_is_session_sticky(self):
        """A later plan over the same engine reports, not re-executes."""
        victim = sorted(SMALL_GRID, key=lambda s: s.signature())[0]
        engine = SweepEngine(
            retry_policy=FAST_RETRIES,
            fault_injector=FaultInjector(deterministic_specs=(victim.signature(),)),
        )
        engine.run(SMALL_GRID)
        executed_before = engine.runs_executed
        sweep = engine.run(SMALL_GRID)
        assert victim in sweep.failed
        assert engine.runs_executed == executed_before
        assert engine.summary()["quarantine_memo_hits"] == 1
        engine.clear_failures()
        assert engine.run(SweepPlan([victim])).failed  # re-attempted, re-failed


class TestParallelFaults:
    def test_killed_worker_respawns_and_results_match(self):
        reference = reference_results(TWO_GROUP_GRID)
        engine = SweepEngine(
            retry_policy=FAST_RETRIES,
            fault_injector=FaultInjector(kill_group=0),
        )
        sweep = engine._run_parallel(TWO_GROUP_GRID.groups(), 2)
        assert sweep.complete()
        assert {
            spec: comparable(sweep[spec]) for spec in TWO_GROUP_GRID
        } == reference
        stats = engine.summary()
        assert stats["worker_crashes"] >= 1
        assert stats["pool_respawns"] >= 1
        assert stats["retry_transient"] >= 1
        assert stats["quarantine_specs"] == 0

    def test_transient_spec_in_worker_requeues_singleton(self):
        reference = reference_results(TWO_GROUP_GRID)
        victim = sorted(TWO_GROUP_GRID, key=lambda s: s.signature())[0]
        engine = SweepEngine(
            retry_policy=FAST_RETRIES,
            fault_injector=FaultInjector(transient_specs=((victim.signature(), 1),)),
        )
        sweep = engine._run_parallel(TWO_GROUP_GRID.groups(), 2)
        assert sweep.complete()
        assert {
            spec: comparable(sweep[spec]) for spec in TWO_GROUP_GRID
        } == reference
        stats = engine.summary()
        assert stats["retry_transient"] == 1
        assert stats["worker_crashes"] == 0  # healthy worker reported it

    def test_hung_worker_times_out_and_recovers(self):
        reference = reference_results(TWO_GROUP_GRID)
        engine = SweepEngine(
            retry_policy=FAST_RETRIES,
            group_timeout=6.0,
            fault_injector=FaultInjector(delay_group=0, delay_seconds=60.0),
        )
        sweep = engine._run_parallel(TWO_GROUP_GRID.groups(), 2)
        assert sweep.complete()
        assert {
            spec: comparable(sweep[spec]) for spec in TWO_GROUP_GRID
        } == reference
        stats = engine.summary()
        assert stats["group_timeouts"] >= 1
        assert stats["pool_respawns"] >= 1

    @pytest.mark.parametrize("budget", [0, -1.0])
    def test_rejects_non_positive_group_timeout(self, budget):
        with pytest.raises(ValueError, match="group_timeout"):
            SweepEngine(group_timeout=budget)

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

    def test_deterministic_failure_quarantines_in_parallel(self):
        victim = sorted(TWO_GROUP_GRID, key=lambda s: s.signature())[0]
        engine = SweepEngine(
            retry_policy=FAST_RETRIES,
            fault_injector=FaultInjector(deterministic_specs=(victim.signature(),)),
        )
        sweep = engine._run_parallel(TWO_GROUP_GRID.groups(), 2)
        assert set(sweep.failed) == {victim}
        record = sweep.failed[victim]
        assert record.kind is FailureKind.DETERMINISTIC
        assert "injected deterministic failure" in record.message
        assert record.traceback  # full remote traceback crossed the pipe


class TestResume:
    def test_interrupted_sweep_resumes_without_recompute(self, tmp_path):
        reference = reference_results(SMALL_GRID)
        store_dir = tmp_path / "runcache"
        abort_after = len(SMALL_GRID) // 2
        first = SweepEngine(
            store=ResultStore(store_dir),
            fault_injector=FaultInjector(abort_after=abort_after),
        )
        with pytest.raises(KeyboardInterrupt):
            first.run(SMALL_GRID)
        assert first.runs_executed == abort_after

        resumed = SweepEngine(store=ResultStore(store_dir))
        sweep = resumed.run(SMALL_GRID)
        assert sweep.complete()
        assert {spec: comparable(sweep[spec]) for spec in SMALL_GRID} == reference
        stats = resumed.summary()
        # Only the unfinished specs recompute; finished ones are store hits.
        assert stats["runs_executed"] == len(SMALL_GRID) - abort_after
        assert stats["store_hits"] == abort_after

    def test_corrupted_store_file_recomputes_only_that_spec(self, tmp_path):
        reference = reference_results(SMALL_GRID)
        store_dir = tmp_path / "runcache"
        first = SweepEngine(store=ResultStore(store_dir))
        assert first.run(SMALL_GRID).complete()

        victim = sorted(SMALL_GRID, key=lambda s: s.signature())[0]
        FaultInjector.corrupt_store_file(store_dir / f"{victim.signature()}.json")

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
        partial = aggregate_seed_rows([[["w", 0.5]], [["w", None]]])
        assert partial == [["w", "0.5000 [1/2 seeds]"]]

    def test_fig3_renders_partial_grid(self):
        from repro.experiments.fig3 import format_fig3, plan_fig3, run_fig3

        plan = plan_fig3(epochs=1)
        victim = sorted(plan, key=lambda s: s.signature())[0]
        engine = SweepEngine(
            retry_policy=FAST_RETRIES,
            fault_injector=FaultInjector(deterministic_specs=(victim.signature(),)),
        )
        result = run_fig3(epochs=1, engine=engine)
        rendered = format_fig3(result)
        assert MISSING in rendered  # the quarantined cell is marked, not fatal

    def test_fig4_renders_partial_grid(self):
        from repro.experiments.fig4 import format_fig4, plan_fig4, run_fig4

        plan = plan_fig4(epochs=1)
        victim = sorted(plan, key=lambda s: s.signature())[0]
        engine = SweepEngine(
            retry_policy=FAST_RETRIES,
            fault_injector=FaultInjector(deterministic_specs=(victim.signature(),)),
        )
        result = run_fig4(epochs=1, engine=engine)
        rendered = format_fig4(result)
        assert MISSING in rendered
        summary_rows = result.rows()
        assert any(None in row for row in summary_rows)


class TestCLI:
    def test_cli_exits_nonzero_and_reports_on_quarantine(self, capsys, monkeypatch):
        from repro.experiments.__main__ import main

        real_execute = sweeps.execute_spec

        def flaky_execute(spec, artifacts=None, injector=None, attempt=0):
            if spec.fault_region == "adjacency":
                raise ValueError("injected CLI failure")
            return real_execute(spec, artifacts, injector, attempt)

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
            ["fig3", "--max-attempts", "0"],
            ["fig3", "--workers", "0"],
            ["fig3", "--workers", "-3"],
            ["fig3", "--timeout", "0"],
            ["fig3", "--seeds", "0", "1", "--epochs", "1", "--workers", "2",
             "--timeout", "-1"],
        ],
        ids=["epochs0", "attempts0", "workers0", "workers-3", "timeout0",
             "timeout-1"],
    )
    def test_cli_rejects_non_positive_numbers(self, argv, capsys, monkeypatch):
        from repro.experiments.__main__ import main

        executed = []

        def recording_execute(spec, artifacts=None, injector=None, attempt=0):
            executed.append(spec)
            raise AssertionError("a spec executed despite a bad argument")

        monkeypatch.setattr(sweeps, "execute_spec", recording_execute)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "must be positive" in capsys.readouterr().err
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

        def counter(out, name):
            match = re.search(rf"^\s+{name}\s+(\S+)$", out, re.MULTILINE)
            return match.group(1)

        plan = plan_fig3(epochs=1)
        assert len(plan) == 5
        assert counter(first, "runs_executed") == "5"
        assert counter(second, "runs_executed") == "0"
        assert counter(second, "store_hits") == "5"
        summary = "sweep engine summary:"
        assert second.split(summary)[0] == first.split(summary)[0]
        # The store is the only sweep state on disk: one file per spec.
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"{spec.signature()}.json" for spec in plan
        )
