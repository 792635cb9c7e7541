"""Resilience gate — sweep execution under injected failures.

A sweep survives the failures its own host can produce: a worker killed
once loses nothing, a group that kills its worker every time quarantines
only itself, and an interrupted sweep resumes from its result store
recomputing only unfinished specs.  Failures enter through the
``execute_spec`` seam with the substitutes of ``reference.chaos``.

Three scenarios over a **Fig. 4-shaped grid** (strategy × fault-density,
three seed groups, so the pool has other groups queued or in flight when a
worker dies):

* **killed once** — two spawned workers; the worker running the first spec
  of group 0 is hard-killed (``os._exit``) once, a marker file recording
  the kill.  Every group the broken pool lost reruns alone.  Gate: every
  spec completes, outcomes bit-identical to the failure-free serial run,
  zero quarantines, and the marker and ``worker_crashes`` prove the kill
  struck.
* **killed every time** — the same spec kills its worker on every run.
  Gate: exactly group 0's specs are quarantined with ``WorkerCrashError``
  records, and every other spec is bit-identical to the reference.
* **interrupt + resume** — a store-backed serial sweep interrupted after
  ~50 % of the grid published; a fresh engine over the same store must
  recompute only the unfinished half (store hits for every completed spec)
  and reproduce the reference bit for bit.

Metrics land in ``bench_summary.json`` via ``record_result``; the
no-failure hot path is gated separately by ``test_bench_sweeps``.
"""

import time
from functools import partial

from repro.experiments import sweeps
from repro.experiments.failures import WorkerCrashError
from repro.experiments.fig4 import plan_fig4
from repro.experiments.sweeps import ResultStore, SweepEngine

from _bench_utils import bench_epochs, bench_seed, record_result
from reference import chaos
from repro.utils.tabulate import format_table


def _outcome(result):
    return (
        result.loss_history,
        result.train_accuracy_history,
        result.test_accuracy_history,
        result.final_test_accuracy,
    )


def _plan():
    """Fig. 4 grid three times (three seeds → three artifact groups)."""
    epochs = bench_epochs() or 1
    seed = bench_seed()
    plan = plan_fig4(seed=seed, epochs=epochs)
    for offset in (1, 2):
        plan = plan + plan_fig4(seed=seed + offset, epochs=epochs)
    return plan


def test_bench_sweep_resilience(run_once, tmp_path, monkeypatch):
    plan = _plan()

    def run():
        # Failure-free serial reference — the bit-identity yardstick.
        reference_engine = SweepEngine()
        start = time.perf_counter()
        reference = {
            spec: _outcome(result)
            for spec, result in reference_engine.run(plan).results.items()
        }
        reference_s = time.perf_counter() - start

        victim_group = list(plan.groups().values())[0]
        victims = {victim_group[0].signature()}

        # Scenario 1: the victim's worker is killed once.
        marker = tmp_path / "killed"
        monkeypatch.setattr(
            sweeps, "execute_spec", partial(chaos.kill_once, str(marker), victims)
        )
        once_engine = SweepEngine()
        start = time.perf_counter()
        once = once_engine.run(plan, max_workers=2)
        once_s = time.perf_counter() - start
        once_stats = once_engine.summary()

        assert marker.exists(), "injected kill never struck"
        assert once.complete(), [r.describe() for r in once.failed_specs]
        for spec in plan:
            assert _outcome(once[spec]) == reference[spec], spec
        assert once_stats["worker_crashes"] == 1
        assert once_stats["quarantine_specs"] == 0

        # Scenario 2: the victim kills its worker every time.
        monkeypatch.setattr(sweeps, "execute_spec", partial(chaos.kill_always, victims))
        always_engine = SweepEngine()
        start = time.perf_counter()
        always = always_engine.run(plan, max_workers=2)
        always_s = time.perf_counter() - start
        always_stats = always_engine.summary()

        assert set(always.failed) == set(victim_group)
        assert all(
            record.error_type == WorkerCrashError.__name__
            for record in always.failed.values()
        )
        for spec in plan:
            if spec not in always.failed:
                assert _outcome(always[spec]) == reference[spec], spec
        assert always_stats["worker_crashes"] == 2
        assert always_stats["quarantine_specs"] == len(victim_group)

        # Scenario 3: interrupt at ~50 %, then resume.
        store_dir = tmp_path / "runcache"
        abort_after = len(plan) // 2
        monkeypatch.setattr(sweeps, "execute_spec", chaos.InterruptAfter(abort_after))
        interrupted = SweepEngine(store=ResultStore(store_dir))
        try:
            interrupted.run(plan)
            raise AssertionError("injected interrupt never stopped the sweep")
        except KeyboardInterrupt:
            pass
        assert interrupted.runs_executed == abort_after
        monkeypatch.undo()

        resumed_engine = SweepEngine(store=ResultStore(store_dir))
        start = time.perf_counter()
        resumed = resumed_engine.run(plan)
        resume_s = time.perf_counter() - start
        resumed_stats = resumed_engine.summary()

        assert resumed.complete()
        for spec in plan:
            assert _outcome(resumed[spec]) == reference[spec], spec
        # Resume recomputes only the unfinished specs; every completed one
        # is a store hit.
        assert resumed_stats["runs_executed"] == float(len(plan) - abort_after)
        assert resumed_stats["store_hits"] == float(abort_after)

        seconds = {
            "reference": reference_s,
            "kill_once": once_s,
            "kill_always": always_s,
            "resume": resume_s,
        }
        return seconds, once_stats, always_stats, resumed_stats, abort_after

    seconds, once_stats, always_stats, resumed_stats, abort_after = run_once(run)

    rows = [
        ["failure-free serial reference", seconds["reference"], "-"],
        [
            "worker killed once (2 workers)",
            seconds["kill_once"],
            f"{once_stats['worker_crashes']:.0f} lost pool, "
            f"{once_stats['quarantine_specs']:.0f} quarantined",
        ],
        [
            "worker killed every time (2 workers)",
            seconds["kill_always"],
            f"{always_stats['worker_crashes']:.0f} lost pools, "
            f"{always_stats['quarantine_specs']:.0f} quarantined",
        ],
        [
            f"resume after interrupt at {abort_after}/{len(_plan())} specs",
            seconds["resume"],
            f"{resumed_stats['store_hits']:.0f} store hits",
        ],
    ]
    record_result(
        "sweep_resilience",
        format_table(
            ["Scenario", "Wall clock (s)", "Recovery"],
            rows,
            float_fmt=".3f",
            title=(
                "Sweep execution under injected failures — "
                "bit-identical results"
            ),
        ),
        metrics={
            **{f"resilience.{name}_s": value for name, value in seconds.items()},
            "resilience.kill_once_worker_crashes": once_stats["worker_crashes"],
            "resilience.kill_once_quarantine_specs": once_stats["quarantine_specs"],
            "resilience.kill_always_worker_crashes": always_stats["worker_crashes"],
            "resilience.kill_always_quarantine_specs": always_stats["quarantine_specs"],
            "resilience.resume_store_hits": resumed_stats["store_hits"],
            "resilience.resume_runs_executed": resumed_stats["runs_executed"],
        },
    )
