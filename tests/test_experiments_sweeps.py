"""Tests for the declarative sweep engine (``repro/experiments/sweeps.py``).

The contract under test:

* artifact sharing and process-parallel execution never change a run's
  outcome (histories and accuracies bit-identical with the seed path,
  ``reference.sweeps.seed_execute_spec``),
* the on-disk store round-trips results exactly, invalidates on
  signature changes, and stays consistent when processes share it,
* ``run_single`` remains a faithful shim (figure tables byte-identical with
  a literal reconstruction of the pre-refactor serial loop).
"""

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.experiments import runner, sweeps
from repro.experiments.fig3 import format_fig3, run_fig3
from repro.experiments.fig4 import format_fig4, run_fig4
from repro.experiments.fig5 import format_fig5, run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.sweeps import (
    ArtifactCache,
    ResultStore,
    RunSpec,
    SweepEngine,
    SweepPlan,
    build_hardware,
    execute_spec,
)
from repro.experiments.tables import aggregate_seed_rows, format_seed_table, mean_std

from reference.sweeps import seed_execute_spec


def comparable(result):
    """The outcome fields that must be bit-identical across execution modes.

    ``kernel_*`` counters are excluded: they snapshot process-wide
    identity-keyed memos whose eviction state depends on unrelated activity
    in the host process, not on this run's configuration.
    """
    return (
        result.strategy,
        result.dataset,
        result.model,
        result.epochs_run,
        result.loss_history,
        result.train_accuracy_history,
        result.test_accuracy_history,
        result.final_train_accuracy,
        result.final_test_accuracy,
        result.fault_density,
        {k: v for k, v in result.counters.items() if not k.startswith("kernel_")},
    )


SMALL_GRID = SweepPlan.grid(
    datasets=[("ppi", "gcn")],
    strategies=("fault_free", "fault_unaware", "nr", "fare"),
    fault_densities=(0.05,),
    seeds=(0,),
    scale="ci",
    epochs=1,
)


#: Two cheap specs sharing one artifact group — the store-concurrency plan.
TWO_SPEC_PLAN = SweepPlan.grid(
    datasets=[("ppi", "gcn")],
    strategies=("fault_free", "fault_unaware"),
    fault_densities=(0.05,),
    seeds=(0,),
    scale="ci",
    epochs=1,
)


def _wait_for_peer(barrier):
    """Pool initializer: hold each worker until both exist."""
    barrier.wait(timeout=120)


def _sweep_shared_store(directory):
    """One process's sweep of ``TWO_SPEC_PLAN`` against a shared store."""
    engine = SweepEngine(store=ResultStore(directory))
    sweep = engine.run(TWO_SPEC_PLAN)
    return os.getpid(), engine.summary(), sweep.results


class TestRunSpec:
    def test_canonicalisation(self):
        a = RunSpec.make("Reddit", "GCN", "FARE", 0.05000000001, scale="ci")
        b = RunSpec.make("reddit", "gcn", "fare", 0.05, scale="ci")
        assert a == b
        # Default kwargs are resolved, so explicit defaults compare equal too.
        from repro.experiments import configs

        c = RunSpec.make(
            "reddit", "gcn", "fare", 0.05,
            strategy_kwargs=configs.strategy_kwargs_for("fare", "ci"),
        )
        assert a == c

    def test_empty_kwargs_resolve_to_scale_defaults(self):
        """`strategy_kwargs={}` means 'defaults', like the seed runner's
        `strategy_kwargs or strategy_kwargs_for(...)`."""
        a = RunSpec.make("reddit", "gcn", "fare", 0.05, strategy_kwargs={})
        b = RunSpec.make("reddit", "gcn", "fare", 0.05)
        assert a == b
        assert dict(a.strategy_kwargs)  # the ci-scale FaRe knobs, not ()

    def test_plan_signature_opt_in(self):
        """Overriding plan_adjacency without plan_signature disables sharing."""
        from repro.core.strategies import (
            FaultUnawareStrategy,
            Strategy,
            WeightClippingStrategy,
            build_strategy,
        )

        # Sequential planners share one key; custom planners must declare.
        assert FaultUnawareStrategy().plan_signature() == ("sequential",)
        assert WeightClippingStrategy().plan_signature() == ("sequential",)
        assert build_strategy("nr").plan_signature() == ("nr", 8)
        assert build_strategy("fare").plan_signature() == (
            "fare",
            4.0,
            "greedy",
            True,
            True,
        )

        class CustomPlanner(Strategy):
            def plan_adjacency(self, *args, **kwargs):  # pragma: no cover
                return super().plan_adjacency(*args, **kwargs)

        assert CustomPlanner().plan_signature() is None

    def test_fault_free_panels_merge(self):
        a = RunSpec.make("reddit", "gcn", "fault_free", 0.0, sa_ratio=(9.0, 1.0))
        b = RunSpec.make("reddit", "gcn", "fault_free", 0.0, sa_ratio=(1.0, 1.0))
        assert a == b
        # Faulty runs must NOT merge across ratios.
        c = RunSpec.make("reddit", "gcn", "fare", 0.05, sa_ratio=(9.0, 1.0))
        d = RunSpec.make("reddit", "gcn", "fare", 0.05, sa_ratio=(1.0, 1.0))
        assert c != d

    def test_signature_stability_and_sensitivity(self):
        spec = RunSpec.make("reddit", "gcn", "fare", 0.05)
        assert spec.signature() == RunSpec.make("reddit", "gcn", "fare", 0.05).signature()
        assert spec.signature() != RunSpec.make("reddit", "gcn", "fare", 0.03).signature()
        assert spec.signature() != RunSpec.make("reddit", "gcn", "fare", 0.05, seed=1).signature()
        assert (
            spec.signature()
            != RunSpec.make("reddit", "gcn", "fare", 0.05, post_deployment_extra=0.01).signature()
        )

    def test_invalid_fault_region(self):
        with pytest.raises(ValueError):
            RunSpec.make("reddit", "gcn", "fare", 0.05, fault_region="everything")


class TestSweepPlan:
    def test_dedupe_preserves_order(self):
        a = RunSpec.make("reddit", "gcn", "fare", 0.05)
        b = RunSpec.make("reddit", "gcn", "fault_unaware", 0.05)
        plan = SweepPlan([a, b, a])
        assert plan.specs == (a, b)

    def test_grid_coerces_fault_free(self):
        plan = SweepPlan.grid(
            datasets=[("reddit", "gcn")],
            strategies=("fault_free", "fare"),
            fault_densities=(0.01, 0.05),
            seeds=(0,),
        )
        # One deduped fault-free baseline + one fare spec per density.
        assert len(plan) == 3
        fault_free = [s for s in plan if s.strategy == "fault_free"]
        assert len(fault_free) == 1
        assert fault_free[0].fault_density == 0.0

    def test_groups(self):
        plan = SweepPlan.grid(
            datasets=[("reddit", "gcn"), ("ppi", "gcn")],
            strategies=("fault_unaware",),
            fault_densities=(0.05,),
            seeds=(0, 1),
        )
        groups = plan.groups()
        assert len(groups) == 4
        assert all(len(specs) == 1 for specs in groups.values())


class TestSharedArtifactsEquivalence:
    def test_shared_execution_matches_seed_path(self):
        engine = SweepEngine()
        shared = engine.run(SMALL_GRID)
        for spec in SMALL_GRID:
            assert comparable(seed_execute_spec(spec)) == comparable(
                shared[spec]
            ), spec

    def test_post_deployment_matches_seed_path(self):
        spec = RunSpec.make(
            "ppi", "gcn", "fare", 0.03, scale="ci", seed=0, epochs=2,
            post_deployment_extra=0.01,
        )
        engine = SweepEngine()
        # Warm the hardware snapshot with a sibling run first so the
        # post-deployment run takes the snapshot-restore path.
        sibling = RunSpec.make(
            "ppi", "gcn", "fault_unaware", 0.03, scale="ci", seed=0, epochs=2
        )
        engine.run(SweepPlan([sibling]))
        shared = engine.run(SweepPlan([spec]))
        assert comparable(seed_execute_spec(spec)) == comparable(shared[spec])

    def test_fault_region_matches_seed_path(self):
        spec = RunSpec.make(
            "ppi", "gcn", "fault_unaware", 0.05, scale="ci", seed=0, epochs=1,
            fault_region="adjacency",
        )
        shared = SweepEngine().run(SweepPlan([spec]))
        assert comparable(seed_execute_spec(spec)) == comparable(shared[spec])

    def test_hardware_snapshot_restores_exactly(self):
        spec = RunSpec.make("ppi", "gcn", "fault_unaware", 0.05, scale="ci", seed=3)
        cache = ArtifactCache()
        fresh = build_hardware(
            spec.scale, spec.fault_density, spec.sa_ratio, seed=spec.seed
        )
        first = cache.hardware(spec)   # miss: builds + captures
        second = cache.hardware(spec)  # hit: restores from snapshot
        for a, b, c in zip(
            fresh.pool.crossbars, first.pool.crossbars, second.pool.crossbars
        ):
            np.testing.assert_array_equal(a.fault_map.sa0, b.fault_map.sa0)
            np.testing.assert_array_equal(a.fault_map.sa1, c.fault_map.sa1)
        # Post-deployment injection continues the same RNG stream everywhere.
        fresh.inject_post_deployment(0.01)
        second.inject_post_deployment(0.01)
        for a, c in zip(fresh.pool.crossbars, second.pool.crossbars):
            np.testing.assert_array_equal(a.fault_map.sa0, c.fault_map.sa0)
            np.testing.assert_array_equal(a.fault_map.sa1, c.fault_map.sa1)

    def test_restored_environments_do_not_share_injections(self):
        spec = RunSpec.make("ppi", "gcn", "fault_unaware", 0.05, scale="ci", seed=3)
        cache = ArtifactCache()
        cache.hardware(spec)            # miss: builds + captures
        first = cache.hardware(spec)    # hit: restored from the snapshot
        second = cache.hardware(spec)   # hit: restored from the same snapshot
        before = [
            (x.fault_map.sa0.copy(), x.fault_map.sa1.copy())
            for x in second.pool.crossbars
        ]
        first.inject_post_deployment(0.05)
        first.inject_post_deployment(0.05)
        third = cache.hardware(spec)
        changed = 0
        for a, b, c, (sa0, sa1) in zip(
            first.pool.crossbars,
            second.pool.crossbars,
            third.pool.crossbars,
            before,
        ):
            for crossbar in (b, c):
                np.testing.assert_array_equal(crossbar.fault_map.sa0, sa0)
                np.testing.assert_array_equal(crossbar.fault_map.sa1, sa1)
            changed += a.fault_map.num_faults > int(sa0.sum() + sa1.sum())
        assert changed > 0

    def test_plan_shared_across_models(self):
        """FaRe adjacency plans are model-independent and shared as such."""
        engine = SweepEngine()
        gcn = RunSpec.make("ppi", "gcn", "fare", 0.05, scale="ci", seed=0, epochs=1)
        sage = RunSpec.make("ppi", "sage", "fare", 0.05, scale="ci", seed=0, epochs=1)
        results = engine.run(SweepPlan([gcn, sage]))
        assert engine.summary()["artifact_plans_hits"] >= 1.0
        # The reusing run's *outcome* is bit-identical to the seed path; its
        # mapping_* counters legitimately differ (the Algorithm 1 work was
        # done once, by the run that computed the shared plan).
        seed_path = seed_execute_spec(sage)
        shared = results[sage]
        assert seed_path.loss_history == shared.loss_history
        assert seed_path.train_accuracy_history == shared.train_accuracy_history
        assert seed_path.test_accuracy_history == shared.test_accuracy_history
        assert seed_path.final_test_accuracy == shared.final_test_accuracy
        assert shared.counters["mapping_pairs_total"] == 0.0


class TestParallelExecution:
    def test_serial_parallel_bit_identical(self):
        plan = SweepPlan.grid(
            datasets=[("ppi", "gcn")],
            strategies=("fault_free", "fault_unaware", "nr"),
            fault_densities=(0.01, 0.05),
            seeds=(0, 1),
            scale="ci",
            epochs=1,
        )
        serial = SweepEngine().run(plan)
        parallel = SweepEngine(max_workers=2).run(plan)
        assert set(serial.results) == set(parallel.results)
        for spec in plan:
            assert comparable(serial[spec]) == comparable(parallel[spec]), spec

    def test_single_group_plan_stays_in_process(self):
        """One artifact group ⇒ nothing to overlap ⇒ no spawn overhead."""
        engine = SweepEngine(max_workers=2)
        engine.run(SMALL_GRID)  # all specs share (ppi, ci, 0)
        # The parallel path records worker-side artifact stats; in-process
        # execution leaves that ledger empty.
        assert engine._parallel_artifact_stats == {}
        assert engine.summary()["runs_executed"] == float(len(SMALL_GRID))


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "runcache")
        engine = SweepEngine(store=store)
        first = engine.run(SMALL_GRID)
        assert store.writes == len(SMALL_GRID)
        assert all(store.path(spec).exists() for spec in SMALL_GRID)

        # A fresh engine over the same store serves everything from disk.
        reread_store = ResultStore(tmp_path / "runcache")
        reread = SweepEngine(store=reread_store).run(SMALL_GRID)
        assert reread_store.hits == len(SMALL_GRID)
        assert reread_store.misses == 0
        for spec in SMALL_GRID:
            assert comparable(first[spec]) == comparable(reread[spec])

    def test_invalidates_on_signature_change(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "runcache")
        spec = RunSpec.make("ppi", "gcn", "fault_unaware", 0.05, epochs=1)
        SweepEngine(store=store).run(SweepPlan([spec]))
        path = store.path(spec)
        assert path.exists()

        monkeypatch.setattr(sweeps, "SIGNATURE_VERSION", sweeps.SIGNATURE_VERSION + 1)
        fresh = ResultStore(tmp_path / "runcache")
        # The signature hash changed, so the old file is simply not found.
        assert fresh.load(spec) is None
        assert fresh.misses == 1

    def test_prunes_other_version_files_on_first_write(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "runcache")
        spec = RunSpec.make("ppi", "gcn", "fault_unaware", 0.05, epochs=1)
        result = execute_spec(spec)
        store.save(spec, result)
        old_path = store.path(spec)
        assert old_path.exists()

        # After a version bump the old file's name is never looked up again;
        # the next store's first write garbage-collects it.
        monkeypatch.setattr(sweeps, "SIGNATURE_VERSION", sweeps.SIGNATURE_VERSION + 1)
        fresh = ResultStore(tmp_path / "runcache")
        fresh.save(spec, result)
        assert not old_path.exists()
        assert fresh.path(spec).exists()
        assert fresh.invalidations == 1

    def test_invalidates_corrupt_and_stale_files(self, tmp_path):
        store = ResultStore(tmp_path / "runcache")
        spec = RunSpec.make("ppi", "gcn", "fault_unaware", 0.05, epochs=1)
        result = execute_spec(spec)
        store.save(spec, result)
        path = store.path(spec)

        # Corrupt JSON → invalidated (deleted) and reported as a miss.
        path.write_text("{ not json")
        assert store.load(spec) is None
        assert store.invalidations == 1
        assert not path.exists()

        # A stale payload whose embedded signature mismatches → invalidated.
        store.save(spec, result)
        payload = json.loads(path.read_text())
        payload["signature"] = "0" * 24
        path.write_text(json.dumps(payload))
        assert store.load(spec) is None
        assert not path.exists()

    def test_serialization_exact(self):
        spec = RunSpec.make("ppi", "gcn", "nr", 0.05, epochs=1)
        result = execute_spec(spec)
        payload = json.loads(json.dumps(sweeps.serialize_result(result)))
        restored = sweeps.deserialize_result(payload)
        assert comparable(restored) == comparable(result)
        assert restored.counters == result.counters

    def test_load_counts_concurrent_delete_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = list(TWO_SPEC_PLAN)[0]
        # Force the FileNotFoundError path with pruning already done.
        store._pruned = True
        assert store.load(spec) is None
        assert store.misses == 1
        assert store.invalidations == 0

    def test_duplicate_publish_counts_lost_race(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = list(TWO_SPEC_PLAN)[0]
        result = execute_spec(spec)
        store.save(spec, result)
        assert store.races_lost == 0
        store.save(spec, result)  # a second process published it too
        assert store.races_lost == 1
        assert comparable(store.load(spec)) == comparable(result)
        assert store.stats()["store_races_lost"] == 1.0

    def test_prune_leaves_fresh_inflight_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        fresh = tmp_path / "abc.tmp.999"
        fresh.write_text("half a payload")
        old = tmp_path / "def.tmp.998"
        old.write_text("orphaned")
        ancient = time.time() - 3600
        os.utime(old, (ancient, ancient))
        store.prune_stale()
        assert fresh.exists()  # another process's in-flight save
        assert not old.exists()  # crash orphan, collected

    def test_two_processes_share_one_store(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        with ProcessPoolExecutor(
            max_workers=2,
            mp_context=context,
            initializer=_wait_for_peer,
            initargs=(barrier,),
        ) as pool:
            reports = list(
                pool.map(_sweep_shared_store, [tmp_path, tmp_path], timeout=300)
            )
        assert len({pid for pid, _, _ in reports}) == 2

        expected = {
            spec: comparable(seed_execute_spec(spec)) for spec in TWO_SPEC_PLAN
        }
        for _, summary, results in reports:
            assert {spec: comparable(r) for spec, r in results.items()} == expected
            assert summary["store_hits"] + summary["runs_executed"] == 2

        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == sorted(f"{spec.signature()}.json" for spec in TWO_SPEC_PLAN)
        for path in tmp_path.glob("*.json"):
            json.loads(path.read_text())
        assert list(tmp_path.glob("*.tmp.*")) == []

        fresh = ResultStore(tmp_path)
        for spec in TWO_SPEC_PLAN:
            assert comparable(fresh.load(spec)) == expected[spec]
        assert fresh.hits == 2


class TestRunSingleShim:
    def test_memo_identity_and_lru_cap(self):
        engine = SweepEngine(memo_capacity=2)
        specs = [
            RunSpec.make("ppi", "gcn", "fault_free", 0.0, epochs=1, seed=s)
            for s in (0, 1, 2)
        ]
        for spec in specs:
            engine.run(SweepPlan([spec]))
        assert engine.memo_size() == 2
        assert engine.memo.evictions == 1
        assert engine.summary()["memo_evictions"] == 1.0

    def test_run_single_equivalent_to_seed_path(self):
        runner.clear_cache()
        spec = RunSpec.make("ppi", "gat", "clipping", 0.03, scale="ci", epochs=1)
        via_shim = runner.run_single(
            "ppi", "gat", "clipping", 0.03, scale="ci", epochs=1
        )
        assert comparable(seed_execute_spec(spec)) == comparable(via_shim)
        # Memoised: same object, stats counted.
        again = runner.run_single("ppi", "gat", "clipping", 0.03, scale="ci", epochs=1)
        assert again is via_shim


class TestFigureDriverEquivalence:
    """Figure tables are byte-identical with the pre-refactor serial loop."""

    def _seed_loop(self, specs):
        """The pre-refactor behaviour: serial run_single with a dict memo."""
        memo = {}
        for key, spec in specs.items():
            if spec not in memo:
                memo[spec] = seed_execute_spec(spec)
        return {key: memo[spec] for key, spec in specs.items()}

    def test_fig3_table_byte_identical(self):
        from repro.experiments.fig3 import Fig3Result, _fig3_specs

        kwargs = dict(
            dataset="ppi", model="gcn", fault_density=0.05, scale="ci", seed=0, epochs=1
        )
        specs = _fig3_specs(*kwargs.values())
        loop = self._seed_loop(specs)
        expected = format_fig3(
            Fig3Result(
                dataset="ppi",
                model="gcn",
                fault_density=0.05,
                fault_free_accuracy=loop[None].final_test_accuracy,
                accuracies={
                    cell: res.final_test_accuracy
                    for cell, res in loop.items()
                    if cell is not None
                },
            )
        )
        assert format_fig3(run_fig3(**kwargs, engine=SweepEngine())) == expected

    def test_fig4_table_byte_identical(self):
        from repro.experiments.fig4 import _fig4_specs

        specs = _fig4_specs("ppi", "gcn", (0.05,), (9.0, 1.0), "ci", 0, 2)
        loop = self._seed_loop(specs)
        result = run_fig4(
            dataset="ppi", model="gcn", densities=(0.05,), scale="ci", seed=0,
            epochs=2, engine=SweepEngine(),
        )
        assert result.fault_free_curve == list(
            loop[("fault_free", 0.0)].train_accuracy_history
        )
        assert result.fare_curves[0.05] == list(
            loop[("fare", 0.05)].train_accuracy_history
        )
        assert "Fig. 4" in format_fig4(result)

    def test_fig5_table_byte_identical(self):
        from repro.experiments.fig5 import _fig5_specs

        specs = _fig5_specs(
            (9.0, 1.0), (0.05,), (("ppi", "gcn"),),
            ("fault_free", "fault_unaware", "nr", "clipping", "fare"),
            "ci", 0, 1,
        )
        loop = self._seed_loop(specs)
        result = run_fig5(
            densities=(0.05,), pairs=(("ppi", "gcn"),), scale="ci", seed=0,
            epochs=1, engine=SweepEngine(),
        )
        for cell, res in loop.items():
            assert result.accuracies[cell] == res.final_test_accuracy
        assert "Fig. 5" in format_fig5(result)

    def test_fig6_table_byte_identical(self):
        from repro.experiments.fig6 import _fig6_specs

        specs = _fig6_specs(
            (9.0, 1.0), (0.02,), (("ppi", "gcn"),),
            ("fault_free", "fault_unaware", "fare"), 0.01, "ci", 0, 2,
        )
        loop = self._seed_loop(specs)
        result = run_fig6(
            densities=(0.02,), pairs=(("ppi", "gcn"),),
            strategies=("fault_free", "fault_unaware", "fare"),
            scale="ci", seed=0, epochs=2, engine=SweepEngine(),
        )
        for cell, res in loop.items():
            assert result.accuracies[cell] == res.final_test_accuracy
        # format_fig6 renders all five compared strategies; this reduced grid
        # only checks engine-vs-loop equivalence (the full render is covered
        # by test_experiments.py).


class TestSeedReplication:
    def test_run_fig3_seeds_and_aggregation(self):
        from repro.experiments.fig3 import run_fig3_seeds

        results = run_fig3_seeds(
            seeds=(0, 1), dataset="ppi", model="gcn", fault_density=0.05,
            scale="ci", epochs=1, engine=SweepEngine(),
        )
        assert sorted(results) == [0, 1]
        rows = aggregate_seed_rows([results[0].rows(), results[1].rows()])
        assert len(rows) == 5
        # Numeric cells became "mean ± std" strings; labels survived.
        assert all("±" in row[-1] for row in rows)
        table = format_seed_table(
            ["Faulted matrix", "Fault type", "Test accuracy"],
            [results[0].rows(), results[1].rows()],
            (0, 1),
            "Fig. 3",
        )
        assert "mean ± std over seeds {0, 1}" in table

    def test_replicates_never_retrain_on_small_memo(self):
        """A memo smaller than the union grid must not cause silent re-runs."""
        from repro.experiments.fig3 import plan_fig3, run_fig3

        engine = SweepEngine(memo_capacity=2)
        sweeps.run_seed_replicates(
            plan_fig3, run_fig3, (0, 1), engine=engine,
            dataset="ppi", model="gcn", fault_density=0.05, scale="ci", epochs=1,
        )
        unique = len(plan_fig3(seed=0, dataset="ppi", model="gcn",
                               fault_density=0.05, scale="ci", epochs=1)) * 2
        assert engine.summary()["runs_executed"] == float(unique)
        assert engine.memo.evictions == 0
        # The temporary capacity grow is restored afterwards (LRU bound holds).
        assert engine.memo.capacity == 2

    def test_mean_std(self):
        assert mean_std([0.5]) == "0.5000"
        assert mean_std([0.25, 0.75]) == "0.5000 ± 0.2500"
        # Seed-invariant values (e.g. paper reference constants) render bare.
        assert mean_std([0.476, 0.476, 0.476]) == "0.4760"
        with pytest.raises(ValueError):
            mean_std([])

    def test_aggregate_rejects_mismatched_labels(self):
        with pytest.raises(ValueError):
            aggregate_seed_rows([[["a", 1.0]], [["b", 1.0]]])
