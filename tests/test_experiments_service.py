"""Tests for the crash-safe multi-client sweep service.

The contract under test (see ``repro/experiments/service.py``):

* the lease protocol grants at most one executor per signature, survives
  stale owners (dead pid, frozen heartbeat, torn lease file) through
  serialized reclamation, and never lets a live heartbeating client be
  reclaimed from under;
* the job queue is idempotent by signature and tolerant of concurrent
  completion and torn files;
* per-client journals merge on load (``done`` from any client beats
  ``quarantined`` from any other) and compact atomically;
* N processes hammering one root execute every unique spec exactly once
  with results bit-identical to a serial client — the stress satellite;
* every failure path lands in the failed ledger via ``classify_failure``
  and renders through ``format_failure_report`` in ``status``/``drain``.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments.failures import FailureKind, FailureRecord, FaultInjector
from repro.experiments.service import (
    JobQueue,
    LeaseManager,
    SweepService,
    cli_main,
    run_client,
)
from repro.experiments.sweeps import (
    ResultStore,
    RunSpec,
    SweepEngine,
    SweepJournal,
    SweepPlan,
    default_journal_path,
)

from test_experiments_sweeps import comparable

#: Two cheap specs sharing one artifact group — the unit-test workload.
TINY_PLAN = SweepPlan.grid(
    datasets=[("ppi", "gcn")],
    strategies=("fault_free", "fault_unaware"),
    fault_densities=(0.05,),
    seeds=(0,),
    scale="ci",
    epochs=1,
)

#: Overlapping two-group grid for the multi-process stress satellite.
STRESS_PLAN = SweepPlan.grid(
    datasets=[("ppi", "gcn"), ("reddit", "gcn")],
    strategies=("fault_free", "fault_unaware"),
    fault_densities=(0.05,),
    seeds=(0,),
    scale="ci",
    epochs=1,
)


def spec_of(plan, index=0):
    return list(plan)[index]


def dead_pid():
    """A pid that existed and is now certainly reaped."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


# --------------------------------------------------------------------------- #
# Lease protocol
# --------------------------------------------------------------------------- #
class TestLeaseManager:
    def test_acquire_is_exclusive_across_managers(self, tmp_path):
        a = LeaseManager(tmp_path, "a", stale_after=60.0)
        b = LeaseManager(tmp_path, "b", stale_after=60.0)
        lease = a.acquire("sig1")
        assert lease is not None
        assert b.acquire("sig1") is None
        assert b.contended == 1
        assert a.release(lease)
        assert b.acquire("sig1") is not None

    def test_reclaims_lease_of_dead_owner(self, tmp_path):
        path = tmp_path / "sig1.lease"
        path.write_text(
            json.dumps({"pid": dead_pid(), "client_id": "ghost", "signature": "sig1"})
        )
        manager = LeaseManager(tmp_path, "live", stale_after=3600.0)
        lease = manager.acquire("sig1")
        assert lease is not None
        assert manager.reclaimed == 1
        assert json.loads(path.read_text())["client_id"] == "live"

    def test_reclaims_stale_mtime_even_with_live_pid(self, tmp_path):
        # A livelocked (heartbeat-frozen) owner: pid alive, mtime ancient.
        holder = LeaseManager(tmp_path, "holder", stale_after=3600.0)
        lease = holder.acquire("sig1")
        old = time.time() - 7200
        os.utime(lease.path, (old, old))
        other = LeaseManager(tmp_path, "other", stale_after=1.0)
        assert other.acquire("sig1") is not None
        assert other.reclaimed == 1

    def test_live_heartbeating_lease_is_not_reclaimed(self, tmp_path):
        holder = LeaseManager(tmp_path, "holder", stale_after=3600.0)
        lease = holder.acquire("sig1")
        assert holder.heartbeat(lease)
        other = LeaseManager(tmp_path, "other", stale_after=3600.0)
        assert other.acquire("sig1") is None
        assert other.reclaimed == 0

    def test_contender_never_sees_a_lease_without_its_owner(
        self, tmp_path, monkeypatch
    ):
        """B probes the lease while A is still writing its owner record: B
        must not read it as torn and reclaim it, so exactly one client wins."""
        a = LeaseManager(tmp_path, "a", stale_after=3600.0)
        b = LeaseManager(tmp_path, "b", stale_after=3600.0)
        real_dump = json.dump
        b_leases = []

        def dump_with_b_interleaved(obj, handle, *args, **kwargs):
            if not b_leases:
                b_leases.append(None)  # guard: B's own write must not recurse
                b_leases[0] = b.acquire("sig1")
            return real_dump(obj, handle, *args, **kwargs)

        monkeypatch.setattr(json, "dump", dump_with_b_interleaved)
        a_lease = a.acquire("sig1")
        winners = [lease for lease in (a_lease, b_leases[0]) if lease is not None]
        assert len(winners) == 1
        assert (a.corrupt, b.corrupt, a.reclaimed, b.reclaimed) == (0, 0, 0, 0)
        owner = json.loads((tmp_path / "sig1.lease").read_text())["client_id"]
        assert owner == winners[0].client_id
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_corrupt_lease_is_reclaimable(self, tmp_path):
        (tmp_path / "sig1.lease").write_text('{"pid": ')  # torn write
        manager = LeaseManager(tmp_path, "live", stale_after=3600.0)
        assert manager.acquire("sig1") is not None
        assert manager.corrupt >= 1
        assert manager.reclaimed == 1

    def test_heartbeat_refreshes_mtime_and_detects_loss(self, tmp_path):
        manager = LeaseManager(tmp_path, "a", stale_after=60.0)
        lease = manager.acquire("sig1")
        old = time.time() - 120
        os.utime(lease.path, (old, old))
        assert manager.heartbeat(lease)
        assert time.time() - lease.path.stat().st_mtime < 60
        # Simulate reclamation by another client: ownership changes.
        lease.path.write_text(
            json.dumps({"pid": os.getpid(), "client_id": "thief", "signature": "sig1"})
        )
        assert not manager.heartbeat(lease)
        assert manager.lost == 1
        assert not manager.release(lease)

    def test_release_requires_ownership(self, tmp_path):
        a = LeaseManager(tmp_path, "a", stale_after=60.0)
        lease = a.acquire("sig1")
        assert a.release(lease)
        assert not a.release(lease)  # already gone
        assert a.released == 1

    def test_corrupt_lease_chaos_hook(self, tmp_path):
        injector = FaultInjector(corrupt_lease_for=("sig1",))
        a = LeaseManager(tmp_path, "a", stale_after=3600.0, injector=injector)
        lease = a.acquire("sig1")
        # The injector tore our own lease right after the win: we no longer
        # own it, and any other client may reclaim it.
        assert not a.heartbeat(lease)
        b = LeaseManager(tmp_path, "b", stale_after=3600.0)
        assert b.acquire("sig1") is not None
        assert b.corrupt >= 1

    def test_stats_are_flat_floats(self, tmp_path):
        manager = LeaseManager(tmp_path, "a")
        stats = manager.stats()
        assert set(stats) >= {"lease_acquired", "lease_reclaimed", "lease_contended"}
        assert all(isinstance(v, float) for v in stats.values())


# --------------------------------------------------------------------------- #
# Job queue
# --------------------------------------------------------------------------- #
class TestJobQueue:
    def test_submit_is_idempotent_by_signature(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        spec = spec_of(TINY_PLAN)
        assert queue.submit_spec(spec)
        assert not queue.submit_spec(spec)
        assert queue.submitted == 1
        assert queue.dedupe_hits == 1
        assert queue.pending_signatures() == [spec.signature()]

    def test_pending_round_trips_specs(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        for spec in TINY_PLAN:
            queue.submit_spec(spec)
        assert sorted(s.signature() for s in queue.pending()) == sorted(
            s.signature() for s in TINY_PLAN
        )

    def test_pending_skips_torn_and_alien_files(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        queue.submit_spec(spec_of(TINY_PLAN))
        (queue.directory / "torn.json").write_text('{"spec": ')
        (queue.directory / "alien.json").write_text('{"other": "schema"}')
        assert len(queue.pending()) == 1
        assert queue.unreadable == 2

    def test_mark_done_tolerates_concurrent_completion(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        spec = spec_of(TINY_PLAN)
        queue.submit_spec(spec)
        assert queue.mark_done(spec)
        assert not queue.mark_done(spec)  # another client got there first
        assert queue.completed == 1
        assert queue.pending_signatures() == []

    def test_mark_failed_round_trips_record_with_traceback(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        spec = spec_of(TINY_PLAN)
        queue.submit_spec(spec)
        try:
            raise ValueError("injected for the ledger")
        except ValueError as error:
            record = FailureRecord.from_exception(spec, error, attempts=2)
        queue.mark_failed(record)
        assert queue.pending_signatures() == []
        (loaded,) = queue.failed_records()
        assert loaded.signature == spec.signature()
        assert loaded.kind is FailureKind.DETERMINISTIC
        assert loaded.attempts == 2
        assert "injected for the ledger" in loaded.traceback
        assert queue.clear_failed() == 1
        assert queue.failed_records() == []


# --------------------------------------------------------------------------- #
# Per-client journals
# --------------------------------------------------------------------------- #
class TestJournalMerge:
    def test_clients_write_separate_files_and_merge_on_load(self, tmp_path):
        base = tmp_path / "sweep_journal.jsonl"
        spec_a, spec_b = list(TINY_PLAN)
        a = SweepJournal(base, client_id="a")
        b = SweepJournal(base, client_id="b")
        a.record_done(spec_a)
        b.record_done(spec_b)
        assert a.path != b.path
        # A fresh reader (any client id, or none) sees the union.
        merged = SweepJournal(base, client_id="c")
        assert merged.completed(spec_a) and merged.completed(spec_b)
        assert merged.merged_clients == 2
        bare = SweepJournal(base)
        assert bare.completed(spec_a) and bare.completed(spec_b)

    def test_done_beats_quarantined_across_clients(self, tmp_path):
        base = tmp_path / "sweep_journal.jsonl"
        spec = spec_of(TINY_PLAN)
        record = FailureRecord(
            spec=spec,
            signature=spec.signature(),
            kind=FailureKind.TRANSIENT,
            error_type="WorkerCrashError",
            message="chaos",
        )
        SweepJournal(base, client_id="a").record_quarantined(record)
        SweepJournal(base, client_id="b").record_done(spec)
        reader = SweepJournal(base, client_id="c")
        assert reader.status(spec) == "done"

    def test_compaction_rewrites_only_own_file(self, tmp_path):
        base = tmp_path / "sweep_journal.jsonl"
        spec_a, spec_b = list(TINY_PLAN)
        SweepJournal(base, client_id="other").record_done(spec_b)
        own = SweepJournal(base, client_id="me")
        own.record_done(spec_a)
        with own.path.open("a") as handle:
            handle.write('{"torn": ')  # crash tears our own tail
        reloaded = SweepJournal(base, client_id="me")
        assert reloaded.corrupt_lines == 1
        # Compaction repaired our file without touching the sibling.
        for line in own.path.read_text().splitlines():
            json.loads(line)
        assert reloaded.completed(spec_a) and reloaded.completed(spec_b)
        sibling = SweepJournal(base, client_id="other")
        assert sibling.completed(spec_b)

    def test_sibling_torn_line_is_not_compacted_by_reader(self, tmp_path):
        base = tmp_path / "sweep_journal.jsonl"
        spec = spec_of(TINY_PLAN)
        other = SweepJournal(base, client_id="other")
        other.record_done(spec)
        with other.path.open("a") as handle:
            handle.write('{"torn": ')
        before = other.path.read_text()
        reader = SweepJournal(base, client_id="me")
        assert reader.completed(spec)
        assert reader.corrupt_lines == 1
        assert other.path.read_text() == before  # owner's file untouched

    def test_client_id_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SweepJournal(tmp_path / "j.jsonl", client_id="../escape")

    def test_journal_stats_include_merged_clients(self, tmp_path):
        base = tmp_path / "sweep_journal.jsonl"
        SweepJournal(base, client_id="a").record_done(spec_of(TINY_PLAN))
        stats = SweepJournal(base, client_id="b").stats()
        assert stats["journal_merged_clients"] == 1.0


# --------------------------------------------------------------------------- #
# Store hardening (concurrent delete/replace satellite)
# --------------------------------------------------------------------------- #
class TestStoreConcurrency:
    def test_load_counts_concurrent_delete_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = spec_of(TINY_PLAN)
        # Force the FileNotFoundError path with pruning already done.
        store._pruned = True
        assert store.load(spec) is None
        assert store.misses == 1
        assert store.invalidations == 0

    def test_duplicate_publish_counts_lost_race(self, tmp_path):
        from repro.experiments.sweeps import execute_spec

        store = ResultStore(tmp_path)
        spec = spec_of(TINY_PLAN)
        result = execute_spec(spec)
        store.save(spec, result)
        assert store.races_lost == 0
        store.save(spec, result)  # single-flight bypassed
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


# --------------------------------------------------------------------------- #
# Service: serial semantics
# --------------------------------------------------------------------------- #
class TestSweepServiceSerial:
    def test_submit_drain_matches_direct_engine(self, tmp_path):
        service = SweepService(root=tmp_path / "svc", client_id="t1")
        receipt = service.submit(TINY_PLAN)
        assert receipt == {"submitted": 2, "deduped": 0, "already_done": 0}
        assert service.drain(timeout=120) == 2
        reference = SweepEngine().run(TINY_PLAN)
        for spec in TINY_PLAN:
            assert comparable(service.store.load(spec)) == comparable(
                reference[spec]
            )
        assert service.queue.pending_signatures() == []
        summary = service.engine.summary()
        assert summary["lease_acquired"] == 2.0
        assert summary["lease_released"] == 2.0
        assert summary["queue_completed"] == 2.0

    def test_resubmit_after_drain_reports_already_done(self, tmp_path):
        service = SweepService(root=tmp_path / "svc", client_id="t1")
        service.submit(TINY_PLAN)
        service.drain(timeout=120)
        receipt = service.submit(TINY_PLAN)
        assert receipt == {"submitted": 0, "deduped": 0, "already_done": 2}

    def test_job_done_elsewhere_is_served_from_store(self, tmp_path):
        root = tmp_path / "svc"
        producer = SweepService(root=root, client_id="producer")
        producer.submit(TINY_PLAN)
        producer.drain(timeout=120)
        # A second client re-queues the same specs behind the store's back.
        consumer = SweepService(root=root, client_id="consumer")
        for spec in TINY_PLAN:
            consumer.queue.submit_spec(spec)
        assert consumer.drain(timeout=60) == 2
        assert consumer.served_from_store == 2
        assert consumer.engine.runs_executed == 0

    def test_single_flight_recheck_after_lease_win(self, tmp_path):
        service = SweepService(root=tmp_path / "svc", client_id="t1")
        spec = spec_of(TINY_PLAN)
        reference = SweepEngine().run(SweepPlan([spec]))
        service.store.save(spec, reference[spec])
        service.queue.submit_spec(spec)
        # First store check misses (simulating "published between my miss
        # and my lease win"), the under-lease recheck hits.
        real_load = service.store.load
        calls = {"n": 0}

        def racy_load(s):
            calls["n"] += 1
            return None if calls["n"] == 1 else real_load(s)

        service.store.load = racy_load
        assert service.process_pending() == 1
        assert service.single_flight_rechecks == 1
        assert service.engine.runs_executed == 0

    def test_contended_job_is_skipped_not_failed(self, tmp_path):
        root = tmp_path / "svc"
        a = SweepService(root=root, client_id="a")
        b = SweepService(root=root, client_id="b")
        spec = spec_of(TINY_PLAN)
        b.queue.submit_spec(spec)
        held = a.leases.acquire(spec.signature())
        assert held is not None
        assert b.process_pending() == 0  # a live client owns it: wait
        assert b.queue.pending_signatures() == [spec.signature()]
        a.leases.release(held)
        assert b.process_pending() == 1

    def test_quarantined_spec_lands_in_failed_ledger(self, tmp_path):
        spec = spec_of(TINY_PLAN)
        injector = FaultInjector(deterministic_specs=(spec.signature(),))
        service = SweepService(
            root=tmp_path / "svc", client_id="t1", fault_injector=injector
        )
        service.submit(TINY_PLAN)
        assert service.drain(timeout=120) == 2
        records = service.queue.failed_records()
        assert [r.signature for r in records] == [spec.signature()]
        assert records[0].kind is FailureKind.DETERMINISTIC
        assert "InjectedDeterministicError" in records[0].error_type
        # The healthy spec still completed.
        other = spec_of(TINY_PLAN, 1)
        assert service.store.load(other) is not None
        report = service.format_status()
        assert "failure report" in report
        assert spec.signature()[:12] in report

    def test_status_counters_flow_through_engine_summary(self, tmp_path):
        service = SweepService(root=tmp_path / "svc", client_id="t1")
        service.submit(TINY_PLAN)
        service.drain(timeout=120)
        status = service.status()
        for key in (
            "lease_acquired",
            "lease_reclaimed",
            "queue_dedupe_hits",
            "store_races_lost",
            "queue_pending",
            "leases_active",
            "store_entries",
        ):
            assert key in status, key
        assert status["queue_pending"] == 0.0
        assert status["leases_active"] == 0.0
        assert status["store_entries"] == 2.0


# --------------------------------------------------------------------------- #
# Multi-process stress (satellite)
# --------------------------------------------------------------------------- #
class TestMultiProcessStress:
    def test_n_clients_execute_each_signature_exactly_once(self, tmp_path):
        root = tmp_path / "svc"
        spec_dicts = [spec.to_dict() for spec in STRESS_PLAN]
        payloads = [
            {
                "root": str(root),
                "client_id": f"stress-{i}",
                "spec_dicts": spec_dicts,
                "rounds": 2,
                "stale_after": 30.0,
                "drain_timeout": 300.0,
            }
            for i in range(3)
        ]
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=3, mp_context=context) as pool:
            reports = list(pool.map(run_client, payloads))

        unique = len(STRESS_PLAN)
        total_requests = sum(
            sum(report["receipt"].values()) for report in reports
        )
        executed = sum(report["summary"]["runs_executed"] for report in reports)
        assert total_requests == 3 * 2 * unique
        # Exactly one execution per unique signature across all clients.
        assert executed == unique

        # Bit-identical to a serial client: every client observed the same
        # bytes, and they match an independent serial run.
        reference = SweepEngine().run(STRESS_PLAN)
        expected = {
            spec.signature(): {
                "loss_history": list(reference[spec].loss_history),
                "train_accuracy_history": list(
                    reference[spec].train_accuracy_history
                ),
                "test_accuracy_history": list(
                    reference[spec].test_accuracy_history
                ),
                "final_test_accuracy": reference[spec].final_test_accuracy,
            }
            for spec in STRESS_PLAN
        }
        for report in reports:
            assert report["outcomes"] == expected

        # No torn JSON anywhere in the shared root.
        for path in root.rglob("*.json"):
            json.loads(path.read_text())
        for path in root.glob("*.jsonl"):
            for line in path.read_text().splitlines():
                json.loads(line)

        # The queue is empty and no lease is left behind.
        survivor = SweepService(root=root, client_id="inspector")
        assert survivor.queue.pending_signatures() == []
        assert survivor.leases.active() == []


# --------------------------------------------------------------------------- #
# Chaos: crash of a lease holder
# --------------------------------------------------------------------------- #
class TestLeaseHolderChaos:
    def test_killed_lease_holder_is_reclaimed_and_sweep_completes(self, tmp_path):
        root = tmp_path / "svc"
        victim_sig = spec_of(TINY_PLAN).signature()
        payload = {
            "root": str(root),
            "client_id": "victim",
            "spec_dicts": [spec.to_dict() for spec in TINY_PLAN],
            "kill_lease_holder": victim_sig,
            "stale_after": 30.0,
        }
        context = multiprocessing.get_context("spawn")
        victim = context.Process(target=run_client, args=(payload,))
        victim.start()
        victim.join(timeout=300)
        assert victim.exitcode == 137  # died holding the lease
        # The orphaned lease survives with a dead owner pid.
        survivorless = LeaseManager(root / "leases", "probe", stale_after=3600.0)
        assert f"{victim_sig}" in survivorless.active()

        survivor = SweepService(root=root, client_id="survivor", stale_after=5.0)
        assert survivor.drain(timeout=300) == len(TINY_PLAN)
        assert survivor.leases.reclaimed >= 1
        assert survivor.engine.summary()["lease_reclaimed"] >= 1.0
        # Bit-identical despite the crash.
        reference = SweepEngine().run(TINY_PLAN)
        for spec in TINY_PLAN:
            assert comparable(survivor.store.load(spec)) == comparable(
                reference[spec]
            )

    def test_frozen_heartbeat_lease_goes_stale(self, tmp_path):
        injector = FaultInjector(freeze_heartbeat_for=("sig1",))
        frozen = LeaseManager(
            tmp_path, "frozen", stale_after=0.2, injector=injector
        )
        lease = frozen.acquire("sig1")
        # The pump would call heartbeat; frozen means mtime never refreshes.
        assert frozen.heartbeat(lease)
        assert frozen.heartbeats == 0
        time.sleep(0.3)
        other = LeaseManager(tmp_path, "other", stale_after=0.2)
        assert other.acquire("sig1") is not None
        assert other.reclaimed == 1


# --------------------------------------------------------------------------- #
# CLI subcommands
# --------------------------------------------------------------------------- #
class TestServiceCli:
    def test_submit_drain_status_round_trip(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        assert (
            cli_main(
                ["submit", "fig4", "--epochs", "1", "--root", root,
                 "--client-id", "cli-a"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "submitted 7 job(s)" in out
        # Idempotent re-submission.
        assert (
            cli_main(["submit", "fig4", "--epochs", "1", "--root", root]) == 0
        )
        assert "7 deduped" in capsys.readouterr().out
        assert cli_main(["drain", "--root", root, "--client-id", "cli-b"]) == 0
        out = capsys.readouterr().out
        assert "drained 7 job(s)" in out
        assert "lease_acquired" in out
        assert cli_main(["status", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "sweep service status" in out
        assert "failure report: no quarantined specs" in out

    def test_drain_exits_nonzero_and_reports_on_failures(self, tmp_path, capsys):
        root = tmp_path / "svc"
        spec = spec_of(TINY_PLAN)
        injector = FaultInjector(deterministic_specs=(spec.signature(),))
        service = SweepService(
            root=root, client_id="chaos", fault_injector=injector
        )
        service.submit(SweepPlan([spec]))
        service.drain(timeout=120)
        capsys.readouterr()
        assert cli_main(["drain", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "failure report" in out
        assert spec.signature()[:12] in out
        # status shows the same cross-client report, exit 0 (read-only).
        assert cli_main(["status", "--root", str(root)]) == 0
        assert spec.signature()[:12] in capsys.readouterr().out

    def test_submit_rejects_unknown_figures(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["submit", "nosuchfig", "--root", str(tmp_path)])

    def test_main_dispatches_service_commands(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        root = str(tmp_path / "svc")
        assert main(["status", "--root", root]) == 0
        assert "sweep service status" in capsys.readouterr().out
