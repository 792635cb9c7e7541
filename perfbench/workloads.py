"""The benchmark's three workloads: set-up, timed run and checked outputs.

Every workload is a pair of functions.  ``setup(seed)`` builds the inputs
(dataset, fault-injected hardware, sweep plan) and is timed as ``setup_s``;
``run(inputs)`` is the timed call into the program (``run_s``) and returns a
:class:`Outcome` whose ``outputs`` are compared against the references
recorded in ``references.json``.

The program modules are looked up through their modules at call time
(``datasets.load_dataset``, not a name bound at import), so the traced run's
wrappers (see ``tracing.py``) see these calls too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Node count of the streaming workload (``examples/large_graph.py --nodes``).
STREAM_NODES = 120_000


@dataclass
class Outcome:
    """What one timed run produced.

    ``outputs`` holds the checked values (simulated statistics compared
    exactly, histories within the round-off contract); ``counters`` the
    program's own work counters, compared between the traced and the
    untraced run; ``operations`` the number of operations the run attempted
    and ``failed_keys`` the ones the program itself reported as failed.
    """

    outputs: Dict[str, object]
    counters: Dict[str, float]
    test_acc: float
    operations: int = 1
    failed_keys: List[str] = field(default_factory=list)
    fare_acc_gain: Optional[float] = None


def _training_outputs(result, plans) -> Dict[str, object]:
    """Checked outputs of one :class:`TrainingResult` and its final plans."""
    counters = result.counters
    outputs: Dict[str, object] = {
        "block_write_events": counters.get("block_write_events", 0.0),
        "weight_write_events": counters.get("weight_write_events", 0.0),
        "loss_history": list(result.loss_history),
        "train_accuracy_history": list(result.train_accuracy_history),
        "test_accuracy_history": list(result.test_accuracy_history),
    }
    if plans is not None:
        outputs["plan_blocks"] = sum(len(plan) for plan in plans)
        outputs["plan_total_cost"] = sum(plan.total_cost for plan in plans)
        outputs["plan_total_sa1_mismatch"] = sum(
            plan.total_sa1_mismatch for plan in plans
        )
    return outputs


# --------------------------------------------------------------------------- #
# fare_paper: the paper's headline setup, dominated by Algorithm 1
# --------------------------------------------------------------------------- #
def setup_fare_paper(seed: int) -> dict:
    """One dataset on differently faulty chips: ``seed`` draws the fault maps.

    The surrogate graph and the training stream (which also breaks the
    partitioner's ties) stay at seed 0, so every seed plans the same 33
    blocks; seed 0 is exactly ``RunSpec.make("reddit", "gcn", "fare", 0.05,
    scale="paper", seed=0)``.
    """
    from repro.core import strategies
    from repro.experiments import configs, sweeps
    from repro.graph import datasets

    return {
        "graph": datasets.load_dataset("reddit", scale="paper", seed=0),
        "hardware": sweeps.build_hardware("paper", 0.05, (9.0, 1.0), seed=seed),
        "config": configs.training_config("reddit", "paper", seed=0),
        "strategy": strategies.build_strategy(
            "fare", **configs.strategy_kwargs_for("fare", "paper")
        ),
    }


def run_fare_paper(inputs: dict) -> Outcome:
    from repro.pipeline import trainer as trainer_module

    trainer = trainer_module.FaultyTrainer(
        inputs["graph"],
        "gcn",
        inputs["strategy"],
        inputs["config"],
        hardware=inputs["hardware"],
    )
    result = trainer.train()
    return Outcome(
        outputs=_training_outputs(result, trainer.plans),
        counters=dict(result.counters),
        test_acc=result.final_test_accuracy,
    )


# --------------------------------------------------------------------------- #
# stream_120k: examples/large_graph.py at 120 000 nodes, read-back bound
# --------------------------------------------------------------------------- #
def setup_stream_120k(seed: int) -> dict:
    """One streaming graph on differently faulty chips: ``seed`` draws the faults.

    The graph and the training stream (which breaks the partitioner's ties)
    stay at seed 0, so every seed reads back the same blocks; seed 0 is
    exactly ``examples/large_graph.py --nodes 120000 --seed 0``.
    """
    from repro.core import strategies
    from repro.graph import datasets
    from repro.hardware.config import ReRAMConfig
    from repro.hardware.faults import FaultModel
    from repro.pipeline.mapping_engine import HardwareEnvironment
    from repro.pipeline.trainer import TrainingConfig

    parts = STREAM_NODES // 1250
    return {
        "graph": datasets.synthetic_graph_streaming(
            STREAM_NODES, parts, 8, 8, avg_degree=8.0, seed=3
        ),
        "hardware": HardwareEnvironment(
            config=ReRAMConfig(
                crossbar_rows=64, crossbar_cols=64, crossbars_per_tile=160, num_tiles=2
            ),
            fault_model=FaultModel(0.05, (9.0, 1.0), seed=seed + 4),
            weight_fraction=0.5,
        ),
        "config": TrainingConfig(
            epochs=1,
            hidden_features=16,
            dropout=0.0,
            num_parts=parts,
            batch_clusters=1,
            seed=0,
        ),
        "strategy": strategies.build_strategy("fault_unaware"),
    }


def run_stream_120k(inputs: dict) -> Outcome:
    from repro.pipeline import trainer as trainer_module

    trainer = trainer_module.FaultyTrainer(
        inputs["graph"],
        "gcn",
        inputs["strategy"],
        inputs["config"],
        hardware=inputs["hardware"],
        train_mode="fused",
    )
    result = trainer.train()
    return Outcome(
        outputs=_training_outputs(result, trainer.plans),
        counters=dict(result.counters),
        test_acc=result.final_test_accuracy,
    )


# --------------------------------------------------------------------------- #
# fig6_sweep: one Fig. 6(a) panel at ci scale, hardware state changing every epoch
# --------------------------------------------------------------------------- #
def setup_fig6_sweep(seed: int) -> dict:
    from repro.experiments import fig6, sweeps

    return {
        "plan": fig6.plan_fig6(scale="ci", seed=seed),
        "engine": sweeps.SweepEngine(store=None, max_workers=1),
    }


def _spec_key(spec) -> str:
    return f"{spec.dataset}/{spec.model}/{spec.strategy}/{spec.fault_density:g}"


def run_fig6_sweep(inputs: dict) -> Outcome:
    engine = inputs["engine"]
    plan = inputs["plan"]
    sweep = engine.run(plan, max_workers=1)
    outputs: Dict[str, object] = {}
    counters: Dict[str, float] = {}
    failed = []
    final: Dict[tuple, float] = {}
    for spec in plan:
        key = _spec_key(spec)
        result = sweep.get(spec)
        if result is None:
            failed.append(key)
            continue
        outputs[key] = _training_outputs(result, None)
        for name, value in result.counters.items():
            counters[f"{key}:{name}"] = value
        final[(spec.dataset, spec.model, spec.fault_density, spec.strategy)] = (
            result.final_test_accuracy
        )
    summary = engine.summary()
    outputs["quarantined"] = summary.get("quarantine_specs", 0.0)
    counters.update({f"summary:{name}": value for name, value in summary.items()})

    cells = sorted({cell[:3] for cell in final if cell[3] == "fare"})
    fare = [final[cell + ("fare",)] for cell in cells]
    gains = [
        final[cell + ("fare",)] - final[cell + ("fault_unaware",)]
        for cell in cells
        if cell + ("fault_unaware",) in final
    ]
    outputs["fare_gain_cells_positive"] = sum(gain > 0 for gain in gains)
    return Outcome(
        outputs=outputs,
        counters=counters,
        test_acc=sum(fare) / len(fare) if fare else 0.0,
        operations=len(plan),
        failed_keys=failed,
        fare_acc_gain=sum(gains) / len(gains) if gains else 0.0,
    )


@dataclass(frozen=True)
class Workload:
    """One workload: its set-up, its timed run and the seeds it accepts.

    ``--seed n`` runs workload seed ``seeds[n % len(seeds)]``; references are
    recorded for each.  The seeds are chosen so that every one does the same
    amount of work and passes every check (see ``DESIGN.md``).
    """

    name: str
    setup: Callable[[int], dict]
    run: Callable[[dict], Outcome]
    seeds: Tuple[int, ...]
    operations: int = 1

    def seed_for(self, seed: int) -> int:
        return self.seeds[seed % len(self.seeds)]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fare_paper",
            setup_fare_paper,
            run_fare_paper,
            seeds=(0, 1, 2, 3),
        ),
        Workload(
            "stream_120k",
            setup_stream_120k,
            run_stream_120k,
            seeds=(0, 1, 2, 3),
        ),
        Workload(
            "fig6_sweep",
            setup_fig6_sweep,
            run_fig6_sweep,
            seeds=(0, 4, 19, 45, 46, 50),
            operations=39,
        ),
    )
}
