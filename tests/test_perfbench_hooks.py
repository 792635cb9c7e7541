"""The benchmark's hooks into the program still resolve and are still called.

``perfbench/tracing.py`` wraps named functions and methods for the traced
run, and ``perfbench/run.py`` reads named counters off
``TrainingResult.counters``.  Both find them by name, so a rename in the
program would silently drop a span or zero a metric; these tests fail
instead.  A wrapped name can also resolve and yet no longer be called (a
module global imported but unused after a refactor): the sweep test below
fails on that too.
"""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from repro.core.strategies import STRATEGY_REGISTRY, Strategy, build_strategy
from repro.hardware.faults import FaultModel
from repro.pipeline.mapping_engine import HardwareEnvironment
from repro.pipeline.trainer import FaultyTrainer, TrainingConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"

#: Installs the tracer, runs a two-spec sweep that reaches every traced layer
#: (FARe plans, solves and refreshes after post-deployment faults; the
#: fault-unaware run takes the sequential plan) and prints the span names.
_SWEEP_UNDER_TRACE = """
import importlib.util, json, sys

spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)

from repro.experiments.sweeps import RunSpec, SweepEngine, SweepPlan

plan = SweepPlan([
    RunSpec.make("ppi", "gcn", "fault_unaware", 0.05, scale="ci", epochs=1),
    RunSpec.make(
        "ppi", "gcn", "fare", 0.05, scale="ci", epochs=1,
        post_deployment_extra=0.01,
    ),
])
sweep = SweepEngine(store=None).run(plan)
assert sweep.complete and len(sweep) == 2
print(json.dumps(sorted({span[0] for span in tracer.spans})))
"""


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_resolves():
    strategy_classes = {Strategy, *STRATEGY_REGISTRY.values()}
    for name, module_name, path in _load_tracing().LAYER_CALLS:
        owner = importlib.import_module(module_name)
        if path.startswith("*."):
            attribute = path[2:]
            assert any(attribute in cls.__dict__ for cls in strategy_classes), (
                name,
                path,
            )
            continue
        *classes, attribute = path.split(".")
        for part in classes:
            owner = getattr(owner, part)
        # Methods are wrapped on the class that defines them.
        if classes:
            assert attribute in owner.__dict__, (name, module_name, path)
        else:
            assert callable(getattr(owner, attribute)), (name, module_name, path)


def test_counters_read_by_the_benchmark_exist(tiny_graph, tiny_config):
    source = (PERFBENCH / "run.py").read_text()
    names = set(re.findall(r'total\("(\w+)"\)', source))
    assert {
        "mapping_solver_pairs",
        "mapping_cache_hits",
        "mapping_cache_misses",
        "hw_adjacency_cache_hits",
        "hw_adjacency_cache_misses",
        "hw_weight_cache_hits",
        "hw_weight_cache_misses",
    } <= names
    hardware = HardwareEnvironment(
        config=tiny_config,
        fault_model=FaultModel(0.05, (9.0, 1.0), seed=0),
        weight_fraction=0.5,
    )
    config = TrainingConfig(
        epochs=1, hidden_features=8, num_parts=4, batch_clusters=2, seed=0
    )
    result = FaultyTrainer(
        tiny_graph, "gcn", build_strategy("fare"), config, hardware=hardware
    ).train()
    missing = sorted(name for name in names if name not in result.counters)
    assert not missing, missing


def test_every_traced_call_is_reached():
    """Each span name the traced run reports is recorded by a real sweep.

    Runs in a fresh interpreter because ``tracing.install`` wraps the
    program for the rest of its process.
    """
    tracing = _load_tracing()
    completed = subprocess.run(
        [sys.executable, "-c", _SWEEP_UNDER_TRACE, str(PERFBENCH / "tracing.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    recorded = set(json.loads(completed.stdout.splitlines()[-1]))
    expected = {name for name, _, _ in tracing.LAYER_CALLS}
    expected |= {tracing.FORWARD_TRAIN, tracing.FORWARD_EVAL}
    missing = sorted(expected - recorded)
    assert not missing, missing
