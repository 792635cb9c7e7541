"""The benchmark's hooks into the program still resolve.

``perfbench/tracing.py`` wraps named functions and methods for the traced
run, and ``perfbench/run.py`` reads named counters off
``TrainingResult.counters``.  Both find them by name, so a rename in the
program would silently drop a span or zero a metric; these tests fail
instead.
"""

import importlib
import importlib.util
import re
from pathlib import Path

from repro.core.strategies import STRATEGY_REGISTRY, Strategy, build_strategy
from repro.hardware.faults import FaultModel
from repro.pipeline.mapping_engine import HardwareEnvironment
from repro.pipeline.trainer import FaultyTrainer, TrainingConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
