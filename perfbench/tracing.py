"""Span tracing for the traced run: wrap each layer's public functions.

:func:`install` replaces the functions and methods listed in
:data:`LAYER_CALLS` with wrappers that record one span per call — name,
start, end and the index of the enclosing span — in memory.  Each wrapper is
installed where the caller looks the function up (a module global or a class
attribute), so no program file changes.

Two rules keep the traced program the same program:

* A method is wrapped only on the class that defines it.  Wrapping
  ``plan_adjacency`` on every subclass separately would break
  ``type(self).plan_adjacency is Strategy.plan_adjacency`` in
  ``Strategy.plan_signature()`` and silently turn off plan sharing.
* A call made while a span of the same name is open is folded into that
  span, so recursion and ``super()`` chains are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``(span name, module, attribute path)`` of every timed call.  A dotted
#: attribute path names a method on the class that defines it; the
#: ``"*.plan_adjacency"`` form wraps the method on every strategy class that
#: defines its own override.
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("graph.synthesize", "repro.graph.datasets", "load_dataset"),
    ("graph.synthesize", "repro.graph.datasets", "synthetic_graph_streaming"),
    ("graph.synthesize", "repro.experiments.sweeps", "load_dataset"),
    ("graph.partition", "repro.graph.sampling", "partition_graph"),
    ("graph.partition", "repro.experiments.sweeps", "partition_graph"),
    ("hardware.inject", "repro.hardware.tile", "CrossbarPool.inject_pre_deployment"),
    ("hardware.inject", "repro.hardware.tile", "CrossbarPool.inject_post_deployment"),
    ("hardware.bist_scan", "repro.hardware.bist", "BISTController.scan"),
    ("mapping_engine.decompose", "repro.pipeline.mapping_engine", "decompose_adjacency"),
    ("mapping_engine.decompose", "repro.experiments.sweeps", "decompose_adjacency"),
    (
        "mapping_engine.adjacency_readback",
        "repro.pipeline.mapping_engine",
        "AdjacencyCrossbarMapper.apply_mapping",
    ),
    (
        "mapping_engine.weight_readback",
        "repro.pipeline.mapping_engine",
        "WeightCrossbarMapper.effective_weights",
    ),
    ("core.plan", "repro.core.strategies", "*.plan_adjacency"),
    ("core.refresh", "repro.core.strategies", "*.refresh_adjacency"),
    ("core.cost_engine", "repro.core.cost_engine", "MappingCostEngine.plan_pairwise"),
    ("core.inner_solve", "repro.core.cost_engine", "greedy_assignment_batch"),
    ("core.inner_solve", "repro.core.cost_engine", "solve_assignment_batch"),
    ("core.outer_assign", "repro.core.mapping", "hungarian_assignment"),
    ("tensor.backward", "repro.tensor.tensor", "Tensor.backward"),
    ("tensor.optimizer_step", "repro.tensor.optim", "Optimizer.step"),
    ("trainer.preprocess", "repro.pipeline.trainer", "FaultyTrainer.__init__"),
    ("trainer.train", "repro.pipeline.trainer", "FaultyTrainer.train"),
    ("sweeps.execute_spec", "repro.experiments.sweeps", "execute_spec"),
)

#: Span names of the model's top-level forward (``Module.__call__``), by mode.
FORWARD_TRAIN = "nn.forward_train"
FORWARD_EVAL = "nn.forward_eval"


class Tracer:
    """In-memory span recorder for one serial process.

    ``spans`` holds ``[name, start, end, parent]`` lists (``time.monotonic``
    seconds, the clock of the timed window; ``parent`` is the index of the
    enclosing span or ``-1``); ``plan_entries`` counts the block → crossbar entries of every plan that
    FARe's ``plan_adjacency`` returned — the pairs Algorithm 1 actually used.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self.plan_entries = 0

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), 0.0, parent])
        self._stack.append(index)
        self._open[name] = self._open.get(name, 0) + 1
        return index

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.monotonic()
        self._stack.pop()
        self._open[span[0]] -= 1

    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def wrap(self, name: str, fn: Callable, name_for: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name`` (or ``name_for(args)``)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if name_for is None else name_for(args)
            if span_name is None or self.is_open(span_name):
                return fn(*args, **kwargs)
            index = self._enter(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)

        return traced


def install(tracer: Tracer) -> None:
    """Install every layer wrapper (for the rest of this process)."""
    from repro.core.strategies import STRATEGY_REGISTRY, FaReStrategy, Strategy
    from repro.tensor.module import Module

    for name, module_name, path in LAYER_CALLS:
        owner = importlib.import_module(module_name)
        if path.startswith("*."):
            attribute = path[2:]
            owners = [
                cls
                for cls in {Strategy, *STRATEGY_REGISTRY.values()}
                if attribute in cls.__dict__
            ]
        else:
            *classes, attribute = path.split(".")
            for part in classes:
                owner = getattr(owner, part)
            owners = [owner]
        for owner in owners:
            setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute)))

    # FARe's plans hold the pairs Algorithm 1 used: count their entries.
    planned = FaReStrategy.plan_adjacency

    @functools.wraps(planned)
    def counting_plan(self, *args, **kwargs):
        plans = planned(self, *args, **kwargs)
        tracer.plan_entries += sum(len(plan) for plan in plans)
        return plans

    FaReStrategy.plan_adjacency = counting_plan

    # The model's top-level forward only; sub-module calls run inside it.
    def forward_name(args) -> Optional[str]:
        if tracer.is_open(FORWARD_TRAIN) or tracer.is_open(FORWARD_EVAL):
            return None
        return FORWARD_TRAIN if args[0].training else FORWARD_EVAL

    Module.__call__ = tracer.wrap(FORWARD_TRAIN, Module.__call__, forward_name)


def self_times(spans: List[list]) -> List[float]:
    """Per-span duration minus the time its direct child spans cover."""
    result = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            result[parent] -= span[2] - span[1]
    return result
