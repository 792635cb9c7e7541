"""Seed sweep execution: one spec trained with every input rebuilt from scratch."""

from __future__ import annotations

from repro.core.strategies import build_strategy
from repro.experiments import configs
from repro.experiments.sweeps import RunSpec, build_hardware
from repro.graph.datasets import load_dataset
from repro.hardware.endurance import PostDeploymentSchedule
from repro.pipeline.trainer import FaultyTrainer, TrainingResult


def seed_execute_spec(spec: RunSpec) -> TrainingResult:
    """The seed ``run_single``: train ``spec`` with no shared artifact.

    The dataset and the fault-injected hardware are built for this run
    alone, and the trainer partitions the graph, decomposes the blocks,
    runs the BIST scan and plans the mapping itself.  The training outcome
    of :func:`~repro.experiments.sweeps.execute_spec` with any
    :class:`~repro.experiments.sweeps.ArtifactCache` must be bit-identical
    to this one.
    """
    training_config = configs.training_config(
        spec.dataset, spec.scale, seed=spec.seed, epochs=spec.epochs
    )
    strategy = build_strategy(spec.strategy, **dict(spec.strategy_kwargs))
    graph = load_dataset(spec.dataset, scale=spec.scale, seed=spec.seed)
    hardware = None
    post_deployment = None
    if strategy.requires_hardware:
        hardware = build_hardware(
            spec.scale,
            spec.fault_density,
            spec.sa_ratio,
            seed=spec.seed,
            fault_region=spec.fault_region,
        )
        if spec.post_deployment_extra:
            post_deployment = PostDeploymentSchedule(
                total_extra_density=spec.post_deployment_extra,
                num_epochs=training_config.epochs,
            )
    return FaultyTrainer(
        graph=graph,
        model_name=spec.model,
        strategy=strategy,
        config=training_config,
        hardware=hardware,
        post_deployment=post_deployment,
    ).train()
