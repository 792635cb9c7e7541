"""Declarative sweep engine: run plans, shared preprocessing, parallel runs.

The paper's results are all *sweeps* — grids over (strategy × fault density ×
region × seed).  This module turns those grids into data:

* :class:`RunSpec` — a frozen, canonicalised description of one training run
  (exactly the signature :func:`repro.experiments.runner.run_single` keys on).
* :class:`SweepPlan` — an ordered, de-duplicated collection of specs; figure
  drivers declare their grids as plans instead of nested ``run_single`` loops.
* :class:`SweepEngine` — executes a plan with

  - **shared preprocessing artifacts**: the dataset, the cluster partition,
    the mini-batches, the adjacency block decomposition and the mapping plans
    are content-keyed on ``(dataset, scale, seed)`` (+ the hardware geometry /
    plan signature where relevant); the hardware fault maps and the
    pre-deployment BIST scan are keyed on the *fault signature*
    ``(scale, density, sa_ratio, seed, fault_region)``.  Runs that share a key
    reuse the artifact instead of rebuilding it per grid cell.
  - **process-parallel execution**: ``max_workers=N`` distributes whole
    artifact groups to spawned worker processes.  Results are keyed by spec
    and merged in plan order, so serial and parallel execution produce
    bit-identical result mappings.
  - **a persistent on-disk result store** (:class:`ResultStore`, JSON files
    under ``benchmarks/results/runcache/`` keyed by the run-signature hash)
    that replaces the session-only result dict of the seed ``run_single``.

Equivalence contract
--------------------
Artifact sharing never changes a run's *outcome*: every shared object is
either immutable in practice (graphs, batches, blocks, BIST reports, mapping
plans — all consumed read-only by the trainer) or rebuilt per run from a
deterministic snapshot (crossbar fault maps + the fault model's RNG state, so
post-deployment injection continues the exact random stream of the unshared
path).  Loss/accuracy histories are bit-identical with and without sharing;
work counters (``mapping_*``) reflect the planning work *actually performed*,
so a run that reuses a shared mapping plan reports the plan work once, on the
run that computed it.

Cache invalidation (the third protocol, next to ``hw_state`` version counters
and cost-engine content fingerprints — see ``docs/ARCHITECTURE.md``): the
on-disk store names files by :meth:`RunSpec.signature`, a SHA-256 over the
canonical spec payload and :data:`SIGNATURE_VERSION`.  Bump the version
whenever a semantic change makes old results stale; stored files whose
embedded signature no longer matches their spec are deleted on load.

Failures (see :mod:`repro.experiments.failures`): a spec whose run raises
is quarantined into :attr:`SweepResult.failed` with its remote traceback,
serially or in a worker, and never retried.  In parallel, a group whose
worker died runs once more alone on its own one-process pool; if it dies
there too, its specs are quarantined.  Results publish to the memo and the
store *as they complete*, so rerunning an interrupted sweep against the same
store (``python -m repro.experiments --store``) serves its completed runs
from the store and executes only the rest.  The store is the only record of
finished runs.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, fields, replace
from multiprocessing import get_context
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.strategies import Strategy, build_strategy
from repro.experiments import configs
from repro.experiments.failures import (
    FailureRecord,
    SpecExecutionError,
    WorkerCrashError,
    format_failure_report,
)
from repro.graph.datasets import load_dataset
from repro.graph.partition import partition_graph
from repro.graph.sampling import ClusterBatch, ClusterBatchSampler
from repro.hardware.bist import BISTReport
from repro.hardware.endurance import PostDeploymentSchedule
from repro.hardware.faults import FaultMap, FaultModel
from repro.hardware.quantization import FixedPointFormat
from repro.pipeline.mapping_engine import (
    AdjacencyBlocks,
    HardwareEnvironment,
    decompose_adjacency,
)
from repro.pipeline.trainer import FaultyTrainer, TrainerArtifacts, TrainingResult
from repro.utils.logging import get_logger
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_fraction

logger = get_logger("experiments.sweeps")

#: Bump on any semantic change that invalidates previously stored results.
#: Version 2: NR specs no longer carry ``method`` in their strategy kwargs.
SIGNATURE_VERSION = 2

#: Canonical SA0:SA1 ratio used when the ratio cannot affect the outcome.
DEFAULT_SA_RATIO: Tuple[float, float] = (9.0, 1.0)

_VALID_FAULT_REGIONS = ("both", "weights", "adjacency")


# --------------------------------------------------------------------------- #
# RunSpec
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunSpec:
    """One training run, canonicalised so equal configurations compare equal.

    Use :meth:`make` instead of the raw constructor: it lower-cases names,
    rounds the fault density, resolves the scale's default strategy kwargs
    and canonicalises fields that cannot affect the outcome (the SA ratio and
    fault region of a fault-free run), so specs de-duplicate across figures.
    """

    dataset: str
    model: str
    strategy: str
    fault_density: float
    sa_ratio: Tuple[float, float] = DEFAULT_SA_RATIO
    scale: str = "ci"
    seed: int = 0
    epochs: Optional[int] = None
    post_deployment_extra: Optional[float] = None
    fault_region: str = "both"
    strategy_kwargs: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(
        cls,
        dataset: str,
        model: str,
        strategy: str,
        fault_density: float,
        sa_ratio: Tuple[float, float] = DEFAULT_SA_RATIO,
        scale: str = "ci",
        seed: int = 0,
        epochs: Optional[int] = None,
        post_deployment_extra: Optional[float] = None,
        fault_region: str = "both",
        strategy_kwargs: Optional[Dict] = None,
    ) -> "RunSpec":
        if fault_region not in _VALID_FAULT_REGIONS:
            raise ValueError(
                f"fault_region must be one of {_VALID_FAULT_REGIONS}, got "
                f"{fault_region!r}"
            )
        strategy = str(strategy).lower()
        density = round(check_fraction(fault_density, "fault_density"), 6)
        # Falsy kwargs (None or {}) resolve to the scale-tuned defaults —
        # exactly the seed runner's `strategy_kwargs or strategy_kwargs_for`
        # behaviour, so both call patterns land on the same canonical spec.
        kwargs = (
            dict(strategy_kwargs)
            if strategy_kwargs
            else configs.strategy_kwargs_for(strategy, scale)
        )
        ratio = tuple(float(x) for x in sa_ratio)
        if post_deployment_extra is not None:
            check_fraction(post_deployment_extra, "post_deployment_extra")
        extra = (
            None if not post_deployment_extra else round(float(post_deployment_extra), 6)
        )
        if density == 0.0:
            # No fault model is built: the ratio and region cannot influence
            # the run, so canonicalise them and let fault-free baselines from
            # different panels collapse into one spec.
            ratio = DEFAULT_SA_RATIO
            fault_region = "both"
        return cls(
            dataset=str(dataset).lower(),
            model=str(model).lower(),
            strategy=strategy,
            fault_density=density,
            sa_ratio=ratio,
            scale=str(scale),
            seed=int(seed),
            epochs=None if epochs is None else int(epochs),
            post_deployment_extra=extra,
            fault_region=fault_region,
            strategy_kwargs=tuple(sorted(kwargs.items())),
        )

    # ------------------------------------------------------------------ #
    def artifact_group(self) -> Tuple:
        """Key of the graph-side artifacts (dataset, partition, batches)."""
        return (self.dataset, self.scale, self.seed)

    def fault_signature(self) -> Tuple:
        """Key of the hardware-side artifacts (fault maps, BIST report)."""
        return (
            self.scale,
            self.fault_density,
            self.sa_ratio,
            self.seed,
            self.fault_region,
        )

    def to_dict(self) -> Dict:
        """JSON-friendly form; :meth:`signature` hashes it, the store saves it."""
        payload = asdict(self)
        payload["sa_ratio"] = list(self.sa_ratio)
        payload["strategy_kwargs"] = [[k, v] for k, v in self.strategy_kwargs]
        return payload

    def signature(self) -> str:
        """Content hash naming this run in the on-disk result store."""
        payload = {"signature_version": SIGNATURE_VERSION, **self.to_dict()}
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:24]


# --------------------------------------------------------------------------- #
# SweepPlan
# --------------------------------------------------------------------------- #
class SweepPlan:
    """An ordered, de-duplicated sequence of :class:`RunSpec`."""

    def __init__(self, specs: Iterable[RunSpec] = ()) -> None:
        unique: "OrderedDict[RunSpec, None]" = OrderedDict()
        for spec in specs:
            if not isinstance(spec, RunSpec):
                raise TypeError(f"SweepPlan takes RunSpec instances, got {spec!r}")
            unique.setdefault(spec, None)
        self.specs: Tuple[RunSpec, ...] = tuple(unique)

    @classmethod
    def grid(
        cls,
        datasets: Sequence[Tuple[str, str]],
        strategies: Sequence[str],
        fault_densities: Sequence[float],
        sa_ratio: Tuple[float, float] = DEFAULT_SA_RATIO,
        seeds: Sequence[int] = (0,),
        scale: str = "ci",
        epochs: Optional[int] = None,
        post_deployment_extra: Optional[float] = None,
        fault_region: str = "both",
    ) -> "SweepPlan":
        """Expand a figure-shaped axis grid into a plan.

        ``datasets`` is a sequence of ``(dataset, model)`` pairs.  Following
        the figure drivers' convention, the ``fault_free`` strategy is run at
        density 0 with no post-deployment schedule regardless of the density
        axis (one baseline per workload/seed, de-duplicated by construction).
        """
        specs: List[RunSpec] = []
        for seed in seeds:
            for dataset, model in datasets:
                for density in fault_densities:
                    for strategy in strategies:
                        reference = strategy == "fault_free"
                        specs.append(
                            RunSpec.make(
                                dataset,
                                model,
                                strategy,
                                0.0 if reference else density,
                                sa_ratio=sa_ratio,
                                scale=scale,
                                seed=seed,
                                epochs=epochs,
                                post_deployment_extra=(
                                    None if reference else post_deployment_extra
                                ),
                                fault_region=fault_region,
                            )
                        )
        return cls(specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __add__(self, other: "SweepPlan") -> "SweepPlan":
        return SweepPlan(self.specs + tuple(other.specs))

    def groups(self) -> "OrderedDict[Tuple, List[RunSpec]]":
        """Specs grouped by :meth:`RunSpec.artifact_group` (first-seen order)."""
        grouped: "OrderedDict[Tuple, List[RunSpec]]" = OrderedDict()
        for spec in self.specs:
            grouped.setdefault(spec.artifact_group(), []).append(spec)
        return grouped

    def __repr__(self) -> str:
        return f"SweepPlan({len(self.specs)} specs)"


# --------------------------------------------------------------------------- #
# Hardware construction (shared with runner.build_hardware)
# --------------------------------------------------------------------------- #
def _environment_for_scale(scale: str) -> HardwareEnvironment:
    """Fault-free :class:`HardwareEnvironment` with the scale's geometry."""
    settings = configs.scale_settings(scale)
    hw_config = configs.hardware_config(scale)
    return HardwareEnvironment(
        config=hw_config,
        fault_model=None,
        weight_fraction=settings.weight_fraction,
        fmt=FixedPointFormat(
            total_bits=hw_config.weight_bits,
            max_value=settings.weight_max_value,
            bits_per_cell=hw_config.bits_per_cell,
        ),
        num_crossbars=settings.num_crossbars,
    )


def build_hardware(
    scale: str,
    fault_density: float,
    sa_ratio: Tuple[float, float],
    seed: int,
    fault_region: str = "both",
) -> HardwareEnvironment:
    """Create a :class:`HardwareEnvironment` with injected pre-deployment faults.

    Parameters
    ----------
    fault_region:
        ``'both'`` (default) injects faults everywhere; ``'weights'`` or
        ``'adjacency'`` clears the fault maps of the other region — used by
        the Fig. 3 per-phase sensitivity study.
    """
    if fault_region not in _VALID_FAULT_REGIONS:
        raise ValueError(
            f"fault_region must be 'both', 'weights' or 'adjacency', got {fault_region!r}"
        )
    hardware = _environment_for_scale(scale)
    if fault_density > 0:
        fault_model = FaultModel(fault_density, sa0_sa1_ratio=sa_ratio, seed=seed)
        hardware.pool.inject_pre_deployment(fault_model)
        hardware.fault_model = fault_model
    if fault_region != "both":
        cleared = (
            hardware.adjacency_crossbars
            if fault_region == "weights"
            else hardware.weight_crossbars
        )
        for crossbar in cleared:
            crossbar.set_fault_map(FaultMap.empty(crossbar.rows, crossbar.cols))
    return hardware


@dataclass
class HardwareSnapshot:
    """Deterministic state needed to rebuild one fault scenario.

    ``fault_maps`` are the post-injection (and post region-clearing) maps of
    the whole pool; ``rng_state`` is the fault model's generator state *after*
    pre-deployment sampling, so a rebuilt environment's post-deployment
    injection continues the exact random stream of a freshly built one.  The
    snapshot and every environment restored from it share the map objects:
    a map is never edited after it is made (an injection replaces a
    crossbar's map), so no environment sees another's faults.
    """

    fault_maps: List[FaultMap]
    fault_density: float
    sa_ratio: Tuple[float, float]
    rng_state: Optional[dict]

    @classmethod
    def capture(cls, hardware: HardwareEnvironment, spec: RunSpec) -> "HardwareSnapshot":
        model = hardware.pool.fault_model
        return cls(
            fault_maps=hardware.pool.fault_maps(),
            fault_density=spec.fault_density,
            sa_ratio=spec.sa_ratio,
            rng_state=None if model is None else copy.deepcopy(model.rng_state),
        )

    def restore(self, scale: str) -> HardwareEnvironment:
        hardware = _environment_for_scale(scale)
        if len(self.fault_maps) != len(hardware.pool):
            raise ValueError(
                f"snapshot holds {len(self.fault_maps)} fault maps but the "
                f"pool has {len(hardware.pool)} crossbars"
            )
        for crossbar, fmap in zip(hardware.pool.crossbars, self.fault_maps):
            crossbar.set_fault_map(fmap)
        if self.rng_state is not None:
            model = FaultModel(self.fault_density, sa0_sa1_ratio=self.sa_ratio)
            model.rng_state = copy.deepcopy(self.rng_state)
            hardware.pool.fault_model = model
            hardware.fault_model = model
        return hardware


# --------------------------------------------------------------------------- #
# Artifact cache
# --------------------------------------------------------------------------- #
class _LRU:
    """Small LRU dict with hit/miss/eviction counters."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key, compute):
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        value = compute()
        self.put(key, value)
        return value

    def peek(self, key):
        """Return the cached value (refreshing recency) or ``None``."""
        if key not in self._entries:
            return None
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()


class ArtifactCache:
    """Content-keyed, LRU-bounded cache of shared preprocessing artifacts.

    One instance serves one process (the engine's for serial execution, a
    process-global one inside each spawned worker).  Every artifact is keyed
    by the spec fields it actually depends on, never by the spec itself, so
    runs from different grid cells share aggressively:

    ===============  =====================================================
    artifact         key
    ===============  =====================================================
    graph            (dataset, scale, seed)
    batches          (dataset, scale, seed, num_parts, batch_clusters)
    decomposition    batches key + (crossbar_rows, crossbar_cols)
    hardware         (scale, density, sa_ratio, seed, fault_region)
    bist report      hardware key
    mapping plans    decomposition key + hardware key + plan signature
    ===============  =====================================================

    Graphs, batches, blocks, reports and plans are handed out as shared
    read-only objects; hardware environments are rebuilt per run from a
    :class:`HardwareSnapshot` because training mutates crossbar state.
    """

    #: Per-kind LRU capacities (entries, not bytes): graph-side artifacts are
    #: the big ones, a handful of groups in flight is plenty.
    CAPACITIES = {
        "graph": 4,
        "batches": 4,
        "decomposition": 4,
        "hardware": 8,
        "bist": 8,
        "plans": 16,
    }

    def __init__(self) -> None:
        self._caches: Dict[str, _LRU] = {
            kind: _LRU(capacity) for kind, capacity in self.CAPACITIES.items()
        }

    # ------------------------------------------------------------------ #
    def _batch_shape(self, spec: RunSpec) -> Tuple[int, int]:
        config = configs.training_config(
            spec.dataset, spec.scale, seed=spec.seed, epochs=spec.epochs
        )
        return config.num_parts, config.batch_clusters

    def graph(self, spec: RunSpec):
        key = spec.artifact_group()
        return self._caches["graph"].get(
            key, lambda: load_dataset(spec.dataset, scale=spec.scale, seed=spec.seed)
        )

    def batches(self, spec: RunSpec) -> List[ClusterBatch]:
        num_parts, batch_clusters = self._batch_shape(spec)
        key = spec.artifact_group() + (num_parts, batch_clusters)

        def compute() -> List[ClusterBatch]:
            graph = self.graph(spec)
            # Replay the trainer's RNG derivation: the sampler stream is the
            # second of the three children spawned from the training seed.
            _, rng_sampler, _ = spawn_rngs(spec.seed, 3)
            sampler = ClusterBatchSampler(
                graph,
                num_parts=num_parts,
                batch_clusters=batch_clusters,
                seed=None,
                partition=partition_graph(
                    graph.adjacency, num_parts, seed=rng_sampler
                ),
            )
            return list(sampler.epoch())

        return self._caches["batches"].get(key, compute)

    def decomposition(self, spec: RunSpec) -> List[AdjacencyBlocks]:
        """Per-batch block views for the scale's crossbar geometry."""
        hw_config = configs.hardware_config(spec.scale)
        num_parts, batch_clusters = self._batch_shape(spec)
        key = spec.artifact_group() + (
            num_parts,
            batch_clusters,
            hw_config.crossbar_rows,
            hw_config.crossbar_cols,
        )

        def compute() -> List[AdjacencyBlocks]:
            return [
                decompose_adjacency(
                    batch.subgraph.adjacency,
                    hw_config.crossbar_rows,
                    hw_config.crossbar_cols,
                )[0]
                for batch in self.batches(spec)
            ]

        return self._caches["decomposition"].get(key, compute)

    def hardware(self, spec: RunSpec) -> HardwareEnvironment:
        """A fresh environment for ``spec`` (fault maps/RNG from snapshot)."""
        key = spec.fault_signature()
        snapshot = self._caches["hardware"].peek(key)
        if snapshot is None:
            self._caches["hardware"].misses += 1
            hardware = build_hardware(
                spec.scale,
                spec.fault_density,
                spec.sa_ratio,
                seed=spec.seed,
                fault_region=spec.fault_region,
            )
            self._caches["hardware"].put(key, HardwareSnapshot.capture(hardware, spec))
            return hardware
        self._caches["hardware"].hits += 1
        return snapshot.restore(spec.scale)

    def bist_report(self, spec: RunSpec, hardware: HardwareEnvironment) -> BISTReport:
        key = spec.fault_signature()
        return self._caches["bist"].get(
            key, lambda: hardware.bist.scan(hardware.adjacency_crossbars)
        )

    def plans(
        self,
        spec: RunSpec,
        strategy: Strategy,
        blocks_per_batch,
        report: BISTReport,
        crossbar_ids: Sequence[int],
        crossbar_rows: int,
    ):
        """Shared adjacency mapping plans, or ``None`` when not shareable.

        Keyed by the strategy's :meth:`~repro.core.strategies.Strategy.plan_signature`
        (strategies whose planning coincides — e.g. fault-unaware and weight
        clipping both use the sequential mapping — share one plan; FARe plans
        are additionally shared across *models*, since adjacency planning
        does not depend on the model).  The plan is computed with the
        caller's strategy instance, so planning work counters land on the run
        that actually did the work.
        """
        plan_signature = strategy.plan_signature()
        if plan_signature is None:
            return None
        hw_config = configs.hardware_config(spec.scale)
        num_parts, batch_clusters = self._batch_shape(spec)
        key = (
            spec.artifact_group()
            + (num_parts, batch_clusters, hw_config.crossbar_rows, hw_config.crossbar_cols)
            + spec.fault_signature()
            + plan_signature
        )
        return self._caches["plans"].get(
            key,
            lambda: strategy.plan_adjacency(
                blocks_per_batch, report.fault_maps, crossbar_ids, crossbar_rows
            ),
        )

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        """Flat ``artifact_<kind>_{hits,misses,evictions}`` counters."""
        stats: Dict[str, float] = {}
        for kind, cache in self._caches.items():
            stats[f"artifact_{kind}_hits"] = float(cache.hits)
            stats[f"artifact_{kind}_misses"] = float(cache.misses)
            if cache.evictions:
                stats[f"artifact_{kind}_evictions"] = float(cache.evictions)
        return stats

    def clear(self) -> None:
        for cache in self._caches.values():
            cache.clear()


# --------------------------------------------------------------------------- #
# Single-run execution
# --------------------------------------------------------------------------- #
def execute_spec(
    spec: RunSpec, artifacts: Optional[ArtifactCache] = None
) -> TrainingResult:
    """Train one spec and return its result.

    Shared preprocessing comes from ``artifacts`` as described in the module
    docstring; with ``artifacts=None`` the run builds its inputs through a
    fresh :class:`ArtifactCache`.  The training outcome is bit-identical to
    a run that rebuilds every input from scratch, the seed ``run_single``
    behaviour kept as ``tests/reference/sweeps.py::seed_execute_spec`` for
    the equivalence tests and the sweep benchmark baseline.

    The engine calls this module global at run time, serially and (sent
    with each group) in workers, so tests substitute failing versions of it
    (``tests/reference/chaos.py``).
    """
    if artifacts is None:
        artifacts = ArtifactCache()
    strategy_kwargs = dict(spec.strategy_kwargs)
    training_config = configs.training_config(
        spec.dataset, spec.scale, seed=spec.seed, epochs=spec.epochs
    )
    strategy = build_strategy(spec.strategy, **strategy_kwargs)

    hardware = None
    post_deployment = None
    graph = artifacts.graph(spec)
    trainer_artifacts = TrainerArtifacts(batches=artifacts.batches(spec))
    if strategy.requires_hardware:
        hardware = artifacts.hardware(spec)
        blocks_per_batch = artifacts.decomposition(spec)
        report = artifacts.bist_report(spec, hardware)
        crossbar_ids = [x.crossbar_id for x in hardware.adjacency_crossbars]
        trainer_artifacts = replace(
            trainer_artifacts,
            blocks_per_batch=blocks_per_batch,
            bist_report=report,
            plans=artifacts.plans(
                spec,
                strategy,
                blocks_per_batch,
                report,
                crossbar_ids,
                hardware.config.crossbar_rows,
            ),
        )
        if spec.post_deployment_extra:
            post_deployment = PostDeploymentSchedule(
                total_extra_density=spec.post_deployment_extra,
                num_epochs=training_config.epochs,
            )

    trainer = FaultyTrainer(
        graph=graph,
        model_name=spec.model,
        strategy=strategy,
        config=training_config,
        hardware=hardware,
        post_deployment=post_deployment,
        artifacts=trainer_artifacts,
    )
    logger.info(
        "training %s/%s strategy=%s density=%.3f ratio=%s scale=%s seed=%d",
        spec.dataset,
        spec.model,
        spec.strategy,
        spec.fault_density,
        spec.sa_ratio,
        spec.scale,
        spec.seed,
    )
    return trainer.train()


# --------------------------------------------------------------------------- #
# On-disk result store
# --------------------------------------------------------------------------- #
def serialize_result(result: TrainingResult) -> Dict:
    """JSON-friendly representation of a :class:`TrainingResult`."""
    return {f.name: getattr(result, f.name) for f in fields(TrainingResult)}


def deserialize_result(payload: Dict) -> TrainingResult:
    kwargs = {f.name: payload[f.name] for f in fields(TrainingResult)}
    kwargs["counters"] = {k: float(v) for k, v in kwargs["counters"].items()}
    for name in ("train_accuracy_history", "test_accuracy_history", "loss_history"):
        kwargs[name] = [float(v) for v in kwargs[name]]
    return TrainingResult(**kwargs)


def default_store_dir() -> Path:
    """Resolve the default on-disk store location.

    ``REPRO_RUNCACHE_DIR`` wins; otherwise ``benchmarks/results/runcache/``
    next to the source tree (the repository layout), falling back to a local
    ``.repro_runcache`` directory for installed copies.
    """
    override = os.environ.get("REPRO_RUNCACHE_DIR")
    if override:
        return Path(override)
    root = Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root / "benchmarks" / "results" / "runcache"
    return Path.cwd() / ".repro_runcache"


def fsync_directory(directory: Path) -> None:
    """fsync a directory entry so a rename/create survives a crash.

    ``os.replace`` is atomic against concurrent readers, but the *rename
    itself* is only durable once the containing directory's entry is synced.
    Best-effort: platforms that cannot open a directory simply skip it.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write(path: Path, text: str) -> None:
    """Durably publish ``text`` at ``path`` via fsync'd temp-file + rename."""
    temp = path.with_suffix(f".tmp.{os.getpid()}")
    with temp.open("w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    fsync_directory(path.parent)


class ResultStore:
    """Persistent JSON result store keyed by :meth:`RunSpec.signature`.

    Each result lands in ``<directory>/<signature>.json`` together with the
    spec that produced it and the signature version.  Loading validates that
    the stored signature still matches the spec's current signature; stale
    files (version bumps, semantic changes) are deleted and reported as
    invalidations.

    The store is **multi-process safe**: publishes are fsync'd temp-file +
    ``os.replace`` (a reader never sees a torn file), readers tolerate a
    concurrent process deleting or replacing an entry at any point between
    existence check and read (counted as a miss, never a crash), and a
    duplicate publish of the same signature — two processes sharing the
    store that both executed the spec — is counted in ``races_lost``
    (content-addressed results are bit-identical, so the last write is
    harmless).
    """

    #: Age (seconds) below which an atomic-write temp file is presumed to
    #: belong to a live in-flight save of another process and is left alone.
    TEMP_TTL = 60.0

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_store_dir()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalidations = 0
        self.races_lost = 0
        self._pruned = False

    def path(self, spec: RunSpec) -> Path:
        return self.directory / f"{spec.signature()}.json"

    def prune_stale(self) -> int:
        """Delete stored results from other signature versions.

        A :data:`SIGNATURE_VERSION` bump changes every filename, so outdated
        files would never be looked up (and thus never invalidated) by
        :meth:`load`; this garbage-collects them instead of letting the
        store grow by one result set per version bump.  Runs automatically
        once per store instance, on the first :meth:`save` or the first
        :meth:`load` against an existing directory.
        """
        removed = 0
        for path in self.directory.glob("*.json"):
            try:
                version = json.loads(path.read_text()).get("signature_version")
            except FileNotFoundError:
                # A concurrent process deleted/replaced the entry between the
                # directory listing and the read — nothing left to prune.
                continue
            except (OSError, json.JSONDecodeError):
                version = None
            if version != SIGNATURE_VERSION:
                self._invalidate(path)
                removed += 1
        # Orphaned atomic-write temp files (crash between write and replace).
        # Age-gated: a *fresh* temp file belongs to another process's
        # in-flight save and deleting it would make that save's os.replace
        # fail from under it.
        now = time.time()
        for path in self.directory.glob("*.tmp.*"):
            try:
                if now - path.stat().st_mtime < self.TEMP_TTL:
                    continue
            except OSError:
                continue
            self._invalidate(path)
            removed += 1
        return removed

    def load(self, spec: RunSpec) -> Optional[TrainingResult]:
        if not self._pruned and self.directory.is_dir():
            self._pruned = True
            self.prune_stale()
        path = self.path(spec)
        try:
            # Read without an existence pre-check: a concurrent process may
            # delete/replace the entry (e.g. invalidating a corrupt file) at
            # any moment, so FileNotFoundError is an ordinary miss here.
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self._invalidate(path)
            self.misses += 1
            return None
        if (
            payload.get("signature") != spec.signature()
            or payload.get("signature_version") != SIGNATURE_VERSION
        ):
            self._invalidate(path)
            self.misses += 1
            return None
        try:
            result = deserialize_result(payload["result"])
        except (KeyError, TypeError, ValueError):
            self._invalidate(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def save(self, spec: RunSpec, result: TrainingResult) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        if not self._pruned:
            self._pruned = True
            self.prune_stale()
        payload = {
            "signature": spec.signature(),
            "signature_version": SIGNATURE_VERSION,
            "spec": spec.to_dict(),
            "result": serialize_result(result),
        }
        # Atomic publish: a concurrent reader must never see (and then
        # invalidate-delete) a half-written file, and a crash mid-write must
        # not leave a truncated one behind.
        path = self.path(spec)
        if path.exists():
            # Another process sharing this store published the signature
            # first (both executed the spec).  Results are bit-identical per
            # signature, so replacing is safe; the counter is what surfaces
            # the lost race.
            self.races_lost += 1
        try:
            _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        except FileNotFoundError:
            # Our temp file vanished (an over-eager concurrent prune): the
            # result is recomputable and likely already published by the
            # other side — count the lost race instead of crashing the run.
            self.races_lost += 1
            return
        self.writes += 1

    def _invalidate(self, path: Path) -> None:
        self.invalidations += 1
        try:
            path.unlink()
        except OSError:
            pass

    def stats(self) -> Dict[str, float]:
        return {
            "store_hits": float(self.hits),
            "store_misses": float(self.misses),
            "store_writes": float(self.writes),
            "store_invalidations": float(self.invalidations),
            "store_races_lost": float(self.races_lost),
        }


# --------------------------------------------------------------------------- #
# Parallel worker plumbing
# --------------------------------------------------------------------------- #
#: Per-worker-process artifact cache (created lazily on first task).
_WORKER_ARTIFACTS: Optional[ArtifactCache] = None


def _run_group_in_worker(execute, specs: Sequence[RunSpec]):
    """Run one artifact group inside a spawned worker process.

    ``execute`` is the engine process's ``execute_spec`` at submission time.
    Returns ``(pairs, failures, stats_delta)``: ``pairs`` is ``[(spec,
    result)]`` for the specs that succeeded, ``failures`` the
    :class:`FailureRecord`\\ s (remote traceback included) of those that
    raised — a spec's exception never aborts its group — and
    ``stats_delta`` the artifact counters this group added.  Sharing is
    scoped to the group (plans and graph artifacts key on the group itself),
    so per-run results are identical no matter which process a group lands
    in.
    """
    global _WORKER_ARTIFACTS
    if _WORKER_ARTIFACTS is None:
        _WORKER_ARTIFACTS = ArtifactCache()
    before = _WORKER_ARTIFACTS.stats()
    pairs: List[Tuple[RunSpec, TrainingResult]] = []
    failures: List[FailureRecord] = []
    for spec in specs:
        try:
            pairs.append((spec, execute(spec, _WORKER_ARTIFACTS)))
        except Exception as error:
            failures.append(FailureRecord.from_exception(spec, error))
    after = _WORKER_ARTIFACTS.stats()
    delta = {key: after[key] - before.get(key, 0.0) for key in after}
    return pairs, failures, delta


# --------------------------------------------------------------------------- #
# Sweep engine
# --------------------------------------------------------------------------- #
@dataclass
class SweepResult:
    """Spec-keyed results of one :meth:`SweepEngine.run` call.

    ``failed`` holds the quarantined specs with their
    :class:`~repro.experiments.failures.FailureRecord`.  Indexing a failed
    spec raises :class:`~repro.experiments.failures.SpecExecutionError`
    with the full remote context; callers that can render partial grids
    use :meth:`get`/:meth:`value` instead.
    """

    plan: SweepPlan
    results: Dict[RunSpec, TrainingResult] = field(default_factory=dict)
    failed: Dict[RunSpec, FailureRecord] = field(default_factory=dict)

    def __getitem__(self, spec: RunSpec) -> TrainingResult:
        if spec in self.results:
            return self.results[spec]
        if spec in self.failed:
            raise SpecExecutionError(self.failed[spec])
        raise KeyError(spec)

    def get(
        self, spec: RunSpec, default: Optional[TrainingResult] = None
    ) -> Optional[TrainingResult]:
        return self.results.get(spec, default)

    def value(self, spec: RunSpec, getter):
        """``getter(result)`` or ``None`` when the spec is missing/failed.

        The figure drivers' accessor for rendering partial grids: a
        quarantined cell becomes ``None`` (tabulated as ``(missing)``)
        instead of raising.
        """
        result = self.results.get(spec)
        return None if result is None else getter(result)

    @property
    def failed_specs(self) -> List[FailureRecord]:
        """Quarantined specs in plan order (the structured failure report)."""
        return [self.failed[spec] for spec in self.plan if spec in self.failed]

    def complete(self) -> bool:
        return not self.failed

    def __len__(self) -> int:
        return len(self.results)


def _check_workers(max_workers: int) -> int:
    workers = int(max_workers)
    if workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    return workers


class SweepEngine:
    """Executes :class:`SweepPlan`\\ s with caching, sharing and parallelism.

    Parameters
    ----------
    store:
        Optional :class:`ResultStore` for cross-session persistence.  ``None``
        (default) keeps results in-process only, like the seed runner.
    memo_capacity:
        LRU bound of the in-process result memo (the seed runner's unbounded
        ``_RESULT_CACHE``, now capped and instrumented).
    max_workers:
        Default process count for :meth:`run`; 1 executes in-process, a
        count below 1 raises ``ValueError``.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        memo_capacity: int = 128,
        max_workers: int = 1,
    ) -> None:
        self.store = store
        self.memo = _LRU(memo_capacity)
        self.max_workers = _check_workers(max_workers)
        self.artifacts = ArtifactCache()
        self.runs_executed = 0
        #: Session-wide quarantine ledger (negative memo): a quarantined spec
        #: is not re-executed by later plans of this engine — figure drivers
        #: sharing an engine would otherwise re-fail the same cell once per
        #: figure.
        self.failed: Dict[RunSpec, FailureRecord] = {}
        self._parallel_artifact_stats: Dict[str, float] = {}
        self._fault_counters: Dict[str, float] = {
            "quarantine_specs": 0.0,
            "quarantine_memo_hits": 0.0,
            "worker_crashes": 0.0,
        }

    # ------------------------------------------------------------------ #
    def clear_memo(self) -> None:
        """Drop memoised results, shared artifacts and the quarantine ledger."""
        self.memo.clear()
        self.artifacts.clear()
        self.failed.clear()

    def memo_size(self) -> int:
        return len(self.memo)

    # ------------------------------------------------------------------ #
    def run(
        self,
        plan: SweepPlan,
        max_workers: Optional[int] = None,
    ) -> SweepResult:
        """Execute every spec of ``plan`` and return spec-keyed results.

        Specs already memoised (or present in the store) are served from
        cache; the rest execute grouped by :meth:`RunSpec.artifact_group`,
        either in-process or across ``max_workers`` spawned processes.
        Results are keyed by spec, so serial and parallel execution produce
        bit-identical result mappings.  Each result publishes to the memo
        and the store *as it completes* — an interrupt loses at most the
        in-flight runs.  Quarantined specs land in :attr:`SweepResult.failed`
        instead of raising.
        """
        workers = self.max_workers if max_workers is None else _check_workers(max_workers)
        sweep = SweepResult(plan=plan)
        pending: List[RunSpec] = []
        for spec in plan:
            if spec in self.failed:
                # Quarantined earlier this session: report, don't re-fail.
                sweep.failed[spec] = self.failed[spec]
                self._fault_counters["quarantine_memo_hits"] += 1
                continue
            cached = self.memo.peek(spec)
            if cached is not None:
                self.memo.hits += 1
            else:
                self.memo.misses += 1
                if self.store is not None:
                    cached = self.store.load(spec)
                    if cached is not None:
                        self.memo.put(spec, cached)
            if cached is not None:
                sweep.results[spec] = cached
            else:
                pending.append(spec)

        if pending:
            groups = list(SweepPlan(pending).groups().values())
            # Parallelism distributes whole artifact groups; with a single
            # group there is nothing to overlap and a spawned worker would
            # only add interpreter-start + re-import + pickling overhead.
            if workers > 1 and len(groups) > 1:
                self._run_parallel(groups, workers, sweep)
            else:
                self._run_serial(groups, sweep)
        return sweep

    # ------------------------------------------------------------------ #
    def _publish(self, sweep: SweepResult, spec: RunSpec, result: TrainingResult) -> None:
        """Durably record one completed run the moment it exists."""
        sweep.results[spec] = result
        self.memo.put(spec, result)
        if self.store is not None:
            self.store.save(spec, result)
        self.runs_executed += 1

    def _quarantine(self, sweep: SweepResult, record: FailureRecord) -> None:
        spec = record.spec
        sweep.failed[spec] = record
        self.failed[spec] = record
        self._fault_counters["quarantine_specs"] += 1
        logger.warning("quarantined %s", record.describe())

    # ------------------------------------------------------------------ #
    def _run_serial(self, groups: List[List[RunSpec]], sweep: SweepResult) -> None:
        for specs in groups:
            for spec in specs:
                try:
                    result = execute_spec(spec, self.artifacts)
                except Exception as error:
                    self._quarantine(sweep, FailureRecord.from_exception(spec, error))
                    continue
                self._publish(sweep, spec, result)

    def _run_parallel(
        self, groups: List[List[RunSpec]], workers: int, sweep: SweepResult
    ) -> None:
        """Run the groups on one pool; rerun each lost group once, alone.

        A worker that dies breaks the whole pool, so every group still in
        it is lost, not only the one that killed it.  Rerunning each lost
        group alone on its own one-process pool tells them apart: a second
        loss there can only be the group's own, and its specs quarantine.
        """
        for specs, _ in self._run_pool(groups, workers, sweep):
            # At most one loss: this pool runs the group alone.
            for _, error in self._run_pool([specs], 1, sweep):
                for spec in specs:
                    self._quarantine(
                        sweep,
                        FailureRecord(
                            spec=spec,
                            signature=spec.signature(),
                            error_type=WorkerCrashError.__name__,
                            message=f"group lost twice, the second time alone: {error!r}",
                        ),
                    )

    def _run_pool(
        self, groups: List[List[RunSpec]], workers: int, sweep: SweepResult
    ) -> List[Tuple[List[RunSpec], Exception]]:
        """Run ``groups`` on one spawned pool; return the lost ones and why.

        Spawn (not fork) keeps workers deterministic and safe with threaded
        BLAS.  One task per group: each group's runs execute in order inside
        one process, so the intra-group artifact reuse pattern — the only
        sharing that can influence per-run work counters — matches serial
        execution exactly.  Each task carries the current ``execute_spec``.
        """
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(groups)), mp_context=get_context("spawn")
        )
        lost: List[Tuple[List[RunSpec], Exception]] = []
        try:
            futures = {
                pool.submit(_run_group_in_worker, execute_spec, specs): specs
                for specs in groups
            }
            for future in as_completed(futures):
                try:
                    pairs, failures, stats_delta = future.result()
                except Exception as error:
                    # The worker died (the pool is then broken and every
                    # unfinished group fails with it), or the result did not
                    # survive the pipe.
                    logger.warning(
                        "lost a group of %d spec(s): %r", len(futures[future]), error
                    )
                    lost.append((futures[future], error))
                    continue
                for key, value in stats_delta.items():
                    self._parallel_artifact_stats[key] = (
                        self._parallel_artifact_stats.get(key, 0.0) + value
                    )
                for spec, result in pairs:
                    self._publish(sweep, spec, result)
                for record in failures:
                    self._quarantine(sweep, record)
        except BaseException:
            # An interrupt or an error here: stop the workers instead of
            # waiting for their groups.
            for process in list((pool._processes or {}).values()):
                process.terminate()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
        if lost:
            self._fault_counters["worker_crashes"] += 1
        return lost

    # ------------------------------------------------------------------ #
    def failure_report(self) -> str:
        """Human-readable report of this session's quarantined specs."""
        return format_failure_report(
            [self.failed[spec] for spec in self.failed]
        )

    def summary(self) -> Dict[str, float]:
        """Flat counter mapping: memo, store, artifact and fault counters.

        Same stats-plumbing convention as the ``kernel_*`` / cost-engine
        counters: plain ``name → number`` so callers can merge it into
        benchmark metrics or print it directly.  ``quarantine_specs`` counts
        quarantined specs, ``quarantine_memo_hits`` plans that met an
        already quarantined spec, and ``worker_crashes`` pools that lost a
        worker.
        """
        stats: Dict[str, float] = {
            "runs_executed": float(self.runs_executed),
            "memo_hits": float(self.memo.hits),
            "memo_misses": float(self.memo.misses),
            "memo_evictions": float(self.memo.evictions),
        }
        stats.update(self._fault_counters)
        artifact_stats = dict(self.artifacts.stats())
        for key, value in self._parallel_artifact_stats.items():
            artifact_stats[key] = artifact_stats.get(key, 0.0) + value
        stats.update(artifact_stats)
        if self.store is not None:
            stats.update(self.store.stats())
        return stats

    def format_summary(self) -> str:
        lines = ["sweep engine summary:"]
        for key, value in sorted(self.summary().items()):
            lines.append(f"  {key:32s} {value:g}")
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Seed replication
# --------------------------------------------------------------------------- #
def default_engine() -> SweepEngine:
    """The process-wide engine shared by ``run_single`` and figure drivers.

    Lazy accessor (the engine lives in :mod:`repro.experiments.runner`, which
    imports this module) — the single place that resolves the fallback for
    every ``engine=None`` entry point, so all of them share one memo and one
    artifact cache.
    """
    from repro.experiments.runner import DEFAULT_ENGINE

    return DEFAULT_ENGINE


def run_seed_replicates(
    plan_fn,
    run_fn,
    seeds: Sequence[int],
    engine: Optional[SweepEngine] = None,
    max_workers: Optional[int] = None,
    **kwargs,
):
    """Run one figure driver at several seeds through a single combined plan.

    ``plan_fn(seed=…, **kwargs)`` must return the figure's
    :class:`SweepPlan` and ``run_fn(seed=…, engine=…, **kwargs)`` its
    assembled result.  The union plan executes in one engine pass (so seeds
    parallelise across workers and shared specs — e.g. seed-independent
    baselines — de-duplicate), then each seed's result is assembled from the
    warm memo.  Returns ``{seed: figure result}`` in ``seeds`` order; feed
    the per-seed ``rows()`` to
    :func:`repro.experiments.tables.aggregate_seed_rows` for mean±std tables.
    """
    if engine is None:
        engine = default_engine()
    combined = SweepPlan([])
    for seed in seeds:
        combined = combined + plan_fn(seed=seed, **kwargs)
    # The per-seed assembly below is a pure memo read only if the memo can
    # hold the whole combined plan — otherwise evicted cells would silently
    # re-train.  Grow the cap for the duration of the assembly (results are
    # KB-sized records), then restore it so the engine's advertised LRU
    # bound holds again once this replicate set is done.
    saved_capacity = engine.memo.capacity
    engine.memo.capacity = max(saved_capacity, len(combined) + len(engine.memo))
    try:
        engine.run(combined, max_workers=max_workers)
        return {seed: run_fn(seed=seed, engine=engine, **kwargs) for seed in seeds}
    finally:
        engine.memo.capacity = saved_capacity
