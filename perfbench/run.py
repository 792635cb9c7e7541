#!/usr/bin/env python3
"""End-to-end benchmark of the FARe training stack.

Run from the repository root::

    python3 perfbench/run.py --workload fare_paper --seed 0 --seconds 40 --trace 0

Each repetition starts a fresh single-threaded interpreter (BLAS/OpenMP
threads pinned to 1) on one CPU; it builds the workload's inputs from the
seed, runs a fixed host probe, makes the timed call into the program and
checks its outputs against ``references.json``.  One canary process per CPU
samples the host's speed for the whole run, and every set-up and every timed
call is rescaled by the canary of its CPU over its own time window.  A run
makes timed repetitions while the next one fits in ``--seconds``, then fills
the time left with set-up-only samples; the medians are reported.

``--trace 0`` prints the gated end-to-end metrics (``run_s``, ``setup_s``,
``peak_rss_mib``).  ``--trace 1`` adds one traced repetition
(see ``tracing.py``) and prints the per-layer metrics, the tracing overhead
and the span coverage instead; it also writes the spans to
``.perfbench/trace-<workload>-seed<seed>.json``.  ``--record-references``
re-records ``references.json`` for every reference seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See ``DESIGN.md``
for the choice of workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench")

#: Interpreter settings of every repetition: one BLAS/OpenMP thread (a second
#: one only competes with the main thread), a fixed string-hash seed, and no
#: transparent huge pages for numpy arrays (whether the kernel grants them
#: depends on the host's memory, which made peak RSS vary by 10 MiB).
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
#: Histories are compared within the round-off contract of the fused and
#: pre-computed paths (``tests/test_train_fused.py`` pins the same atol).
HISTORY_ATOL = 1e-9
CHILD_MARK = "PERFBENCH_CHILD "
#: Canary: every ``CANARY_PERIOD_S`` seconds one chunk of ``CANARY_STEPS``
#: small matmul + Python steps, about 1.2 ms (2 % of a CPU) on an 18 KiB
#: working set that leaves the workload's caches alone.  A window's time is
#: rescaled to a host on which the chunk takes ``CANARY_NOMINAL_S``: by
#: ``CANARY_NOMINAL_S / mean chunk time`` over the window, on its CPU.
CANARY_PERIOD_S = 0.05
CANARY_STEPS = 90
CANARY_NOMINAL_S = 1e-3
#: Time the canaries get to import numpy before the first child starts.
CANARY_WARMUP_S = 0.3
#: Children still running this long after the run started are killed, so a
#: run ends within three minutes even if a repetition hangs.
RUN_DEADLINE_S = 170.0
#: Set-up-only samples taken even when no time is left after the timed
#: repetitions; ``setup_s`` is the median over these and every repetition's
#: own set-up.
MIN_SETUP_SAMPLES = 4

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("graph.synthesize_s", "s"),
    ("graph.partition_s", "s"),
    ("hardware.inject_s", "s"),
    ("hardware.inject_calls", "count"),
    ("hardware.bist_scan_s", "s"),
    ("hardware.bist_scan_calls", "count"),
    ("mapping_engine.decompose_s", "s"),
    ("mapping_engine.decompose_calls", "count"),
    ("mapping_engine.adjacency_readback_s", "s"),
    ("mapping_engine.adjacency_readback_calls", "count"),
    ("mapping_engine.weight_readback_s", "s"),
    ("mapping_engine.weight_readback_calls", "count"),
    ("core.plan_s", "s"),
    ("core.plan_calls", "count"),
    ("core.cost_engine_self_s", "s"),
    ("core.inner_solve_s", "s"),
    ("core.inner_solve_calls", "count"),
    ("core.outer_assign_s", "s"),
    ("core.refresh_s", "s"),
    ("core.refresh_calls", "count"),
    ("core.pairs_solved", "count"),
    ("core.pairs_used", "count"),
    ("core.pairs_useful_ratio", "ratio"),
    ("core.cost_cache_hit_ratio", "ratio"),
    ("hw_state.adjacency_hit_ratio", "ratio"),
    ("hw_state.weight_hit_ratio", "ratio"),
    ("nn.forward_train_s", "s"),
    ("nn.forward_eval_s", "s"),
    ("nn.forward_calls", "count"),
    ("tensor.backward_s", "s"),
    ("tensor.optimizer_step_s", "s"),
    ("trainer.preprocess_s", "s"),
    ("trainer.train_s", "s"),
    ("trainer.epoch_s", "s"),
    ("sweeps.execute_spec_s", "s"),
    ("sweeps.specs", "count"),
    ("sweeps.specs_failed", "count"),
    ("sweeps.artifact_hit_ratio", "ratio"),
    ("fidelity.test_acc", "fraction"),
    ("fidelity.fare_acc_gain", "fraction"),
    ("host.cpu_s", "s"),
    ("host.ref_s", "s"),
    ("host.invol_ctx_switches", "count"),
    ("host.run_wall_s", "s"),
    ("host.canary_ms", "ms"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.span_coverage", "ratio"),
)

#: Span names whose total time is the per-layer metric ``<name>_s`` and whose
#: count is ``<name>_calls`` (where the metric list has one).
SPAN_METRICS = (
    "graph.synthesize",
    "graph.partition",
    "hardware.inject",
    "hardware.bist_scan",
    "mapping_engine.decompose",
    "mapping_engine.adjacency_readback",
    "mapping_engine.weight_readback",
    "core.plan",
    "core.inner_solve",
    "core.outer_assign",
    "core.refresh",
    "tensor.backward",
    "tensor.optimizer_step",
    "trainer.preprocess",
    "trainer.train",
    "sweeps.execute_spec",
    "nn.forward_train",
    "nn.forward_eval",
)


# --------------------------------------------------------------------------- #
# Children: one repetition in a fresh interpreter, and the canary
# --------------------------------------------------------------------------- #
def host_probe() -> float:
    """Seconds taken by a fixed numpy + Python loop (host-drift diagnostic)."""
    import numpy as np

    rng = np.random.default_rng(12345)
    matrix = rng.random((96, 96))
    start = time.perf_counter()
    total = 0.0
    for step in range(8000):
        product = matrix @ matrix
        order = np.argsort(product[step % 96])
        total += float(product[order[0], step % 96])
        table = {key: key * key for key in range(300)}
        total += sum(table.values()) * 1e-12
    elapsed = time.perf_counter() - start
    if total <= 0:  # consume the result so no step is skipped
        raise RuntimeError("host probe produced no result")
    return elapsed


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # numpy < 1.25 has no dict mode; the name is optional
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinned": {key: os.environ.get(key) for key in sorted(CHILD_ENV)},
        "nproc": os.cpu_count(),
    }


def canary_main() -> None:
    """Sample this CPU's speed until SIGTERM, then print the samples.

    Every ``CANARY_PERIOD_S`` the canary times one fixed work chunk on the
    CPU it is pinned to; the chunk takes longer while the host slows that CPU
    down, so the mean over a window tracks the host's speed there.
    """
    import signal

    import numpy as np

    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    matrix = np.random.default_rng(7).random((48, 48))
    samples = []
    while not stopping:
        time.sleep(CANARY_PERIOD_S)
        start = time.monotonic()
        for _ in range(CANARY_STEPS):
            matrix @ matrix
            sum(range(300))
        end = time.monotonic()
        samples.append((end, end - start))
    sys.stdout.write(json.dumps(samples) + "\n")


def child_main(args: argparse.Namespace) -> None:
    import resource

    sys.path.insert(0, SRC)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    ready = time.monotonic()
    if args.setup_only:
        sys.stdout.write(CHILD_MARK + json.dumps({"ready": ready}) + "\n")
        return

    ref_s = host_probe()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_start = time.process_time()
    start = time.monotonic()
    outcome = workload.run(inputs)
    end = time.monotonic()
    cpu_s = time.process_time() - cpu_start
    invol = resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw - usage.ru_nivcsw

    from repro.pipeline.mapping_engine import peak_rss_bytes

    record = {
        "ready": ready,
        "window": [start, end],
        "run_s": end - start,
        "peak_rss_bytes": peak_rss_bytes(),
        "host": {"ref_s": ref_s, "cpu_s": cpu_s, "invol_ctx_switches": invol},
        "env": environment(),
        "outputs": outcome.outputs,
        "counters": outcome.counters,
        "test_acc": outcome.test_acc,
        "fare_acc_gain": outcome.fare_acc_gain,
        "operations": outcome.operations,
        "failed_keys": outcome.failed_keys,
    }
    if tracer is not None:
        record["trace"] = {
            "spans": tracer.spans,
            "plan_entries": tracer.plan_entries,
        }
    sys.stdout.write(CHILD_MARK + json.dumps(record) + "\n")


# --------------------------------------------------------------------------- #
# Parent: canaries, repetitions, checks, metrics
# --------------------------------------------------------------------------- #
def pinned_to(cpu: int):
    """``preexec_fn`` that pins a child process to ``cpu`` before it starts."""
    return lambda: os.sched_setaffinity(0, {cpu})


def start_canaries(cpus: list) -> dict:
    """Start one canary pinned to each CPU; they sample until stopped."""
    canaries = {
        cpu: subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--canary"],
            cwd=ROOT,
            env=dict(os.environ, **CHILD_ENV),
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=pinned_to(cpu),
        )
        for cpu in cpus
    }
    time.sleep(CANARY_WARMUP_S)
    return canaries


def stop_canaries(canaries: dict) -> dict:
    """Stop the canaries; returns each CPU's ``[end stamp, chunk s]`` samples."""
    for canary in canaries.values():
        canary.terminate()
    samples = {}
    for cpu, canary in canaries.items():
        try:
            out, _ = canary.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            canary.kill()
            out, _ = canary.communicate()
        samples[cpu] = json.loads(out or "[]")
    return samples


def canary_chunk_s(samples: list, start: float, end: float) -> float:
    """Mean canary chunk time in ``[start, end]``, else the chunk nearest to it."""
    chunks = [duration for stamp, duration in samples if start <= stamp <= end]
    if not chunks:
        middle = (start + end) / 2
        chunks = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
    return sum(chunks) / len(chunks)


def child_command(workload: str, seed: int, *flags: str) -> list:
    return [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--workload",
        workload,
        "--seed",
        str(seed),
        *flags,
    ]


def run_process(command: list, cpu: int, deadline: float) -> dict:
    """Run one child pinned to ``cpu`` and parse its record (``error`` on failure).

    The record gains ``cpu`` and ``launch``, the clock just before the
    interpreter was started.
    """
    timeout = max(1.0, deadline - time.monotonic())
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=dict(os.environ, **CHILD_ENV),
            capture_output=True,
            text=True,
            timeout=timeout,
            preexec_fn=pinned_to(cpu),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"killed at the {RUN_DEADLINE_S:.0f} s run deadline"}
    lines = [line for line in proc.stdout.splitlines() if line.startswith(CHILD_MARK)]
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        return {"error": f"exit code {proc.returncode}\n{tail}"}
    record = json.loads(lines[-1][len(CHILD_MARK):])
    record.update(cpu=cpu, launch=launch)
    return record


def rescale(record: dict, canary_samples: dict) -> dict:
    """Add the set-up and run times rescaled by the canary of the record's CPU."""
    if "error" in record:
        return record
    samples = canary_samples[record["cpu"]]
    if not samples:
        return {"error": f"the canary on CPU {record['cpu']} took no sample"}
    record["setup_wall_s"] = record["ready"] - record["launch"]
    record["setup_s"] = record["setup_wall_s"] * CANARY_NOMINAL_S / canary_chunk_s(
        samples, record["launch"], record["ready"]
    )
    if "window" in record:
        record["canary_s"] = canary_chunk_s(samples, *record["window"])
        record["speed"] = CANARY_NOMINAL_S / record["canary_s"]
        record["wall_s"] = record["run_s"]
        record["run_s"] = record["wall_s"] * record["speed"]
    return record


def mismatches(actual, expected, path: str = "") -> list:
    """Keys where ``actual`` differs from ``expected`` (histories within atol)."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [path or "<root>"]
        found = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                found.append(f"{path}{key}")
            else:
                found.extend(mismatches(actual[key], expected[key], f"{path}{key}/"))
        return found
    if isinstance(expected, list):
        same = isinstance(actual, list) and len(actual) == len(expected) and all(
            abs(a - e) <= HISTORY_ATOL for a, e in zip(actual, expected)
        )
        return [] if same else [path.rstrip("/")]
    return [] if actual == expected else [path.rstrip("/")]


def check(workload: str, seed: int, record: dict, references: dict) -> tuple:
    """``(attempted, failed, problems)`` of one repetition."""
    if "error" in record:
        operations = WORKLOADS[workload].operations
        return operations, operations, [record["error"]]
    expected = references.get(workload, {}).get(str(seed))
    if expected is None:
        return record["operations"], record["operations"], ["no reference recorded"]
    problems = mismatches(record["outputs"], expected)
    if workload == "fig6_sweep":
        outputs = record["outputs"]
        if outputs.get("quarantined") != 0:
            problems.append("quarantined specs")
        if outputs.get("fare_gain_cells_positive") != 9:
            problems.append("FARe not above fault-unaware in every cell")
        # Each spec (dataset/model/strategy/density) is one operation; a
        # sweep-level problem fails all of them.
        failed_specs = set(record["failed_keys"]) | {
            "/".join(key.split("/")[:4]) for key in problems if key.count("/") >= 3
        }
        sweep_level = any(key.count("/") < 3 for key in problems)
        failed = record["operations"] if sweep_level else len(failed_specs)
        return record["operations"], failed, problems
    return 1, 1 if problems else 0, problems


def span_metrics(record: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    import tracing

    trace = record["trace"]
    spans = trace["spans"]
    totals: dict = {}
    counts: dict = {}
    speed = record["speed"]
    for name, start, end, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start) * speed
        counts[name] = counts.get(name, 0) + 1
    selves = tracing.self_times(spans)
    metrics = {}
    for name in SPAN_METRICS:
        metrics[f"{name}_s"] = totals.get(name, 0.0)
        metrics[f"{name}_calls"] = float(counts.get(name, 0))
    metrics["core.cost_engine_self_s"] = speed * sum(
        value for value, span in zip(selves, spans) if span[0] == "core.cost_engine"
    )
    metrics["nn.forward_calls"] = float(
        counts.get("nn.forward_train", 0) + counts.get("nn.forward_eval", 0)
    )
    epochs = sum(
        value
        for key, value in record["counters"].items()
        if key == "epochs" or key.endswith(":epochs")
    )
    metrics["trainer.epoch_s"] = totals.get("trainer.train", 0.0) / epochs if epochs else 0.0

    start, end = record["window"]
    covered = sum(
        span[2] - span[1] for span in spans if span[3] == -1 and span[1] >= start
    )
    metrics["trace.span_coverage"] = covered / (end - start)
    return metrics


def counter_metrics(record: dict, workload: str) -> dict:
    """Useful-work and hit ratios from the program's own counters."""

    def total(name: str) -> float:
        return sum(
            value
            for key, value in record["counters"].items()
            if key == name or key.endswith(":" + name)
        )

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    solved = total("mapping_solver_pairs")
    used = float(record["trace"]["plan_entries"])
    hits = total("mapping_cache_hits")
    adjacency_hits = total("hw_adjacency_cache_hits")
    weight_hits = total("hw_weight_cache_hits")
    artifact_hits = sum(
        value for key, value in record["counters"].items()
        if key.startswith("summary:artifact_") and key.endswith("_hits")
    )
    artifact_misses = sum(
        value for key, value in record["counters"].items()
        if key.startswith("summary:artifact_") and key.endswith("_misses")
    )
    return {
        "core.pairs_solved": solved,
        "core.pairs_used": used,
        "core.pairs_useful_ratio": ratio(used, solved),
        "core.cost_cache_hit_ratio": ratio(hits, hits + total("mapping_cache_misses")),
        "hw_state.adjacency_hit_ratio": ratio(
            adjacency_hits, adjacency_hits + total("hw_adjacency_cache_misses")
        ),
        "hw_state.weight_hit_ratio": ratio(
            weight_hits, weight_hits + total("hw_weight_cache_misses")
        ),
        "sweeps.specs": float(record["operations"] if workload == "fig6_sweep" else 0),
        "sweeps.specs_failed": float(len(record["failed_keys"])),
        "sweeps.artifact_hit_ratio": ratio(artifact_hits, artifact_hits + artifact_misses),
        "fidelity.test_acc": record["test_acc"],
        "fidelity.fare_acc_gain": record["fare_acc_gain"] or 0.0,
    }


def source_identity() -> str:
    """The git commit of the checkout, or ``unknown`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def repetitions(workload: str, seed: int, seconds: float, reserve: float, cpus: list,
                deadline: float):
    """Timed repetitions, then set-up-only samples in the time left.

    Returns ``(records, setups)``.  Timed repetitions run while the next one
    fits in ``seconds`` with ``reserve`` repetitions' time kept back; set-up
    samples (at least ``MIN_SETUP_SAMPLES``) then run while the next one
    fits.  Consecutive children alternate between ``cpus``.
    """
    start = time.monotonic()
    records = []
    while True:
        cpu = cpus[len(records) % len(cpus)]
        records.append(run_process(child_command(workload, seed), cpu, deadline))
        per_rep = (time.monotonic() - start) / len(records)
        budget = seconds - per_rep * reserve
        if time.monotonic() - start + per_rep > budget:
            break
    begin = time.monotonic()
    setups = []
    while True:
        cpu = cpus[len(setups) % len(cpus)]
        setups.append(run_process(child_command(workload, seed, "--setup-only"), cpu, deadline))
        per_setup = (time.monotonic() - begin) / len(setups)
        if len(setups) >= MIN_SETUP_SAMPLES and time.monotonic() - start + per_setup > budget:
            return records, setups


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))


def parent_main(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(REFERENCES) as handle:
        references = json.load(handle)
    # Byte-compile once up front so no repetition's set-up pays for it.
    compileall.compile_dir(SRC, quiet=1)
    seed = WORKLOADS[args.workload].seed_for(args.seed)

    cpus = sorted(os.sched_getaffinity(0))
    canaries = start_canaries(cpus)
    try:
        records, setups = repetitions(
            args.workload, seed, args.seconds, 1.0 if args.trace else 0.0, cpus, deadline
        )
        traced = None
        if args.trace:
            traced = run_process(
                child_command(args.workload, seed, "--trace", "1"), cpus[0], deadline
            )
    finally:
        canary_samples = stop_canaries(canaries)
    records = [rescale(record, canary_samples) for record in records]
    setups = [rescale(record, canary_samples) for record in setups]
    if traced is not None:
        traced = rescale(traced, canary_samples)

    attempted = failed = 0
    problems = [f"set-up sample: {r['error']}" for r in setups if "error" in r]
    for record in records + ([traced] if traced else []):
        rep_attempted, rep_failed, rep_problems = check(args.workload, seed, record, references)
        attempted += rep_attempted
        failed += rep_failed
        problems.extend(rep_problems)
    good = [record for record in records if "error" not in record]
    good_setups = good + [record for record in setups if "error" not in record]

    print(f"workload {args.workload}  seed {args.seed} (workload seed {seed})  "
          f"repetitions {len(records)}  set-up samples {len(good_setups)}  "
          f"source {source_identity()}")
    if good:
        print(f"env {json.dumps(good[0]['env'], sort_keys=True)}")
    for index, record in enumerate(records):
        if "error" in record:
            print(f"  rep {index}: FAILED {record['error']}")
            continue
        host = record["host"]
        print(f"  rep {index}: run_s {record['run_s']:.3f} (wall {record['wall_s']:.3f})  "
              f"setup_s {record['setup_s']:.3f} (wall {record['setup_wall_s']:.3f})  "
              f"peak_rss {record['peak_rss_bytes'] / 2**20:.1f} MiB  "
              f"host.canary_ms {record['canary_s'] * 1e3:.3f}  host.ref_s {host['ref_s']:.3f}  "
              f"host.cpu_s {host['cpu_s']:.3f}  invol_ctx {host['invol_ctx_switches']}")
    print("  set-up samples s (wall): " + "  ".join(
        f"{r['setup_s']:.3f} ({r['setup_wall_s']:.3f})" for r in good_setups
    ))
    metrics = {}
    if good:
        metrics = {
            "run_s": (statistics.median(r["run_s"] for r in good), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in good_setups), "s"),
            "peak_rss_mib": (
                statistics.median(r["peak_rss_bytes"] for r in good) / 2**20, "MiB"
            ),
        }
    if args.trace:
        metrics = trace_metrics(args, seed, good, traced, problems)
    for problem in problems[:20]:
        print(f"  check failed: {problem}")
    correct = failed == 0 and not problems and bool(metrics)
    print(f"failure share {failed}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    if not metrics:
        metrics = {name: (0.0, unit) for name, unit in (PER_LAYER if args.trace else END_TO_END)}
    emit(correct, attempted, failed, metrics)
    return 0


def trace_metrics(args, seed: int, good: list, traced: dict, problems: list) -> dict:
    """Per-layer metrics of the traced repetition, plus its self-checks."""
    if not good or "error" in traced:
        problems.append("traced run incomplete")
        return {}
    values = span_metrics(traced)
    values.update(counter_metrics(traced, args.workload))
    untraced = statistics.median(r["run_s"] for r in good)
    values["trace.run_s"] = traced["run_s"]
    values["trace.overhead_s"] = traced["run_s"] - untraced
    values.update({f"host.{key}": float(value) for key, value in traced["host"].items()})
    values["host.run_wall_s"] = traced["wall_s"]
    values["host.canary_ms"] = traced["canary_s"] * 1e3
    if values["trace.span_coverage"] < 0.9:
        problems.append(f"top-level spans cover {values['trace.span_coverage']:.1%} < 90 %")
    if traced["outputs"] != good[0]["outputs"]:
        problems.append("traced outputs differ from the untraced run")
    if traced["counters"] != good[0]["counters"]:
        differing = sorted(
            key for key in set(traced["counters"]) | set(good[0]["counters"])
            if traced["counters"].get(key) != good[0]["counters"].get(key)
        )
        problems.append(f"traced counters differ: {differing[:5]}")
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump({"workload": args.workload, "seed": seed, "env": traced["env"],
                   "spans": traced["trace"]["spans"], "metrics": values}, handle)
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    units = dict(PER_LAYER)
    return {name: (values[name], units[name]) for name, _ in PER_LAYER}


def record_references() -> int:
    """Re-record ``references.json``: one untraced repetition per seed."""
    references = {}
    cpu = min(os.sched_getaffinity(0))
    for workload in WORKLOADS.values():
        references[workload.name] = {}
        for seed in workload.seeds:
            record = run_process(
                child_command(workload.name, seed), cpu, time.monotonic() + RUN_DEADLINE_S
            )
            if "error" in record:
                print(f"{workload.name} seed {seed}: {record['error']}", file=sys.stderr)
                return 1
            references[workload.name][str(seed)] = record["outputs"]
            print(f"{workload.name} seed {seed}: wall {record['run_s']:.2f} s "
                  f"test_acc {record['test_acc']:.4f}")
    with open(REFERENCES, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="fare_paper")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--canary", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()
    if args.child:
        child_main(args)
        return 0
    if args.canary:
        canary_main()
        return 0
    if args.record_references:
        return record_references()
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
