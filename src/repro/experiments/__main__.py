"""CLI: regenerate any paper figure through the declarative sweep engine.

::

    python -m repro.experiments fig4                      # one figure, seed 0
    python -m repro.experiments fig5a fig5b --seeds 0 1 2 # mean±std tables
    python -m repro.experiments all --workers 4 --store   # everything, parallel,
                                                          # persisted run cache
    python -m repro.experiments --list                    # available figures

Training figures run through one :class:`~repro.experiments.sweeps.SweepPlan`
per figure: preprocessing artifacts are shared across grid cells, multiple
``--seeds`` add a replication axis rendered as mean ± std error bars,
``--workers N`` spreads workload groups over spawned processes, and
``--store`` persists results under ``benchmarks/results/runcache/``
(``REPRO_RUNCACHE_DIR`` overrides the location) so re-runs skip finished
cells.  ``fig7`` and ``tables`` are analytical/static and run as-is.
``--epochs``, ``--workers``, ``--max-attempts`` and ``--timeout`` must be
positive; any other value exits 2 before training starts.

Fault tolerance: execution is supervised (see
:mod:`repro.experiments.failures`) — ``--max-attempts`` and ``--timeout``
tune the retry policy and per-group wall-clock budget.  Each run publishes
to the store as it completes, so rerunning an interrupted ``--store``
invocation recomputes only unfinished specs.  Any spec that exhausts its
retries is quarantined: the grid still renders (missing cells marked), a
failure report prints, and the exit status is 1 so CI catches partial
sweeps.  A ``Ctrl-C`` exits 130 with a resume hint.

Device-lifetime scenario (endurance wear-out + re-planning at each
checkpoint — see :mod:`repro.experiments.lifetime`)::

    python -m repro.experiments lifetime --epochs 2      # accuracy vs writes
    python -m repro.experiments lifetime --grid          # cross-density grid
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from typing import List

from repro.experiments import fig3, fig4, fig5, fig6, fig7, headline, tables
from repro.experiments.configs import SA_RATIO_1_1, SA_RATIO_9_1
from repro.experiments.sweeps import ResultStore, SweepEngine, run_seed_replicates
from repro.experiments.failures import RetryPolicy

#: name → (plan_fn, run_fn, format_fn, seed-aggregation headers, title).
#: Headers come from the figure modules (single source next to ``rows()``).
TRAINING_FIGURES = {
    "fig3": (
        fig3.plan_fig3,
        fig3.run_fig3,
        fig3.format_fig3,
        fig3.FIG3_HEADERS,
        "Fig. 3 — per-phase SA0/SA1 sensitivity",
    ),
    "fig4": (
        fig4.plan_fig4,
        fig4.run_fig4,
        fig4.format_fig4,
        fig4.FIG4_SUMMARY_HEADERS,
        "Fig. 4 — final-epoch training accuracy",
    ),
    "fig5a": (
        partial(fig5.plan_fig5, sa_ratio=SA_RATIO_9_1),
        partial(fig5.run_fig5, sa_ratio=SA_RATIO_9_1),
        fig5.format_fig5,
        fig5.FIG5_HEADERS,
        "Fig. 5(a) — test accuracy, SA0:SA1 = 9:1",
    ),
    "fig5b": (
        partial(fig5.plan_fig5, sa_ratio=SA_RATIO_1_1),
        partial(fig5.run_fig5, sa_ratio=SA_RATIO_1_1),
        fig5.format_fig5,
        fig5.FIG5_HEADERS,
        "Fig. 5(b) — test accuracy, SA0:SA1 = 1:1",
    ),
    "fig6a": (
        partial(fig6.plan_fig6, sa_ratio=SA_RATIO_9_1),
        partial(fig6.run_fig6, sa_ratio=SA_RATIO_9_1),
        fig6.format_fig6,
        fig6.FIG6_HEADERS,
        "Fig. 6(a) — pre+post-deployment, SA0:SA1 = 9:1",
    ),
    "fig6b": (
        partial(fig6.plan_fig6, sa_ratio=SA_RATIO_1_1),
        partial(fig6.run_fig6, sa_ratio=SA_RATIO_1_1),
        fig6.format_fig6,
        fig6.FIG6_HEADERS,
        "Fig. 6(b) — pre+post-deployment, SA0:SA1 = 1:1",
    ),
    "headline": (
        headline.plan_headline,
        headline.run_headline,
        headline.format_headline,
        headline.HEADLINE_HEADERS,
        "Headline claims — paper vs measured",
    ),
}

ANALYTIC_FIGURES = ("fig7", "tables")
ALL_FIGURES = tuple(TRAINING_FIGURES) + ANALYTIC_FIGURES


def _emit_training_figure(name: str, args, engine: SweepEngine) -> str:
    plan_fn, run_fn, format_fn, headers, title = TRAINING_FIGURES[name]
    kwargs = dict(scale=args.scale, epochs=args.epochs)
    if len(args.seeds) == 1:
        return format_fn(run_fn(seed=args.seeds[0], engine=engine, **kwargs))
    results = run_seed_replicates(
        plan_fn,
        run_fn,
        args.seeds,
        engine=engine,
        max_workers=args.workers,
        **kwargs,
    )
    return tables.format_seed_table(
        headers,
        [results[seed].rows() for seed in args.seeds],
        args.seeds,
        title,
    )


def _emit_analytic_figure(name: str) -> str:
    if name == "fig7":
        return fig7.format_fig7(fig7.run_fig7())
    return "\n\n".join(
        [tables.format_table1(), tables.format_table2(), tables.format_table3()]
    )


def _positive(convert):
    """argparse ``type=`` that rejects values ≤ 0 (argparse then exits 2)."""

    def parse(text: str):
        value = convert(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    # argparse names the type in its "invalid int value: 'x'" error.
    parse.__name__ = convert.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate paper figures through the declarative sweep engine.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        default=["all"],
        help=f"figures to run: {', '.join(ALL_FIGURES)} or 'all' (default)",
    )
    parser.add_argument("--scale", default="ci", choices=("ci", "paper"))
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[0],
        help="seed replication axis; >1 seed renders mean±std tables",
    )
    parser.add_argument(
        "--epochs", type=_positive(int), default=None, help="override epoch count"
    )
    parser.add_argument(
        "--workers",
        type=_positive(int),
        default=1,
        help="process-parallel workers (spawn)",
    )
    parser.add_argument(
        "--store",
        action="store_true",
        help="persist results in the on-disk run cache (benchmarks/results/runcache)",
    )
    parser.add_argument(
        "--max-attempts",
        type=_positive(int),
        default=3,
        help="attempts per spec before quarantine (transient/infra failures only)",
    )
    parser.add_argument(
        "--timeout",
        type=_positive(float),
        default=None,
        help="per-artifact-group wall-clock budget in seconds (parallel runs)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available figures and exit"
    )
    return parser


def main(argv: List[str] = None) -> int:
    argv_list = list(sys.argv[1:]) if argv is None else list(argv)
    if argv_list and argv_list[0] == "lifetime":
        # Device-lifetime scenario (endurance wear-out + incremental
        # re-planning) — sequential and stateful, so it has its own driver
        # rather than a sweep grid.
        from repro.experiments.lifetime import cli_main as lifetime_main

        return lifetime_main(argv_list[1:])
    args = build_parser().parse_args(argv_list)
    if args.list:
        for name in ALL_FIGURES:
            print(name)
        return 0
    names = list(args.figures)
    if "all" in names:
        names = list(ALL_FIGURES)
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_FIGURES)}, all", file=sys.stderr)
        return 2

    engine = SweepEngine(
        store=ResultStore() if args.store else None,
        max_workers=args.workers,
        retry_policy=RetryPolicy(max_attempts=args.max_attempts),
        group_timeout=args.timeout,
    )
    started = time.perf_counter()
    try:
        for name in names:
            if name in TRAINING_FIGURES:
                print(_emit_training_figure(name, args, engine))
            else:
                print(_emit_analytic_figure(name))
            print()
    except KeyboardInterrupt:
        if args.store:
            hint = "completed runs are stored; rerun with --store to skip them"
        else:
            hint = "run with --store to make sweeps resumable"
        print(f"\ninterrupted — {hint}", file=sys.stderr)
        return 130
    elapsed = time.perf_counter() - started
    print(engine.format_summary())
    print(f"total wall time: {elapsed:.1f} s")
    if engine.failed:
        print()
        print(engine.failure_report())
        print(
            f"{len(engine.failed)} spec(s) quarantined — tables above mark the "
            "affected cells as (missing)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
