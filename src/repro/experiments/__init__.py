"""Experiment drivers regenerating every table and figure of the paper.

Each ``figN``/``table`` module declares its grid as a
:class:`~repro.experiments.sweeps.SweepPlan` (``plan_*``) and exposes a
``run_*`` function returning plain data structures (lists of row tuples or
dicts of series) and a ``format_*`` helper that renders the same rows the
paper reports; :func:`~repro.experiments.sweeps.run_seed_replicates` runs a
``plan_*``/``run_*`` pair at several seeds for results with error bars.  Plans
execute through the :class:`~repro.experiments.sweeps.SweepEngine` (shared
preprocessing artifacts, optional process parallelism, optional on-disk
result store); ``python -m repro.experiments`` runs any figure from the
command line.  The benchmark harness under ``benchmarks/`` calls these
drivers one-to-one, and ``benchmarks/results/headline.txt`` records the
measured headline numbers next to the paper's.
"""

from repro.experiments import configs, lifetime, runner, sweeps, tables
from repro.experiments import fig3, fig4, fig5, fig6, fig7, headline

__all__ = [
    "configs",
    "lifetime",
    "runner",
    "sweeps",
    "tables",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "headline",
]
