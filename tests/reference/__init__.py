"""Seed implementations that the production paths are proved against.

Every feature in ``src/`` has one production path.  The slower loops it
replaced live here, next to the tests that compare against them, and the
throughput benchmarks use them as their baselines:

* :mod:`reference.mapping` — the per-pair loop behind Algorithm 1 (for the
  batched mapping cost engine);
* :mod:`reference.matching` — the scalar Hungarian loop that updates every
  dual potential in place (for the compact-tree ``hungarian_assignment``),
  the copy-and-mask scalar greedy (for the submatrix ``greedy_assignment``)
  and the one-argmin-per-row batch greedy (for the two-phase
  ``greedy_assignment_batch``);
* :mod:`reference.hardware` — the eager dense block decomposition (for the
  lazy block views), the per-block adjacency read-back, the bit-sliced
  weight pipeline and the uncached hardware-state view (for the
  batched/fused read-back and the epoch cache);
* :mod:`reference.trainer` — per-member gradient accumulation (for
  ``train_mode="fused"``) and per-split evaluation (for the bucketed eval);
* :mod:`reference.gat` — dense ``N × N`` masked attention (for the sparse
  edge-wise GAT).

References reach the production classes by subclassing, or through
:func:`reference.hardware.uncached_hardware`, which patches the names the
trainer builds its hardware views from.
"""
