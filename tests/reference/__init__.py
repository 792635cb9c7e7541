"""Seed implementations that the production paths are proved against.

Every feature in ``src/`` has one production path.  The slower loops it
replaced live here, next to the tests that compare against them, and the
throughput benchmarks use them as their baselines:

* :mod:`reference.mapping` — the per-pair loop behind Algorithm 1 with its
  single-pair ``block_crossbar_cost`` (for the batched mapping cost engine),
  the per-block loop of the fault-unaware plan (for its edge-coordinate
  count) and NR's per-block group reordering (for its one batched solve per
  plan);
* :mod:`reference.faults` — the per-map sample-and-merge loop of fault
  generation and post-deployment injection, and the copying BIST scan (for
  the stacked fault planes and the shared maps);
* :mod:`reference.graph` — the lexsort heavy-edge matcher of the streaming
  partitioner (for its segment maxima) and the double-sort ``from_coo``;
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
  ``train_mode="fused"``), per-split evaluation (for the bucketed eval) and
  a trainer that re-plans after every epoch's BIST re-scan (a test seam for
  re-plan equivalence);
* :mod:`reference.sweeps` — one sweep spec trained with every input rebuilt
  from scratch (for ``execute_spec`` on shared artifacts);
* :mod:`reference.gat` — dense ``N × N`` masked attention (for the sparse
  edge-wise GAT).

References reach the production classes by subclassing, or through
:func:`reference.hardware.uncached_hardware`, which patches the names the
trainer builds its hardware views from.
"""
