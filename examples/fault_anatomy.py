#!/usr/bin/env python
"""Fig. 1 in code: what a single stuck-at fault does to stored data.

Part (a) — weight matrix: a 16-bit fixed-point weight is spread over eight
2-bit cells; a stuck-at-1 fault near the most-significant cell "explodes" the
value towards the top of the representable range, while the same fault near
the least-significant cell barely moves it.  Weight clipping bounds the
damage.

Part (b) — adjacency matrix: the binary adjacency block is stored directly on
a crossbar; SA1 cells add spurious edges, SA0 cells delete real ones, and a
row permutation that aligns the fault pattern with the block's structure
(what FARe computes) removes most of the corruption.

Usage:
    python examples/fault_anatomy.py
"""

from __future__ import annotations

import numpy as np

from repro.core.cost_engine import MappingCostEngine
from repro.hardware.crossbar import Crossbar
from repro.hardware.faults import FaultMap
from repro.hardware.quantization import (
    FixedPointFormat,
    dequantize_from_cells,
    quantize_to_cells,
)
from repro.utils.tabulate import format_table


def weight_explosion_demo() -> None:
    fmt = FixedPointFormat(total_bits=16, max_value=4.0, bits_per_cell=2)
    weight = 0.05
    cells = quantize_to_cells(np.array([weight]), fmt)[0]

    rows = []
    for label, position in (("MSB cell", 0), ("middle cell", 3), ("LSB cell", fmt.num_cells - 1)):
        for fault, stuck_value in (("SA1", fmt.cell_levels - 1), ("SA0", 0)):
            corrupted = cells.copy()
            corrupted[position] = stuck_value
            read_back = float(dequantize_from_cells(corrupted[None, :], fmt)[0])
            clipped = float(np.clip(read_back, -1.0, 1.0))
            rows.append([f"{fault} @ {label}", weight, read_back, clipped])
    print(
        format_table(
            ["Fault", "Stored weight", "Read-back value", "After clipping (tau=1)"],
            rows,
            title="(a) Weight matrix: one faulty 2-bit cell of a 16-bit weight",
        )
    )


def adjacency_corruption_demo() -> None:
    # The 4x4 example of Fig. 1(b).
    block = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [0, 0, 0, 0],
        ],
        dtype=float,
    )
    fault_map = FaultMap.from_indices(
        (4, 4),
        sa0_indices=[(2, 0)],
        sa1_indices=[(0, 3), (2, 1)],
    )
    crossbar = Crossbar(0, rows=4, cols=4, fault_map=fault_map)

    crossbar.program_binary(block)
    naive = crossbar.read_binary()

    engine = MappingCostEngine(sa1_weight=4.0, row_method="hungarian")
    [(cost, permutation, _)] = engine.pair_results([block], [fault_map])
    crossbar.program_binary(block, row_permutation=permutation)
    remapped = crossbar.read_binary(row_permutation=permutation)

    def show(matrix):
        return "\n".join("  " + " ".join(str(int(v)) for v in row) for row in matrix)

    print()
    print("(b) Adjacency block stored on a crossbar with 2 SA1 + 1 SA0 faults")
    print("ideal block:")
    print(show(block))
    print(f"naive placement   ({int(np.sum(naive != block))} corrupted entries):")
    print(show(naive))
    print(
        f"FARe row permutation {permutation.tolist()} "
        f"({int(np.sum(remapped != block))} corrupted entries, weighted cost {cost:.0f}):"
    )
    print(show(remapped))


def main() -> None:
    weight_explosion_demo()
    adjacency_corruption_demo()


if __name__ == "__main__":
    main()
