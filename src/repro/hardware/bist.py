"""Built-in self-test (BIST) model.

The FARe mapping algorithm consumes the fault distribution reported by a BIST
circuit (reference [7] of the paper).  The BIST adds ~0.13 % area and, when it
is re-run at the end of each epoch to capture post-deployment faults, ~0.13 %
of execution time.  This module models the *functional* interface — reporting
the fault maps of the true crossbar state, as the paper's ideal March-test
BIST does — plus those overhead constants, which the timing model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.hardware.config import DEFAULT_CONFIG, ReRAMConfig
from repro.hardware.crossbar import Crossbar
from repro.hardware.faults import FaultMap, population_counts


@dataclass
class BISTReport:
    """Result of one BIST scan across a set of crossbars."""

    fault_maps: List[FaultMap]
    scan_index: int
    detected_faults: int
    time_overhead_fraction: float

    def density(self) -> float:
        """Detected fault density across the scanned crossbars."""
        cells = sum(f.sa0.size for f in self.fault_maps)
        return self.detected_faults / cells if cells else 0.0


class BISTController:
    """Scans crossbars and reports their stuck-at-fault maps.

    Parameters
    ----------
    config:
        Architecture configuration (provides the overhead constants).
    """

    def __init__(self, config: ReRAMConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self.scan_count = 0
        #: The latest scan's report.  Only the last one is kept: a report
        #: shares the crossbars' maps, which are views of their injection's
        #: stacked planes, so a history would keep every stack alive.
        self.last_report: Optional[BISTReport] = None

    def scan(self, crossbars: Sequence[Crossbar]) -> BISTReport:
        """Scan ``crossbars`` and return the detected fault maps.

        Every fault is detected, so the report holds the crossbars' own maps:
        a map is never edited after it is made (fault injection replaces it),
        so the report needs no copy and later injections leave it as it was.
        """
        fault_maps = [crossbar.fault_map for crossbar in crossbars]
        report = BISTReport(
            fault_maps=fault_maps,
            scan_index=self.scan_count,
            detected_faults=sum(population_counts(fault_maps)),
            time_overhead_fraction=self.config.bist_time_overhead,
        )
        self.scan_count += 1
        self.last_report = report
        return report

    @property
    def area_overhead_fraction(self) -> float:
        """Fractional area added by the BIST circuitry (paper: 0.13 %)."""
        return self.config.bist_area_overhead
