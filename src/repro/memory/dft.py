"""On-chip current-sensor DFT for hard-to-detect SRAM faults ([10][27]).

"To monitor the health status of an SRAM, we investigated efficient ways
to monitor the status of cells using on-chip current sensors.  The idea
is to compare the response of different cells with each other and from
there identify defective or weak cells."

The scheme: during a read, a sensor digitizes the cell's bit-line
current; each cell's reading is compared against a *reference* formed
from its neighbours (the paper's cell-vs-cell comparison, which cancels
global process/temperature shifts).  Cells deviating beyond a relative
threshold are flagged — catching parametric (weak) defects that never
fail a functional march test, "testing all defects simultaneously while
using a limited number of operations only" (one read sweep).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Sequence

from .march import MARCH_C_MINUS, MarchTest, run_march
from .sram import SramArray


@dataclass
class CurrentSensorConfig:
    """Sensor geometry and decision threshold."""

    deviation_threshold: float = 0.10  # flag if >10 % below neighbour median
    neighbourhood: int = 8             # cells per comparison group (per row)
    measurement_noise: float = 0.01    # 1-sigma relative sensor noise


@dataclass
class DftResult:
    """Cells flagged by the current-sensor sweep."""

    flagged: set[str] = field(default_factory=set)
    measurements: dict[str, float] = field(default_factory=dict)
    operations: int = 0


def current_sweep(array: SramArray, config: CurrentSensorConfig | None = None,
                  seed: int = 0) -> DftResult:
    """Two read sweeps (one per data polarity) with neighbour comparison.

    Measuring with the cell holding 0 exercises the left discharge stack,
    holding 1 the right one, so a defect on either side is observed.
    """
    import random as _random

    config = config or CurrentSensorConfig()
    rng = _random.Random(seed)
    result = DftResult()
    for polarity in (0, 1):
        for r in range(array.rows):
            row_cells = array.cells[r]
            for start in range(0, len(row_cells), config.neighbourhood):
                group = row_cells[start:start + config.neighbourhood]
                readings = {}
                for cell in group:
                    noise = 1.0 + rng.gauss(0.0, config.measurement_noise)
                    readings[cell.name] = cell.read_current(polarity) * noise
                    result.operations += 1
                if len(readings) < 3:
                    continue
                median = statistics.median(readings.values())
                if median <= 0:
                    continue
                for name, value in readings.items():
                    ratio = value / median
                    result.measurements[name] = min(
                        ratio, result.measurements.get(name, ratio))
                    if value < median * (1.0 - config.deviation_threshold):
                        result.flagged.add(name)
    return result


@dataclass
class CombinedTestReport:
    """March vs march+DFT coverage per defect class (the E12 table)."""

    march_name: str
    hard_total: int
    hard_by_march: int
    weak_total: int
    weak_by_march: int
    weak_by_dft: int
    march_operations: int
    dft_operations: int

    @property
    def march_coverage_hard(self) -> float:
        return self.hard_by_march / self.hard_total if self.hard_total else 1.0

    @property
    def march_coverage_weak(self) -> float:
        return self.weak_by_march / self.weak_total if self.weak_total else 1.0

    @property
    def combined_coverage_weak(self) -> float:
        if not self.weak_total:
            return 1.0
        return min(1.0, (self.weak_by_march + self.weak_by_dft) / self.weak_total)


def combined_test(
    array: SramArray,
    hard_cells: Sequence[str],
    weak_cells: Sequence[str],
    march: MarchTest = MARCH_C_MINUS,
    config: CurrentSensorConfig | None = None,
    seed: int = 0,
) -> CombinedTestReport:
    """Run march then the DFT sweep; report per-class coverage."""
    march_result = run_march(array, march)
    failing = march_result.failing_cells()
    dft_result = current_sweep(array, config, seed)
    weak_set = set(weak_cells)
    return CombinedTestReport(
        march_name=march.name,
        hard_total=len(hard_cells),
        hard_by_march=sum(1 for c in hard_cells if c in failing),
        weak_total=len(weak_cells),
        weak_by_march=sum(1 for c in weak_cells if c in failing),
        weak_by_dft=sum(1 for c in weak_set if c in dft_result.flagged),
        march_operations=march_result.operations,
        dft_operations=dft_result.operations,
    )
