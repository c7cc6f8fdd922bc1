"""6T FinFET SRAM cell and array models.

Each cell owns six devices (2 pull-up, 2 pull-down, 2 pass-gate).  Cell
health is summarized by three margins derived from device drive ratios:

* **read stability** — pull-down vs pass-gate strength (β-ratio): too low
  and a read flips the cell;
* **write margin** — pass-gate vs pull-up strength (γ-ratio): too low and
  writes fail to flip the cell;
* **read current** — the bit-line discharge current the sense amp (and
  the current-sensor DFT of [10]/[27]) sees.

Defects perturb individual devices, margins shift, and cell behaviour
degrades in the standard ways: stuck-at, transition fault, read-
destructive, slow/weak read.  Behaviour is fully deterministic given the
cell's margin state, which keeps march-test results reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .finfet import FinFet, pristine


@dataclass
class SramCell:
    """One 6T cell: devices, margins and stored state."""

    name: str
    pull_up_l: FinFet
    pull_up_r: FinFet
    pull_down_l: FinFet
    pull_down_r: FinFet
    pass_gate_l: FinFet
    pass_gate_r: FinFet
    value: int = 0
    vdd: float = 0.8

    # margin thresholds (relative to nominal ratios)
    READ_STABILITY_MIN = 0.55
    WRITE_MARGIN_MIN = 0.45
    READ_CURRENT_FAIL = 0.30   # below this fraction of nominal: read fails

    @classmethod
    def fresh(cls, name: str) -> "SramCell":
        """A defect-free cell with standard 1-2-1 fin sizing."""
        return cls(
            name=name,
            pull_up_l=pristine(f"{name}.pul", 1),
            pull_up_r=pristine(f"{name}.pur", 1),
            pull_down_l=pristine(f"{name}.pdl", 2),
            pull_down_r=pristine(f"{name}.pdr", 2),
            pass_gate_l=pristine(f"{name}.pgl", 1),
            pass_gate_r=pristine(f"{name}.pgr", 1),
        )

    # ------------------------------------------------------------------
    # electrical summary
    # ------------------------------------------------------------------
    def beta_ratio(self) -> float:
        """Pull-down / pass-gate drive (read stability driver), worst side."""
        left = self._ratio(self.pull_down_l, self.pass_gate_l)
        right = self._ratio(self.pull_down_r, self.pass_gate_r)
        return min(left, right)

    def gamma_ratio(self) -> float:
        """Pass-gate / pull-up drive (write-ability driver), worst side."""
        left = self._ratio(self.pass_gate_l, self.pull_up_l)
        right = self._ratio(self.pass_gate_r, self.pull_up_r)
        return min(left, right)

    def _ratio(self, num: FinFet, den: FinFet) -> float:
        d = den.on_current(self.vdd)
        return num.on_current(self.vdd) / d if d > 0 else 10.0

    def read_current(self, value: int | None = None) -> float:
        """Bit-line discharge current (series pass-gate + pull-down).

        Reading value 0 discharges through the left stack, value 1 through
        the right stack (the node holding 0 sinks its bit line).  The
        series stack is limited by its weaker device.
        """
        if value is None:
            value = self.value
        side = (self.pull_down_l, self.pass_gate_l) if value == 0 else \
            (self.pull_down_r, self.pass_gate_r)
        return min(d.on_current(self.vdd) for d in side)

    @staticmethod
    def nominal_read_current(vdd: float = 0.8) -> float:
        ref = SramCell.fresh("ref")
        ref.vdd = vdd
        return ref.read_current()

    # relative margins (1.0 = nominal)
    def read_stability(self) -> float:
        nominal = SramCell.fresh("n").beta_ratio()
        return self.beta_ratio() / nominal if nominal else 0.0

    def write_margin(self) -> float:
        nominal = SramCell.fresh("n").gamma_ratio()
        return self.gamma_ratio() / nominal if nominal else 0.0

    # ------------------------------------------------------------------
    # functional behaviour
    # ------------------------------------------------------------------
    def write(self, bit: int) -> bool:
        """Attempt a write; returns success (False models a write fault)."""
        if self.write_margin() < self.WRITE_MARGIN_MIN and bit != self.value:
            return False  # transition fault: cannot flip the cell
        self.value = bit & 1
        return True

    def read(self) -> int:
        """Read the cell.

        Two failure modes: a discharge stack too weak to beat the sense
        amp's precharge returns the *wrong* value (incomplete read), and
        an unstable cell flips during the access (read-destructive).
        """
        result = self.value
        nominal = self.nominal_read_current(self.vdd)
        if self.read_current(self.value) < self.READ_CURRENT_FAIL * nominal:
            result = 1 - self.value  # bit line fails to discharge
        if self.read_stability() < self.READ_STABILITY_MIN:
            self.value ^= 1  # read-destructive upset
        return result

    def is_functional_faulty(self) -> bool:
        """Would this cell fail a functional (march) test?"""
        nominal = self.nominal_read_current(self.vdd)
        weak_read = min(self.read_current(0), self.read_current(1)) \
            < self.READ_CURRENT_FAIL * nominal
        return (self.write_margin() < self.WRITE_MARGIN_MIN
                or self.read_stability() < self.READ_STABILITY_MIN
                or weak_read)

    def is_weak(self, current_threshold: float = 0.85) -> bool:
        """Parametrically degraded but functionally silent (DFT target)."""
        nominal = self.nominal_read_current(self.vdd)
        worst = min(self.read_current(0), self.read_current(1))
        return (not self.is_functional_faulty()
                and worst < current_threshold * nominal)


@dataclass
class SramArray:
    """A rows×cols array of cells with an access log for aging studies."""

    rows: int
    cols: int
    cells: list[list[SramCell]] = field(default_factory=list)
    access_histogram: dict[int, int] = field(default_factory=dict)

    @classmethod
    def build(cls, rows: int, cols: int, seed: int | None = None,
              vth_sigma: float = 0.0) -> "SramArray":
        """Construct an array; optional Vth mismatch via ``vth_sigma``."""
        from dataclasses import replace as _replace

        rng = random.Random(seed)
        array = cls(rows, cols)
        for r in range(rows):
            row = []
            for c in range(cols):
                cell = SramCell.fresh(f"c{r}_{c}")
                if vth_sigma > 0:
                    # FinFet is frozen: rebuild each device with jittered Vth
                    for dev_name in ("pull_up_l", "pull_up_r", "pull_down_l",
                                     "pull_down_r", "pass_gate_l", "pass_gate_r"):
                        dev: FinFet = getattr(cell, dev_name)
                        jitter = rng.gauss(0, vth_sigma)
                        setattr(cell, dev_name, _replace(dev, vth=dev.vth + jitter))
                row.append(cell)
            array.cells.append(row)
        return array

    def cell(self, row: int, col: int) -> SramCell:
        return self.cells[row][col]

    def write(self, row: int, col: int, bit: int) -> bool:
        self.access_histogram[row] = self.access_histogram.get(row, 0) + 1
        return self.cells[row][col].write(bit)

    def read(self, row: int, col: int) -> int:
        self.access_histogram[row] = self.access_histogram.get(row, 0) + 1
        return self.cells[row][col].read()

    def all_cells(self):
        for row in self.cells:
            yield from row

    def weak_cells(self, current_threshold: float = 0.85) -> list[str]:
        return [c.name for c in self.all_cells() if c.is_weak(current_threshold)]
