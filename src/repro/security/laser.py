"""Laser fault-injection modelling (III.F, [18]).

[18] studies physical laser FI setups on IHP technologies: "for test
structures we could show that fault injections switching a single
transistor at least in the 250 nm technology are successful and
repeatable", enabling an attacker to flip "identified registers that
allow/prevent access to sensitive data".

The model substitutes the optical bench (see DESIGN.md): a chip
floorplan places register cells on a grid with technology-dependent
pitch; a laser shot has a position, spot diameter (bounded below by the
optical wavelength) and energy.  A cell flips when the spot covers it
with fluence above the node's upset threshold.  The key technology
effect reproduces directly: at 250 nm the minimum spot covers one cell
(precise, repeatable single-bit flips); at deep-submicron pitches the
same spot covers many cells (multi-bit upsets, imprecise targeting).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

#: Cell pitch (µm) per technology node — register cell edge length.
CELL_PITCH_UM: dict[str, float] = {
    "250nm": 3.0,
    "130nm": 1.6,
    "65nm": 0.8,
    "28nm": 0.4,
}

#: Upset energy threshold (arbitrary fluence units) per node.
UPSET_THRESHOLD: dict[str, float] = {
    "250nm": 1.0,
    "130nm": 0.8,
    "65nm": 0.6,
    "28nm": 0.5,
}

#: Practical minimum laser spot diameter (µm), limited by the IR optics.
MIN_SPOT_UM = 2.0


@dataclass(frozen=True)
class RegisterCell:
    """One register bit placed on the floorplan."""

    name: str
    x_um: float
    y_um: float


@dataclass
class Floorplan:
    """A register file laid out on a grid."""

    technology: str
    cells: list[RegisterCell] = field(default_factory=list)

    @property
    def pitch(self) -> float:
        return CELL_PITCH_UM[self.technology]

    @classmethod
    def grid(cls, technology: str, names: list[str], columns: int = 8) -> "Floorplan":
        pitch = CELL_PITCH_UM[technology]
        cells = [
            RegisterCell(name, (i % columns) * pitch, (i // columns) * pitch)
            for i, name in enumerate(names)
        ]
        return cls(technology, cells)


@dataclass(frozen=True)
class LaserShot:
    """One laser pulse."""

    x_um: float
    y_um: float
    spot_diameter_um: float
    energy: float


@dataclass
class ShotOutcome:
    """Cells flipped by one shot."""

    flipped: list[str] = field(default_factory=list)

    @property
    def single_bit(self) -> bool:
        return len(self.flipped) == 1


def fire(floorplan: Floorplan, shot: LaserShot,
         jitter_um: float = 0.15, seed: int = 0) -> ShotOutcome:
    """Evaluate a shot: cells inside the (jittered) spot above threshold flip.

    ``jitter_um`` models stage positioning noise — the term that makes
    repeated shots at fine pitches occasionally miss.
    """
    rng = random.Random(seed)
    spot = max(shot.spot_diameter_um, MIN_SPOT_UM)
    cx = shot.x_um + rng.gauss(0, jitter_um)
    cy = shot.y_um + rng.gauss(0, jitter_um)
    radius = spot / 2
    threshold = UPSET_THRESHOLD[floorplan.technology]
    outcome = ShotOutcome()
    if shot.energy < threshold:
        return outcome
    # fluence is approximately uniform inside the spot for our purposes
    for cell in floorplan.cells:
        if math.hypot(cell.x_um - cx, cell.y_um - cy) <= radius:
            outcome.flipped.append(cell.name)
    return outcome


@dataclass
class AttackStats:
    """Repeatability statistics for a targeted single-bit attack."""

    technology: str
    attempts: int
    exact_hits: int      # only the target flipped
    collateral: int      # target plus neighbours flipped
    misses: int

    @property
    def single_bit_success_rate(self) -> float:
        return self.exact_hits / self.attempts if self.attempts else 0.0


def attack_campaign(
    floorplan: Floorplan,
    target: str,
    attempts: int = 100,
    energy: float = 1.5,
    seed: int = 0,
    db=None,
    workers: int = 1,
    executor: str = "auto",
):
    """Targeted shot campaign on the unified engine.

    Returns ``(AttackStats, CampaignReport)``: the same per-shot
    outcomes as the old serial loop (each shot keeps its
    ``seed * 100_003 + i`` jitter stream, so the counts are
    shot-for-shot identical) plus the engine's campaign report.
    """
    from ..engine.core import EngineConfig, run_campaign
    from ..engine.workloads import LaserFiBackend

    cell = next((c for c in floorplan.cells if c.name == target), None)
    if cell is None:
        raise ValueError(f"no cell named {target!r}")
    shots = [LaserShot(cell.x_um, cell.y_um, MIN_SPOT_UM, energy)
             for _ in range(attempts)]
    backend = LaserFiBackend(floorplan, shots, target=target, seed=seed)
    report = run_campaign(
        backend, EngineConfig(batch_size=16, workers=workers,
                              executor=executor), db=db)
    stats = AttackStats(
        floorplan.technology, attempts,
        exact_hits=report.count("exact_hit"),
        collateral=report.count("collateral"),
        misses=report.count("miss"))
    return stats, report


def targeted_attack(
    floorplan: Floorplan,
    target: str,
    attempts: int = 100,
    energy: float = 1.5,
    seed: int = 0,
    db=None,
    workers: int = 1,
    executor: str = "auto",
) -> AttackStats:
    """Repeatedly aim at one register bit; measure single-bit success.

    Reproduces the [18] claim structure: at 250 nm the pitch exceeds the
    spot, so hits are single-bit and repeatable; at smaller nodes the
    spot covers several cells and collateral flips dominate.  Runs on
    the unified campaign engine (``db``/``workers``/``executor``
    passthrough) with shot-for-shot identical outcomes to the pre-port
    serial loop.
    """
    stats, _report = attack_campaign(floorplan, target, attempts, energy,
                                     seed, db=db, workers=workers,
                                     executor=executor)
    return stats


def grid_shots(floorplan: Floorplan, energy: float = 1.5,
               step_um: float | None = None,
               spot_diameter_um: float = MIN_SPOT_UM) -> list[LaserShot]:
    """A raster of shots covering the floorplan's bounding box — the
    stage sweep a real bench performs when mapping sensitive regions."""
    if not floorplan.cells:
        return []
    step = step_um if step_um is not None else floorplan.pitch
    max_x = max(c.x_um for c in floorplan.cells)
    max_y = max(c.y_um for c in floorplan.cells)
    shots = []
    y = 0.0
    while y <= max_y + 1e-9:
        x = 0.0
        while x <= max_x + 1e-9:
            shots.append(LaserShot(x, y, spot_diameter_um, energy))
            x += step
        y += step
    return shots


def sensitivity_map(
    floorplan: Floorplan,
    energy: float = 1.5,
    step_um: float | None = None,
    seed: int = 0,
    db=None,
    workers: int = 1,
    executor: str = "auto",
):
    """Shot-grid campaign over the floorplan: upset class per position.

    Returns ``(dict[(x, y)] -> flipped cell list, CampaignReport)`` —
    the laser-FI sensitivity map as an engine campaign whose outcome
    histogram splits the grid into no-flip / single-bit / multi-bit
    regions.
    """
    from ..engine.core import EngineConfig, run_campaign
    from ..engine.workloads import LaserFiBackend

    shots = grid_shots(floorplan, energy, step_um)
    backend = LaserFiBackend(floorplan, shots, seed=seed)
    report = run_campaign(
        backend, EngineConfig(batch_size=32, workers=workers,
                              executor=executor), db=db)
    view = report.injections
    return {(shot.x_um, shot.y_um): flipped
            for (_index, shot), flipped in zip(view.column("points"),
                                               view.column("details"))}, report


def unlock_register_attack(
    technology: str,
    n_registers: int = 32,
    unlock_bit: int = 7,
    attempts: int = 100,
    seed: int = 0,
    db=None,
    workers: int = 1,
    executor: str = "auto",
) -> AttackStats:
    """The paper's scenario: flip the register bit gating sensitive data."""
    names = [f"sec{i}" for i in range(n_registers)]
    plan = Floorplan.grid(technology, names)
    return targeted_attack(plan, f"sec{unlock_bit}", attempts, seed=seed,
                           db=db, workers=workers, executor=executor)
