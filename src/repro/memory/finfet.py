"""Simplified FinFET device model with manufacturing-defect variants.

Substitution for the paper's TCAD methodology (III.E): "Each defect is
modelled by altering the physical structure of FinFET devices to include
unwanted characteristics, such as cracks on the channel or bended fins.
These devices are then simulated for electrical analysis."  The closed
form here keeps exactly the properties the downstream test experiments
need — per-defect drive-current loss, threshold shift and leakage — on a
square-law I–V:

    I_on = k · n_fins_eff · (Vgs − Vth_eff)²   (saturation)

A *cracked fin* removes part of a fin's drive; a *bent fin* disturbs the
gate wrap, shifting Vth and raising leakage.  The quantitative knobs are
chosen so full cracks produce hard functional faults while partial
cracks/bends land in the "hard-to-detect" parametric band of [26]/[27].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum


class DefectType(str, Enum):
    NONE = "none"
    FIN_CRACK = "fin_crack"          # fractional loss of fin drive
    BENT_FIN = "bent_fin"            # Vth shift + leakage increase
    GATE_OXIDE_DAMAGE = "gate_oxide" # large Vth shift, drive collapse


@dataclass(frozen=True)
class FinFet:
    """One FinFET with ``n_fins`` parallel fins."""

    name: str
    n_fins: int = 2
    vth: float = 0.35
    k_per_fin: float = 1.0e-4      # A/V² per fin
    leakage: float = 1.0e-9        # A at Vgs=0
    fin_integrity: float = 1.0     # 1.0 = pristine, 0 = all fins broken
    defect: DefectType = DefectType.NONE

    def effective_fins(self) -> float:
        return self.n_fins * max(0.0, min(1.0, self.fin_integrity))

    def on_current(self, vdd: float = 0.8) -> float:
        """Saturation drive current at Vgs=Vdd."""
        overdrive = vdd - self.vth
        if overdrive <= 0:
            return 0.0
        return self.k_per_fin * self.effective_fins() * overdrive ** 2

    def drive_ratio_vs(self, reference: "FinFet", vdd: float = 0.8) -> float:
        """This device's drive as a fraction of a reference device's."""
        ref = reference.on_current(vdd)
        return self.on_current(vdd) / ref if ref > 0 else 0.0


def pristine(name: str, n_fins: int = 2) -> FinFet:
    return FinFet(name=name, n_fins=n_fins)


def with_fin_crack(device: FinFet, severity: float) -> FinFet:
    """Crack ``severity`` ∈ (0, 1]: fraction of fin cross-section lost."""
    if not 0 < severity <= 1:
        raise ValueError("severity must be in (0, 1]")
    return replace(device,
                   fin_integrity=device.fin_integrity * (1 - severity),
                   defect=DefectType.FIN_CRACK)


def with_bent_fin(device: FinFet, tilt: float) -> FinFet:
    """Bend ``tilt`` ∈ (0, 1]: gate-wrap degradation.

    Shifts Vth up by up to 150 mV and multiplies leakage by up to 100×
    at full tilt — the parametric signature TCAD reports for bent fins.
    """
    if not 0 < tilt <= 1:
        raise ValueError("tilt must be in (0, 1]")
    return replace(device,
                   vth=device.vth + 0.15 * tilt,
                   leakage=device.leakage * (1 + 99 * tilt),
                   defect=DefectType.BENT_FIN)


def with_gate_damage(device: FinFet) -> FinFet:
    """Gate-oxide damage: device barely turns on (hard fault)."""
    return replace(device, vth=device.vth + 0.4,
                   fin_integrity=device.fin_integrity * 0.3,
                   defect=DefectType.GATE_OXIDE_DAMAGE)


def classify_severity(device: FinFet, reference: FinFet,
                      vdd: float = 0.8,
                      hard_threshold: float = 0.35,
                      weak_threshold: float = 0.85) -> str:
    """Bin a defective device: 'hard' / 'weak' / 'benign'.

    The drive-ratio bins mirror the [26] observation that only gross
    defects become functional (march-detectable) faults; the rest need
    parametric DFT.
    """
    ratio = device.drive_ratio_vs(reference, vdd)
    if ratio < hard_threshold:
        return "hard"
    if ratio < weak_threshold:
        return "weak"
    return "benign"
