"""FMECA — Failure Mode, Effects and Criticality Analysis (paper III.D).

"In early stages of the flow, techniques for supporting architects and
reliability experts in performing FMECA are introduced."  This module is
that support: a failure-mode registry with severity/occurrence/detection
scoring, risk-priority numbers, a criticality matrix, and a bridge that
derives occurrence scores from FIT data so the sheet stays consistent
with the quantitative reliability analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FailureMode:
    """One row of the FMECA sheet (scores on the classic 1–10 scales)."""

    component: str
    mode: str
    effect: str
    severity: int
    occurrence: int
    detection: int  # 1 = always detected … 10 = undetectable

    def __post_init__(self) -> None:
        for label, score in (("severity", self.severity),
                             ("occurrence", self.occurrence),
                             ("detection", self.detection)):
            if not 1 <= score <= 10:
                raise ValueError(f"{label} must be in 1..10, got {score}")

    @property
    def rpn(self) -> int:
        """Risk priority number = S × O × D."""
        return self.severity * self.occurrence * self.detection


def occurrence_from_fit(fit: float) -> int:
    """Map a failure rate in FIT onto the 1–10 occurrence scale.

    Decade bands: <0.1 FIT → 1, each ×10 adds one point, ≥1e8 FIT → 10.
    """
    if fit < 0:
        raise ValueError("fit must be non-negative")
    score = 1
    threshold = 0.1
    while fit >= threshold and score < 10:
        score += 1
        threshold *= 10
    return score


@dataclass
class Fmeca:
    """A failure-mode worksheet with ranking and gating queries."""

    system: str
    modes: list[FailureMode] = field(default_factory=list)

    def add(self, mode: FailureMode) -> "Fmeca":
        self.modes.append(mode)
        return self

    def ranked(self) -> list[FailureMode]:
        """Modes by descending RPN (the action-priority list)."""
        return sorted(self.modes, key=lambda m: (-m.rpn, m.component, m.mode))

    def above_threshold(self, rpn_threshold: int = 100) -> list[FailureMode]:
        """Modes requiring corrective action under the usual RPN>100 rule."""
        return [m for m in self.ranked() if m.rpn > rpn_threshold]

    def criticality_matrix(self) -> dict[tuple[int, int], list[FailureMode]]:
        """(severity, occurrence) → modes, the classic criticality grid."""
        grid: dict[tuple[int, int], list[FailureMode]] = {}
        for mode in self.modes:
            grid.setdefault((mode.severity, mode.occurrence), []).append(mode)
        return grid

    def rows(self) -> list[tuple]:
        """Report rows for :func:`repro.core.report.format_table`."""
        return [
            (m.component, m.mode, m.effect, m.severity, m.occurrence,
             m.detection, m.rpn)
            for m in self.ranked()
        ]

    def mitigation_effect(self, component: str, new_detection: int) -> dict[str, int]:
        """RPN before/after improving detection for one component.

        Models adding a safety mechanism (better detection score) and
        reports the total RPN drop — the quantitative argument FMECA
        makes for a design change.
        """
        before = sum(m.rpn for m in self.modes if m.component == component)
        after = sum(
            FailureMode(m.component, m.mode, m.effect, m.severity,
                        m.occurrence, min(m.detection, new_detection)).rpn
            for m in self.modes if m.component == component
        )
        return {"rpn_before": before, "rpn_after": after, "reduction": before - after}
