"""Tool-confidence verification for fault-analysis flows (III.D, [20][48][50]).

ISO 26262 part 8 requires confidence in the *tools* themselves.  The
RESCUE methodology "combin[es] the strengths of Automatic Test Pattern
generators (ATPGs), Formal methods and Fault Injection (FI) simulation to
automatically verify tools and detect any errors in their fault
classification".

We build three independent classifiers answering the same question —
*is this stuck-at fault detectable at the observation points?* —

* **ATPG engine**: PODEM; complete, so 'untestable' verdicts are proofs.
* **Formal engine**: exhaustive bit-parallel simulation over all input
  combinations (a bounded model check of detectability).
* **FI engine**: random-pattern fault injection; sound for 'detectable',
  may under-approximate (report 'undetected') — exactly the asymmetry
  real FI tools have.

Cross-checking produces an agreement matrix; any *hard* disagreement
(ATPG-untestable vs formally-detectable, or vice versa) indicates a tool
bug.  ``SeededBug`` wrappers corrupt one engine deliberately so the
methodology's bug-finding power is itself testable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..circuit.netlist import Circuit
from ..faults.models import StuckAtFault
from ..sim.fault_sim import fault_simulate, fault_simulate_batched
from ..sim.logic import exhaustive_patterns, pack_patterns
from .iso26262 import FaultClass
from ..atpg.podem import Podem

DETECTABLE = "detectable"
UNDETECTABLE = "undetectable"
UNKNOWN = "unknown"

Verdict = str
Classifier = Callable[[Circuit, Sequence[StuckAtFault]], dict[StuckAtFault, Verdict]]


def atpg_classifier(circuit: Circuit, faults: Sequence[StuckAtFault],
                    backtrack_limit: int = 50_000) -> dict[StuckAtFault, Verdict]:
    """PODEM-based classification (complete up to the backtrack limit)."""
    engine = Podem(circuit, backtrack_limit)
    out = {}
    for fault in faults:
        res = engine.run(fault)
        out[fault] = {"detected": DETECTABLE, "untestable": UNDETECTABLE,
                      "aborted": UNKNOWN}[res.status]
    return out


def formal_classifier(circuit: Circuit,
                      faults: Sequence[StuckAtFault]) -> dict[StuckAtFault, Verdict]:
    """Exhaustive-simulation classification (exact for ≤ ~16 inputs)."""
    pseudo = list(circuit.inputs) + list(circuit.flops)
    if len(pseudo) > 20:
        raise ValueError("formal engine limited to 20 pseudo-inputs "
                         f"({circuit.name} has {len(pseudo)})")
    packed, n = exhaustive_patterns(pseudo)
    state = {q: packed[q] for q in circuit.flops}
    sim = fault_simulate(circuit, list(faults), packed, n, state=state,
                         full_scan=True)
    out = {f: DETECTABLE for f in sim.detected}
    out.update({f: UNDETECTABLE for f in sim.undetected})
    return out


def fi_classifier(circuit: Circuit, faults: Sequence[StuckAtFault],
                  n_patterns: int = 64, seed: int = 0) -> dict[StuckAtFault, Verdict]:
    """Random fault injection: sound for DETECTABLE, incomplete otherwise."""
    rng = random.Random(seed)
    pseudo = list(circuit.inputs) + list(circuit.flops)
    packed = {net: rng.getrandbits(n_patterns) for net in pseudo}
    state = {q: packed[q] for q in circuit.flops}
    sim = fault_simulate_batched(circuit, faults, [(packed, n_patterns)],
                                 state=state, drop_detected=False)
    out = {f: DETECTABLE for f in sim.detected}
    out.update({f: UNKNOWN for f in sim.undetected})
    return out


# ----------------------------------------------------------------------
# seeded tool bugs (for validating the methodology)
# ----------------------------------------------------------------------
def buggy_drops_branch_faults(base: Classifier) -> Classifier:
    """A 'tool bug': branch (gate-input) faults are misreported undetectable."""
    def classify(circuit: Circuit, faults: Sequence[StuckAtFault]):
        out = base(circuit, faults)
        for fault in faults:
            if not fault.line.is_stem:
                out[fault] = UNDETECTABLE
        return out
    return classify


def buggy_optimistic(base: Classifier, every: int = 7) -> Classifier:
    """A 'tool bug': every n-th undetectable fault reported detectable."""
    def classify(circuit: Circuit, faults: Sequence[StuckAtFault]):
        out = base(circuit, faults)
        for i, fault in enumerate(sorted(out)):
            if out[fault] == UNDETECTABLE and i % every == 0:
                out[fault] = DETECTABLE
        return out
    return classify


# ----------------------------------------------------------------------
# cross-check
# ----------------------------------------------------------------------
@dataclass
class CrossCheckReport:
    """Agreement analysis between classification engines."""

    verdicts: dict[str, dict[StuckAtFault, Verdict]] = field(default_factory=dict)
    hard_disagreements: list[tuple[StuckAtFault, dict[str, Verdict]]] = field(default_factory=list)
    soft_disagreements: list[tuple[StuckAtFault, dict[str, Verdict]]] = field(default_factory=list)

    @property
    def engines(self) -> list[str]:
        return list(self.verdicts)

    def agreement_matrix(self) -> dict[tuple[str, str], float]:
        """Pairwise fraction of faults with compatible verdicts."""
        names = self.engines
        matrix: dict[tuple[str, str], float] = {}
        for a in names:
            for b in names:
                va, vb = self.verdicts[a], self.verdicts[b]
                common = [f for f in va if f in vb]
                if not common:
                    matrix[(a, b)] = 1.0
                    continue
                ok = sum(1 for f in common if _compatible(va[f], vb[f]))
                matrix[(a, b)] = ok / len(common)
        return matrix

    @property
    def tool_bug_suspected(self) -> bool:
        return bool(self.hard_disagreements)


def _compatible(a: Verdict, b: Verdict) -> bool:
    """UNKNOWN is compatible with anything; binary verdicts must match."""
    if UNKNOWN in (a, b):
        return True
    return a == b


def cross_check(circuit: Circuit, faults: Sequence[StuckAtFault],
                engines: dict[str, Classifier]) -> CrossCheckReport:
    """Run every engine and collect disagreements.

    *Hard* disagreement: one engine says DETECTABLE and another says
    UNDETECTABLE for the same fault — at least one tool is wrong.
    *Soft*: an UNKNOWN against a binary verdict (expected for FI).
    """
    report = CrossCheckReport()
    for name, classify in engines.items():
        report.verdicts[name] = classify(circuit, faults)
    for fault in faults:
        votes = {name: report.verdicts[name].get(fault, UNKNOWN)
                 for name in report.verdicts}
        values = set(votes.values())
        if DETECTABLE in values and UNDETECTABLE in values:
            report.hard_disagreements.append((fault, votes))
        elif UNKNOWN in values and len(values) > 1:
            report.soft_disagreements.append((fault, votes))
    return report


def default_engines() -> dict[str, Classifier]:
    """The paper's trio: ATPG + formal + FI."""
    return {
        "atpg": atpg_classifier,
        "formal": formal_classifier,
        "fi": fi_classifier,
    }


def iso_fault_class_of(verdict: Verdict, safety_relevant: bool) -> FaultClass:
    """Bridge from detectability verdicts to ISO fault classes.

    Used by the safety campaign when a mechanism's detection logic is the
    observation point: detectable faults are DETECTED, undetectable but
    safety-relevant ones are RESIDUAL candidates.
    """
    if verdict == DETECTABLE:
        return FaultClass.DETECTED
    if safety_relevant:
        return FaultClass.RESIDUAL
    return FaultClass.SAFE
