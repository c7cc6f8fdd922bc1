"""Safety fault-injection campaigns with ISO 26262 classification.

Couples the FI machinery to the metric layer: each injected fault is
observed on two groups of outputs — the *mission* outputs (whose
corruption violates the safety goal) and the *detection* outputs (alarm
signals of safety mechanisms such as lockstep comparators, ECC flags or
watchdogs) — and mapped onto the ISO fault classes.  The result feeds
SPFM/LFM/PMHF and the ASIL verdict.

Execution is delegated to the unified campaign engine
(:mod:`repro.engine`): this module keeps the classification semantics
and the public result type, while batching, worker pools and CampaignDb
persistence come from the shared core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping, Sequence

from ..circuit.netlist import Circuit
from ..faults.models import StuckAtFault
from .iso26262 import (
    ClassifiedFault,
    FaultClass,
    SafetyMetrics,
    compute_metrics,
)


@dataclass
class SafetyCampaignResult:
    """Classified faults plus derived metrics."""

    classified: list[ClassifiedFault] = field(default_factory=list)
    metrics: SafetyMetrics | None = None

    def count(self, fault_class: FaultClass) -> int:
        return sum(1 for f in self.classified if f.fault_class is fault_class)

    def rows(self) -> list[tuple]:
        total = len(self.classified) or 1
        return [(fc.value, self.count(fc), round(self.count(fc) / total, 4))
                for fc in FaultClass]


def classify_injection_values(
    good: Mapping[str, int],
    bad: Mapping[str, int],
    mask: int,
    mission_outputs: Sequence[str],
    detection_outputs: Sequence[str],
) -> FaultClass:
    """Map one injection's good/faulty values onto an ISO fault class.

    A fault *violates the safety goal* when any mission output differs in
    any pattern; it is *caught* when any detection output fires (differs
    from golden) in at least every pattern where a mission output is
    wrong — partial detection counts as residual, matching the
    conservative reading of the standard.
    """
    mission_diff = 0
    for net in mission_outputs:
        mission_diff |= (good.get(net, 0) ^ bad.get(net, 0)) & mask
    detect_diff = 0
    for net in detection_outputs:
        detect_diff |= (good.get(net, 0) ^ bad.get(net, 0)) & mask
    violates = bool(mission_diff)
    caught = bool(detect_diff) and (mission_diff & ~detect_diff) == 0
    perceived = bool(detect_diff)
    if violates and caught:
        return FaultClass.DETECTED
    if violates:
        return FaultClass.RESIDUAL
    if perceived:
        return FaultClass.LATENT_DETECTED
    return FaultClass.SAFE


def run_safety_campaign(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    mission_outputs: Sequence[str],
    detection_outputs: Sequence[str],
    patterns: Mapping[str, int],
    n_patterns: int,
    state: Mapping[str, int] | None = None,
    fit_per_fault: float = 1.0,
    db=None,
    workers: int = 1,
    executor: str = "auto",
    resume: int | None = None,
) -> SafetyCampaignResult:
    """Inject every fault under packed patterns and classify per ISO.

    Runs on the unified engine: pass ``db`` (a
    :class:`repro.core.campaign.CampaignDb`) to persist every injection,
    ``workers`` > 1 to execute batches concurrently, and ``executor``
    to pick the strategy (serial/process/auto) — results are
    identical at any worker count and executor choice.  ``resume``
    restarts a checkpointed campaign (requires the same ``db``) from its
    last committed chunk, byte-identical to an uninterrupted run.
    """
    from ..engine.backends import SafetyBackend
    from ..engine.core import EngineConfig, run_campaign

    backend = SafetyBackend(circuit, faults, mission_outputs,
                            detection_outputs, patterns, n_patterns, state)
    report = run_campaign(backend,
                          EngineConfig(workers=workers, executor=executor),
                          db=db, resume=resume)
    view = report.injections
    classified = list(map(ClassifiedFault, view.column("locations"),
                          map(FaultClass, view.column("outcomes")),
                          repeat(fit_per_fault)))
    return SafetyCampaignResult(classified, compute_metrics(classified))
