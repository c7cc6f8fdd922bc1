"""Fault diagnosis in reconfigurable scan networks (III.E, after [45]).

Given the TDO streams observed from a failing part, diagnosis returns
the set of candidate faults whose simulated signatures match.  The
quality metric is *resolution*: the average candidate-set size over all
faults (1.0 = perfect diagnosis).  [45] generates dedicated sequences to
shrink that set; ``diagnostic_test`` here augments a base test with
per-SIB discriminating vectors, one signature campaign per round, and
keeps each vector that lowers the resolution.

Signature campaigns execute on the unified engine
(:class:`repro.engine.RsnDiagnosisBackend`): every facade keeps its
result type but gains ``db=``/``workers=``/``executor=``, and
``signature_campaign`` additionally returns the engine's
:class:`~repro.engine.CampaignReport`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .network import RSN
from .retarget import build_vector
from .test_gen import RsnTest, Step, flush_pattern


@dataclass
class DiagnosisResult:
    """Signature table and candidate sets."""

    signatures: dict[object, tuple[int, ...]] = field(default_factory=dict)
    golden_signature: tuple[int, ...] = ()

    def candidates(self, observed: Sequence[int]) -> list[object]:
        """Faults whose signature matches the observed stream."""
        key = tuple(observed)
        return [f for f, sig in self.signatures.items() if sig == key]

    def resolution(self) -> float:
        """Mean candidate-set size over all detectable faults (lower=better)."""
        sizes = Counter(self.signatures.values())
        detectable = [sizes[sig] for sig in self.signatures.values()
                      if sig != self.golden_signature]
        return sum(detectable) / len(detectable) if detectable else 0.0

    def detected_fraction(self) -> float:
        if not self.signatures:
            return 1.0
        detectable = sum(1 for sig in self.signatures.values()
                         if sig != self.golden_signature)
        return detectable / len(self.signatures)


def signature_campaign(
    factory: Callable[[], RSN],
    faults: Sequence[object],
    test: RsnTest,
    db=None,
    workers: int = 1,
    executor: str = "auto",
):
    """Run the per-fault signature campaign on the unified engine.

    Returns ``(DiagnosisResult, CampaignReport)`` — the signature table
    every diagnosis facade consumes, plus the engine's campaign report
    (outcome counts, executor, throughput).  ``factory`` must be
    picklable (module-level function or ``functools.partial``) for the
    process executor; lambdas fall back to serial with a logged reason.
    """
    from ..engine.core import EngineConfig, run_campaign
    from ..engine.workloads import DETECTED, RsnDiagnosisBackend

    backend = RsnDiagnosisBackend(factory, faults, test)
    report = run_campaign(
        backend, EngineConfig(batch_size=8, workers=workers,
                              executor=executor), db=db)
    view, golden = report.injections, backend.golden_signature
    assert all((outcome == DETECTED) == (signature != golden)
               for outcome, signature in zip(view.column("outcomes"),
                                             view.column("details")))
    return DiagnosisResult(dict(zip(view.column("points"),
                                    view.column("details"))),
                           golden), report


def build_signature_table(
    factory: Callable[[], RSN],
    faults: Sequence[object],
    test: RsnTest,
    db=None,
    workers: int = 1,
    executor: str = "auto",
) -> DiagnosisResult:
    """Simulate every fault under ``test`` and record its TDO signature."""
    table, _report = signature_campaign(factory, faults, test, db=db,
                                        workers=workers, executor=executor)
    return table


def diagnose(
    factory: Callable[[], RSN],
    faults: Sequence[object],
    test: RsnTest,
    observed: Sequence[int],
    db=None,
    workers: int = 1,
    executor: str = "auto",
) -> list[object]:
    """Candidate faults for an observed response under ``test``."""
    table = build_signature_table(factory, faults, test, db=db,
                                  workers=workers, executor=executor)
    return table.candidates(observed)


def _extend_with_toggle(factory: Callable[[], RSN], test: RsnTest,
                        sib: str, round_idx: int) -> RsnTest:
    """One refinement candidate: ``test`` plus a SIB toggle and a flush."""
    probe = factory()
    probe.reset()
    for step in test.steps:
        probe.capture()
        probe.shift(step.bits)
        if step.update:
            probe.update()
    toggle = build_vector(probe, {sib: (round_idx + 1) % 2}, {})
    extended = RsnTest(test.name,
                       [Step(list(s.bits), s.update) for s in test.steps])
    extended.add_config(toggle)
    probe.csu(toggle)
    extended.add_flush(flush_pattern(probe.path_length()))
    return extended


def diagnostic_test(
    factory: Callable[[], RSN],
    faults: Sequence[object],
    base: RsnTest,
    max_extra_rounds: int = 8,
    workers: int = 1,
    executor: str = "auto",
) -> tuple[RsnTest, DiagnosisResult]:
    """Extend ``base`` with discriminating vectors while rounds remain.

    Round ``r`` extends the best test so far with a configuration that
    sets SIB ``r mod n`` (the network's ``n`` SIBs in name order, taken
    round-robin) to ``(r + 1) % 2``, plus a flush — the divide-and-conquer
    refinement of [45] — and runs one signature campaign on it.  The
    extension is kept only when it lowers the resolution.  At most
    ``max_extra_rounds`` rounds run, and none once the resolution reaches
    1.0 or when the network has no SIB.
    """
    test = RsnTest("diagnostic", [Step(list(s.bits), s.update) for s in base.steps])
    table = build_signature_table(factory, faults, test,
                                  workers=workers, executor=executor)
    best = table.resolution()
    from .network import Sib  # local import to avoid cycle at module load

    network = factory()
    network.reset()
    sib_names = [name for name, node in sorted(network.registry.items())
                 if isinstance(node, Sib)]
    round_idx = 0
    while round_idx < max_extra_rounds and best > 1.0 and sib_names:
        extended = _extend_with_toggle(
            factory, test, sib_names[round_idx % len(sib_names)], round_idx)
        candidate = build_signature_table(factory, faults, extended,
                                          workers=workers, executor=executor)
        resolution = candidate.resolution()
        if resolution < best:
            best, test, table = resolution, extended, candidate
        round_idx += 1
    return test, table
