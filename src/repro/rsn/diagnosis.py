"""Fault diagnosis in reconfigurable scan networks (III.E, after [45]).

Given the TDO streams observed from a failing part, diagnosis returns
the set of candidate faults whose simulated signatures match.  The
quality metric is *resolution*: the average candidate-set size over all
faults (1.0 = perfect diagnosis).  [45] generates dedicated sequences to
shrink that set; ``diagnostic_test`` here augments a base test with
per-SIB discriminating vectors until resolution stops improving.

Signature campaigns execute on the unified engine
(:class:`repro.engine.RsnDiagnosisBackend`): every facade keeps its
result type but gains ``db=``/``workers=``/``executor=``, and
``signature_campaign`` additionally returns the engine's
:class:`~repro.engine.CampaignReport`.
"""

from __future__ import annotations

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
        detectable = [f for f, sig in self.signatures.items()
                      if sig != self.golden_signature]
        if not detectable:
            return 0.0
        total = 0
        for fault in detectable:
            total += len(self.candidates(self.signatures[fault]))
        return total / len(detectable)

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
    result = DiagnosisResult()
    result.golden_signature = backend.golden_signature
    for inj in report.injections:
        result.signatures[inj.point] = inj.detail
        assert (inj.outcome == DETECTED) == \
            (inj.detail != result.golden_signature)
    return result, report


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


def _speculated_tables(
    factory: Callable[[], RSN],
    faults: Sequence[object],
    speculated: Sequence[tuple[int, RsnTest]],
    workers: int,
    executor: str,
) -> dict[int, DiagnosisResult]:
    """Signature tables for a window of candidate tests.

    A window of one runs a plain campaign; larger windows fuse every
    candidate into a single :class:`repro.engine.CompositeBackend`
    campaign (one part per round), so the engine — and, on the process
    executor, its worker pool — is entered once per window instead of
    once per round.
    """
    if len(speculated) == 1:
        round_idx, test = speculated[0]
        return {round_idx: build_signature_table(
            factory, faults, test, workers=workers, executor=executor)}
    from ..engine.core import EngineConfig, run_campaign
    from ..engine.workloads import CompositeBackend, RsnDiagnosisBackend

    parts = [(f"r{round_idx}", RsnDiagnosisBackend(factory, faults, test))
             for round_idx, test in speculated]
    backend = CompositeBackend(parts)
    report = run_campaign(
        backend, EngineConfig(batch_size=8, workers=workers,
                              executor=executor))
    tables: dict[int, DiagnosisResult] = {}
    for (round_idx, _test), (_tag, part) in zip(speculated, parts):
        result = DiagnosisResult()
        result.golden_signature = part.golden_signature
        tables[round_idx] = result
    for inj in report.injections:
        tag, fault = inj.point
        tables[int(tag[1:])].signatures[fault] = inj.detail
    return tables


def diagnostic_test(
    factory: Callable[[], RSN],
    faults: Sequence[object],
    base: RsnTest,
    max_extra_rounds: int = 8,
    workers: int = 1,
    executor: str = "auto",
    batch_rounds: bool = True,
) -> tuple[RsnTest, DiagnosisResult]:
    """Extend ``base`` with discriminating vectors until resolution stalls.

    Each round appends, for the most ambiguous candidate class, a
    configuration that toggles one SIB appearing in those faults plus a
    flush — the classic divide-and-conquer refinement of [45].

    With ``batch_rounds`` (the default) candidate rounds are evaluated
    in *speculative windows*: a window assumes the current best test
    survives, builds every candidate in it, and runs all of them as one
    composite engine campaign.  Rounds are still consumed strictly in
    order, and an improvement discards the rest of its window (those
    candidates assumed the superseded test), so the returned
    ``(test, table)`` is identical to the one-campaign-per-round loop —
    the window only doubles (1, 2, 4, …) while no improvement lands,
    which bounds wasted speculation to one window.
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
    window = 1
    while round_idx < max_extra_rounds and best > 1.0 and sib_names:
        hi = min(round_idx + (window if batch_rounds else 1),
                 max_extra_rounds)
        speculated = [
            (r, _extend_with_toggle(factory, test,
                                    sib_names[r % len(sib_names)], r))
            for r in range(round_idx, hi)
        ]
        tables = _speculated_tables(factory, faults, speculated, workers,
                                    executor)
        improved = False
        for r, extended in speculated:
            round_idx = r + 1
            candidate_table = tables[r]
            resolution = candidate_table.resolution()
            if resolution < best:
                best = resolution
                test = extended
                table = candidate_table
                improved = True
                break  # the rest of the window assumed the old test
        window = 1 if improved else min(2 * window, max_extra_rounds)
    return test, table
