"""SEU fault-injection campaigns on sequential circuits.

Each injection flips one flop at one cycle of a workload and compares the
machine against the golden run:

* **masked**     — primary outputs and final state both match;
* **latent**     — outputs match but corrupted state remains at the end;
* **failure**    — some primary output differs in some cycle (SDC).

The per-flop failure probability is the architectural vulnerability
factor (AVF) — the "functional derating" leaf of the FIT chain, and the
training label for the ML predictors of experiment E5.

:func:`run_campaign` runs on the campaign engine
(:class:`repro.engine.backends.SeuBackend`): 64 injections share one
packed sequential run, walked in C where the host has a compiler and by
the compiled Python step otherwise (:mod:`repro.engine.lanes`);
:func:`inject_seu` is the per-point reference both are tested against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..circuit.netlist import Circuit
from ..sim.sequential import SequentialSim

MASKED = "masked"
LATENT = "latent"
FAILURE = "failure"


@dataclass(frozen=True)
class SeuInjection:
    """One injection point and its outcome."""

    flop: str
    cycle: int
    outcome: str


@dataclass
class SeuCampaignResult:
    """Aggregated campaign outcome."""

    injections: list[SeuInjection] = field(default_factory=list)
    n_cycles: int = 0

    @property
    def total(self) -> int:
        return len(self.injections)

    def count(self, outcome: str) -> int:
        return sum(1 for inj in self.injections if inj.outcome == outcome)

    @property
    def failure_rate(self) -> float:
        return self.count(FAILURE) / self.total if self.total else 0.0

    @property
    def masked_rate(self) -> float:
        return self.count(MASKED) / self.total if self.total else 0.0

    @property
    def latent_rate(self) -> float:
        return self.count(LATENT) / self.total if self.total else 0.0

    def avf_per_flop(self) -> dict[str, float]:
        """Per-flop failure probability (AVF) over the campaign."""
        totals: dict[str, int] = {}
        fails: dict[str, int] = {}
        for inj in self.injections:
            totals[inj.flop] = totals.get(inj.flop, 0) + 1
            if inj.outcome == FAILURE:
                fails[inj.flop] = fails.get(inj.flop, 0) + 1
        return {f: fails.get(f, 0) / totals[f] for f in totals}


def _golden_run(circuit: Circuit, stimuli: Sequence[Mapping[str, int]]):
    sim = SequentialSim(circuit, 1)
    trace = [dict(out) for out in sim.run(stimuli)]
    return trace, dict(sim.state)


def inject_seu(
    circuit: Circuit,
    stimuli: Sequence[Mapping[str, int]],
    flop: str,
    cycle: int,
    golden: tuple[list[dict[str, int]], dict[str, int]] | None = None,
) -> str:
    """Run one SEU experiment and classify the outcome."""
    if golden is None:
        golden = _golden_run(circuit, stimuli)
    golden_trace, golden_state = golden
    sim = SequentialSim(circuit, 1)
    for cyc, stim in enumerate(stimuli):
        if cyc == cycle:
            sim.flip_state(flop)
        out = sim.step(stim)
        if out != golden_trace[cyc]:
            return FAILURE
    if sim.state != golden_state:
        return LATENT
    return MASKED


def run_campaign(
    circuit: Circuit,
    stimuli: Sequence[Mapping[str, int]],
    targets: Sequence[str] | None = None,
    cycles: Sequence[int] | None = None,
    sample: int | None = None,
    seed: int = 0,
    db=None,
    workers: int = 1,
    executor: str = "auto",
    lane_width: int | None = None,
    resume: int | None = None,
) -> SeuCampaignResult:
    """SEU campaign over flops × cycles (exhaustive or sampled).

    ``sample`` caps the number of injections drawn uniformly from the
    space; ``None`` means exhaustive.  Execution runs on the unified
    campaign engine: ``db`` persists every injection to a
    :class:`repro.core.campaign.CampaignDb`, ``workers`` > 1 runs
    batches concurrently, and ``executor`` picks the strategy
    (serial/process/auto) — results are identical to the serial
    run for any combination.  ``lane_width`` overrides the engine's
    lane packing (injections simulated per packed sequential run;
    default 64, ``1`` forces the per-point reference path; every width
    runs on the one lane walker of :mod:`repro.engine.lanes`) — outcomes
    are byte-identical at every width.  ``resume``
    restarts a checkpointed campaign (requires the ``db`` it was
    recorded in) from its last committed chunk, byte-identical to an
    uninterrupted run.
    """
    from ..engine.backends import SeuBackend
    from ..engine.core import EngineConfig, run_campaign as run_engine

    kwargs = {} if lane_width is None else {"lane_width": lane_width}
    backend = SeuBackend(circuit, stimuli, targets, cycles, **kwargs)
    config = EngineConfig(workers=workers, sample=sample, seed=seed,
                          executor=executor)
    report = run_engine(backend, config, db=db, resume=resume)
    result = SeuCampaignResult(n_cycles=len(stimuli))
    result.injections = [SeuInjection(inj.location, inj.cycle, inj.outcome)
                         for inj in report.injections]
    return result


def random_workload(circuit: Circuit, n_cycles: int, seed: int = 0) -> list[dict[str, int]]:
    """Random primary-input stimulus for campaign workloads."""
    rng = random.Random(seed)
    return [
        {pi: rng.getrandbits(1) for pi in circuit.inputs}
        for _ in range(n_cycles)
    ]
