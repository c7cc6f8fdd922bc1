"""SoC-level fault-injection campaigns (the E17 experiment).

Injects per-unit CPU transients and RAM SEUs into AutoSoC runs across
safety configurations and classifies each outcome:

* ``masked``        — application result correct, no mechanism fired;
* ``sdc``           — silent data corruption: oracle fails, nothing fired;
* ``detected_lockstep`` / ``corrected_ecc`` — a mechanism caught it
  (for lockstep also *when*: the detection latency);
* ``hang``          — the run did not halt within its cycle budget.

The campaign table per configuration is the AutoSoC safety-mechanism
comparison the paper's benchmark motivates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .apps import Application
from .cpu import UNITS, UnitFault
from .soc import AutoSoC, SocConfig

MASKED = "masked"
SDC = "sdc"
DETECTED_LOCKSTEP = "detected_lockstep"
CORRECTED_ECC = "corrected_ecc"
DETECTED_ECC = "detected_ecc"
HANG = "hang"

OUTCOMES = (MASKED, SDC, DETECTED_LOCKSTEP, CORRECTED_ECC, DETECTED_ECC, HANG)


@dataclass(frozen=True)
class SocInjection:
    """One experiment: either a CPU unit transient or a RAM bit flip."""

    kind: str              # "cpu" | "ram"
    unit: str = ""         # for cpu faults
    bit: int = 0
    cycle: int = 0
    ram_offset: int = 0


@dataclass
class SocCampaignResult:
    """Outcome histogram plus detection latencies."""

    config: str
    app: str
    outcomes: dict[str, int] = field(default_factory=lambda: {o: 0 for o in OUTCOMES})
    lockstep_latencies: list[int] = field(default_factory=list)
    total: int = 0

    def rate(self, outcome: str) -> float:
        return self.outcomes.get(outcome, 0) / self.total if self.total else 0.0

    @property
    def dangerous_rate(self) -> float:
        """SDC + hang: the outcomes a safety case must drive to ~0."""
        return self.rate(SDC) + self.rate(HANG)

    @property
    def mean_detection_latency(self) -> float:
        if not self.lockstep_latencies:
            return 0.0
        return sum(self.lockstep_latencies) / len(self.lockstep_latencies)


def make_injections(
    app: Application,
    n_cpu: int = 40,
    n_ram: int = 20,
    seed: int = 0,
    golden_cycles: int | None = None,
) -> list[SocInjection]:
    """A mixed injection list sized to the app's golden run length."""
    rng = random.Random(seed)
    if golden_cycles is None:
        soc = AutoSoC(app.program(), SocConfig.QM)
        golden_cycles = soc.run(app.max_cycles).cycles
    horizon = max(2, golden_cycles - 1)
    injections = [
        SocInjection("cpu", unit=rng.choice(UNITS), bit=rng.randrange(32),
                     cycle=rng.randrange(horizon))
        for _ in range(n_cpu)
    ]
    injections += [
        SocInjection("ram", ram_offset=rng.randrange(16),
                     bit=rng.randrange(32), cycle=rng.randrange(horizon))
        for _ in range(n_ram)
    ]
    return injections


def run_injection(
    app: Application,
    config: SocConfig,
    injection: SocInjection,
) -> tuple[str, int | None]:
    """Execute one faulted run; returns (outcome, lockstep latency or None)."""
    soc = AutoSoC(app.program(), config)
    if injection.kind == "cpu":
        soc.inject_cpu_fault(UnitFault(
            injection.unit, "transient", injection.bit,
            from_cycle=injection.cycle, to_cycle=injection.cycle + 1))
        result = soc.run(app.max_cycles)
    else:
        # run to the injection cycle, flip the RAM bit, continue
        while not soc.main.halted and soc.main.cycle < injection.cycle:
            soc.main.step()
            if soc.shadow is not None:
                soc.shadow.step()
                if (soc.lockstep_mismatch_cycle is None and soc._diverged()):
                    soc.lockstep_mismatch_cycle = soc.main.cycle
        soc.bus.inject_ram_bitflip(injection.ram_offset, injection.bit)
        result = soc.run(app.max_cycles)

    correct = app.oracle(result)
    latency = None
    if result.lockstep_mismatch_cycle is not None:
        latency = result.lockstep_mismatch_cycle - injection.cycle
    if not result.halted:
        outcome = HANG
    elif correct:
        if result.lockstep_mismatch_cycle is not None:
            outcome = DETECTED_LOCKSTEP  # caught, and outcome stayed clean
        elif injection.kind == "ram" and result.ecc_corrections > 0:
            outcome = CORRECTED_ECC
        else:
            outcome = MASKED
    else:
        if result.lockstep_mismatch_cycle is not None:
            outcome = DETECTED_LOCKSTEP  # wrong result but flagged in time
        elif result.ecc_uncorrectable > 0:
            outcome = DETECTED_ECC
        else:
            outcome = SDC
    return outcome, latency


def run_campaign(
    app: Application,
    config: SocConfig,
    injections: list[SocInjection],
    db=None,
    workers: int = 1,
    executor: str = "auto",
) -> SocCampaignResult:
    """Full campaign for one (application, configuration) pair.

    Executes on the unified campaign engine: ``db`` streams every
    injection into a :class:`repro.core.campaign.CampaignDb`, and
    ``workers`` > 1 runs batches concurrently (faulted SoC runs are
    independent; ``executor`` picks serial, processes or auto) with
    results identical to the serial run.
    """
    from ..engine.core import EngineConfig, run_campaign as run_engine
    from ..engine.workloads import SocBackend

    backend = SocBackend(app, config, injections)
    report = run_engine(backend,
                        EngineConfig(workers=workers, batch_size=8,
                                     executor=executor),
                        db=db)
    view = report.injections
    latencies = [latency for outcome, latency in zip(view.column("outcomes"),
                                                     view.column("details"))
                 if outcome == DETECTED_LOCKSTEP and latency is not None]
    result = SocCampaignResult(config.value, app.name,
                               lockstep_latencies=latencies,
                               total=report.executed)
    result.outcomes.update(report.outcomes)
    return result


def compare_configurations(
    app: Application,
    configs: list[SocConfig],
    n_cpu: int = 40,
    n_ram: int = 20,
    seed: int = 0,
    db=None,
    workers: int = 1,
    executor: str = "auto",
) -> dict[SocConfig, SocCampaignResult]:
    """The same injection list replayed against every configuration."""
    injections = make_injections(app, n_cpu, n_ram, seed)
    return {cfg: run_campaign(app, cfg, injections, db=db, workers=workers,
                              executor=executor)
            for cfg in configs}
