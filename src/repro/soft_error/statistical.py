"""Exhaustive vs statistical fault injection (experiment E3).

The paper: exhaustive injection is "ultimate in terms of accuracy but
very cumbersome in terms of resources", random injection "avoids
unreasonable costs while allowing for accuracy (or statistical
significance)".  This module measures that trade-off concretely: the
exhaustive campaign gives the true failure rate; sampled campaigns of
increasing size give estimates, errors and confidence intervals, plus
the Leveugle bound telling you in advance how many injections buy a
target margin.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..circuit.netlist import Circuit
from ..core.stats import wilson_interval
from ..faults.sampling import sample_size
from .seu import FAILURE, SeuCampaignResult, run_campaign


@dataclass
class AccuracyPoint:
    """One sampled-campaign data point."""

    n_injections: int
    estimate: float
    true_rate: float
    ci_low: float
    ci_high: float

    @property
    def abs_error(self) -> float:
        return abs(self.estimate - self.true_rate)

    @property
    def ci_contains_truth(self) -> bool:
        return self.ci_low <= self.true_rate <= self.ci_high


@dataclass
class StatisticalStudy:
    """Exhaustive baseline plus the sampled accuracy curve."""

    exhaustive: SeuCampaignResult
    points: list[AccuracyPoint] = field(default_factory=list)
    recommended_n: int = 0

    @property
    def true_rate(self) -> float:
        return self.exhaustive.failure_rate

    @property
    def population(self) -> int:
        return self.exhaustive.total

    def cost_ratio(self, n: int) -> float:
        """Campaign-cost fraction of a sample of size n vs exhaustive."""
        return n / self.population if self.population else 1.0


def run_study(
    circuit: Circuit,
    stimuli: Sequence[Mapping[str, int]],
    sample_sizes: Sequence[int] = (25, 50, 100, 200, 400),
    margin: float = 0.05,
    confidence: float = 0.95,
    seed: int = 0,
    db=None,
    workers: int = 1,
    executor: str = "auto",
) -> StatisticalStudy:
    """Run the exhaustive campaign, then sampled campaigns of each size.

    Sampling is done *without* re-simulating: the exhaustive result is
    the ground-truth injection table, and each sampled campaign draws
    from it — identical outcomes to re-running, at a fraction of the
    compute (the estimator only cares which injections are drawn).

    The exhaustive baseline runs on the unified campaign engine;
    ``db``/``workers`` are forwarded to it.
    """
    exhaustive = run_campaign(circuit, stimuli, db=db, workers=workers,
                              executor=executor)
    study = StatisticalStudy(exhaustive=exhaustive)
    study.recommended_n = sample_size(exhaustive.total, margin, confidence)
    rng = random.Random(seed)
    true_rate = exhaustive.failure_rate
    # the same draws as sampling exhaustive.injections, read as outcomes
    outcomes = list(exhaustive.report.injections.column("outcomes"))
    for n in sample_sizes:
        n_eff = min(n, len(outcomes))
        fails = rng.sample(outcomes, n_eff).count(FAILURE)
        est = fails / n_eff if n_eff else 0.0
        ci = wilson_interval(fails, n_eff, confidence)
        study.points.append(AccuracyPoint(n_eff, est, true_rate, ci.low, ci.high))
    return study


@dataclass
class AdaptiveEstimate:
    """Result of an engine early-stopped (statistically adaptive) campaign."""

    estimate: float
    ci_low: float
    ci_high: float
    n_injections: int
    population: int
    converged: bool

    @property
    def cost_fraction(self) -> float:
        return self.n_injections / self.population if self.population else 1.0


def adaptive_estimate(
    circuit: Circuit,
    stimuli: Sequence[Mapping[str, int]],
    margin: float = 0.05,
    confidence: float = 0.95,
    seed: int = 0,
    batch_size: int = 16,
    workers: int = 1,
    db=None,
    executor: str = "auto",
) -> AdaptiveEstimate:
    """Estimate the failure rate with the engine's Wilson early stop.

    Instead of fixing the sample size in advance (the Leveugle bound),
    the campaign shuffles the injection space (a seeded full-population
    sample) and stops as soon as the Wilson interval of the failure rate
    is narrower than ``margin`` — the DAVOS-style iterative statistical
    injection loop.
    """
    from ..engine.backends import SeuBackend
    from ..engine.core import EarlyStop, EngineConfig, run_campaign as run_engine

    backend = SeuBackend(circuit, stimuli)
    population = len(backend.targets) * len(backend.cycles)
    config = EngineConfig(
        batch_size=batch_size,
        workers=workers,
        executor=executor,
        shuffle=True,  # an early-stopped prefix must be an unbiased sample
        seed=seed,
        early_stop=EarlyStop(outcome=FAILURE, margin=margin,
                             confidence=confidence,
                             min_injections=min(population, 2 * batch_size)),
    )
    report = run_engine(backend, config, db=db)
    ci = report.confidence_interval(FAILURE, confidence)
    return AdaptiveEstimate(
        estimate=report.rate(FAILURE),
        ci_low=ci.low,
        ci_high=ci.high,
        n_injections=report.total,
        population=population,
        converged=report.converged,
    )


def cost_accuracy_rows(study: StatisticalStudy) -> list[tuple]:
    """Report rows: n, cost fraction, estimate, |error|, CI, CI covers truth."""
    rows = []
    for pt in study.points:
        rows.append((
            pt.n_injections,
            round(study.cost_ratio(pt.n_injections), 4),
            round(pt.estimate, 4),
            round(pt.abs_error, 4),
            f"[{pt.ci_low:.3f}, {pt.ci_high:.3f}]",
            "yes" if pt.ci_contains_truth else "no",
        ))
    return rows
