"""Spatial and temporal redundancy schemes.

TMR (triple modular redundancy with majority voting), DMR/lockstep
(duplicate-and-compare — detection without correction, the AutoSoC CPU
safety mechanism) and temporal re-execution.  All are expressed over
plain callables so the same machinery wraps gate-level circuits, ISA
simulators or arbitrary Python computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def vote_majority(values: Sequence[T]) -> T:
    """2-of-3 (or n-of-m) majority vote; raises if no majority exists."""
    counts: dict[T, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    winner, n = max(counts.items(), key=lambda kv: kv[1])
    if n * 2 <= len(values):
        raise ValueError("no majority among replica outputs")
    return winner


@dataclass
class TmrStats:
    total: int = 0
    voted_out: int = 0  # disagreements masked by the voter
    failures: int = 0   # no-majority events


class Tmr:
    """Triple modular redundancy around three replica callables."""

    def __init__(self, replicas: Sequence[Callable[..., T]]) -> None:
        if len(replicas) != 3:
            raise ValueError("TMR requires exactly three replicas")
        self.replicas = list(replicas)
        self.stats = TmrStats()

    def __call__(self, *args, **kwargs) -> T:
        outs = [r(*args, **kwargs) for r in self.replicas]
        self.stats.total += 1
        if len(set(map(repr, outs))) > 1:
            try:
                result = vote_majority(outs)
                self.stats.voted_out += 1
                return result
            except ValueError:
                self.stats.failures += 1
                raise
        return outs[0]


@dataclass
class LockstepEvent:
    """A divergence caught by the lockstep comparator."""

    step: int
    main_output: object
    shadow_output: object


class Lockstep:
    """Dual modular redundancy with cycle-by-cycle comparison.

    ``delay`` models delayed lockstep (the shadow core running N steps
    behind, standard practice against common-mode transients): outputs
    are compared ``delay`` steps apart, so detection latency grows by the
    same amount — the latency/robustness trade the AutoSoC experiment
    measures.
    """

    def __init__(self, main: Callable[[int], T], shadow: Callable[[int], T],
                 delay: int = 0) -> None:
        self.main = main
        self.shadow = shadow
        self.delay = delay
        self.events: list[LockstepEvent] = []
        self._main_history: list[T] = []
        self.steps = 0

    def step(self) -> tuple[T, bool]:
        """Advance both cores one step; returns (main output, mismatch?)."""
        idx = self.steps
        main_out = self.main(idx)
        self._main_history.append(main_out)
        mismatch = False
        shadow_idx = idx - self.delay
        if shadow_idx >= 0:
            shadow_out = self.shadow(shadow_idx)
            expected = self._main_history[shadow_idx]
            if repr(shadow_out) != repr(expected):
                mismatch = True
                self.events.append(LockstepEvent(idx, expected, shadow_out))
        self.steps += 1
        return main_out, mismatch

    @property
    def detected(self) -> bool:
        return bool(self.events)

    @property
    def detection_latency(self) -> int | None:
        """Steps from divergence to first comparator hit (None if clean)."""
        if not self.events:
            return None
        return self.delay


def temporal_redundancy(fn: Callable[[], T], runs: int = 2) -> tuple[T, bool]:
    """Re-execute ``fn`` and compare: returns (first result, consistent?).

    Catches transient faults that do not persist across executions; the
    cheapest detection scheme when time redundancy is affordable.
    """
    if runs < 2:
        raise ValueError("temporal redundancy needs >= 2 runs")
    results = [fn() for _ in range(runs)]
    consistent = all(repr(r) == repr(results[0]) for r in results[1:])
    return results[0], consistent


@dataclass
class ScrubbingSchedule:
    """Periodic memory scrubbing: repair accumulation of soft errors.

    With upset rate λ per word per cycle and scrub period P, the chance a
    word accumulates 2+ upsets between scrubs (defeating SEC-DED) is
    ≈ (λP)²/2 — quadratic in the period, which is why the fault manager
    shortens P when the SEU monitor reports flux spikes.
    """

    period_cycles: int
    upset_rate_per_cycle: float = 1e-9

    def double_error_probability(self) -> float:
        lam = self.upset_rate_per_cycle * self.period_cycles
        return 0.5 * lam * lam
