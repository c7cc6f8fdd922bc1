"""SETs in clock distribution networks (experiment E4, after [54]).

A particle strike on a clock buffer produces a spurious or eaten clock
edge for every flop in that buffer's subtree.  Unlike a data-path SET —
which must win three masking lotteries to matter — a captured spurious
edge corrupts *every* downstream flop whose D differs from its Q at
strike time.  [54]'s headline observation is exactly this asymmetry, plus
the depth effect: strikes near the root hit exponentially more flops.

The model: a balanced binary clock tree (H-tree abstraction) over the
circuit's flops.  A strike at level L affects ``leaves/2^L`` of the
flops.  A spurious edge at a uniformly random time inside the cycle
captures the *current* combinational D value; the flop ends up wrong iff
that mid-cycle D differs from the value it held (i.e. the flop was about
to toggle — its switching activity)."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..circuit.netlist import Circuit
from ..sim.sequential import SequentialSim


@dataclass(frozen=True)
class ClockTree:
    """Balanced binary clock tree over a circuit's flops."""

    depth: int
    leaf_groups: tuple[tuple[str, ...], ...]

    def buffers_at_level(self, level: int) -> int:
        return 1 << level

    def flops_under(self, level: int, index: int) -> list[str]:
        """Flops in the subtree of buffer ``index`` at ``level``."""
        span = len(self.leaf_groups) >> level
        start = index * span
        out: list[str] = []
        for group in self.leaf_groups[start:start + span]:
            out.extend(group)
        return out


def build_clock_tree(circuit: Circuit, depth: int = 3) -> ClockTree:
    """Partition the circuit's flops under a depth-``depth`` binary tree."""
    flops = sorted(circuit.flops)
    n_leaves = 1 << depth
    groups: list[tuple[str, ...]] = []
    per = max(1, math.ceil(len(flops) / n_leaves))
    for i in range(n_leaves):
        groups.append(tuple(flops[i * per:(i + 1) * per]))
    return ClockTree(depth, tuple(groups))


@dataclass
class CdnSetResult:
    """Per-level CDN SET failure statistics."""

    level_failure_rate: dict[int, float] = field(default_factory=dict)
    level_flops_hit: dict[int, float] = field(default_factory=dict)
    datapath_failure_rate: float = 0.0

    def amplification(self, level: int) -> float:
        """CDN-vs-datapath failure ratio at a tree level."""
        if self.datapath_failure_rate <= 0:
            return math.inf if self.level_failure_rate.get(level, 0) > 0 else 1.0
        return self.level_failure_rate.get(level, 0.0) / self.datapath_failure_rate


def _spurious_capture_errors(
    state: Mapping[str, int],
    next_state: Mapping[str, int],
    affected: Sequence[str],
) -> int:
    """Flops (among affected) that would latch a wrong value mid-cycle.

    A spurious edge captures the current D; the flop is corrupted iff the
    mid-cycle D differs from its current Q (it prematurely toggles).  A
    cycle's D values are the state the clock edge loads, so the
    fault-free replay's next state holds them: no re-simulation.
    """
    return sum(1 for q in affected if (next_state[q] ^ state[q]) & 1)


def run_cdn_campaign(
    circuit: Circuit,
    stimuli: Sequence[Mapping[str, int]],
    tree: ClockTree | None = None,
    strikes_per_level: int = 64,
    seed: int = 0,
) -> CdnSetResult:
    """Monte-Carlo CDN SET campaign across tree levels.

    Each strike picks a random cycle and a random buffer at the level;
    the failure metric is the probability that at least one flop is
    corrupted (a functional upset of the machine state).  The data-path
    baseline is the probability that one random flop's D≠Q mid-cycle —
    i.e. a single-flop spurious capture, the best case a data-path SET
    reaching one flop can achieve.
    """
    if not stimuli:
        raise ValueError("run_cdn_campaign needs at least one stimulus")
    if strikes_per_level < 1:
        raise ValueError(
            f"strikes_per_level must be >= 1, got {strikes_per_level}")
    if tree is None:
        tree = build_clock_tree(circuit)
    rng = random.Random(seed)
    result = CdnSetResult()

    # replay states for each cycle once; states[cyc + 1] is the D value
    # every flop sees during cycle cyc
    sim = SequentialSim(circuit, 1)
    states: list[dict[str, int]] = [sim.state]
    for stim in stimuli:
        sim.step(stim)  # rebinds sim.state, never mutates it
        states.append(sim.state)

    flop_list = sorted(circuit.flops)
    for level in range(tree.depth + 1):
        upsets = 0
        flops_hit_acc = 0
        for _ in range(strikes_per_level):
            cyc = rng.randrange(len(stimuli))
            buf = rng.randrange(tree.buffers_at_level(level))
            affected = tree.flops_under(level, buf)
            errors = _spurious_capture_errors(
                states[cyc], states[cyc + 1], affected)
            flops_hit_acc += errors
            if errors:
                upsets += 1
        result.level_failure_rate[level] = upsets / strikes_per_level
        result.level_flops_hit[level] = flops_hit_acc / strikes_per_level

    # data-path baseline: single random flop capture
    upsets = 0
    trials = strikes_per_level * max(1, tree.depth)
    for _ in range(trials):
        cyc = rng.randrange(len(stimuli))
        flop = rng.choice(flop_list)
        errors = _spurious_capture_errors(states[cyc], states[cyc + 1],
                                          [flop])
        if errors:
            upsets += 1
    result.datapath_failure_rate = upsets / trials
    return result


def failure_rate_vs_pulse_width(
    widths: Sequence[float],
    clock_period: float = 10.0,
    danger_window: float = 0.5,
) -> list[tuple[float, float]]:
    """Analytic capture probability of a clock glitch vs its width.

    A clock-path pulse becomes a spurious edge when it exceeds the sink
    flop's minimum pulse width (``danger_window``); wider pulses are
    captured with probability growing with width over the period — the
    rising curve [54] reports.
    """
    out = []
    for w in widths:
        if w <= danger_window:
            out.append((w, 0.0))
        else:
            out.append((w, min(1.0, (w - danger_window + danger_window) / clock_period)))
    return out
