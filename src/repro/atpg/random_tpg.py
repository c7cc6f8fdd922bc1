"""Random test-pattern generation with fault-simulation feedback.

The classic ATPG front end: cheap random patterns knock out the easy
faults; PODEM is reserved for the random-resistant remainder.  The
returned coverage curve (patterns vs. coverage) is also an experiment
artifact — it shows the diminishing-returns knee that motivates
deterministic ATPG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..circuit.netlist import Circuit
from ..faults.models import StuckAtFault
from ..sim.fault_sim import fault_simulate_batched
from ..sim.logic import pack_patterns


@dataclass
class RandomTpgResult:
    """Patterns kept, faults they detect, and the coverage trajectory."""

    patterns: list[dict[str, int]] = field(default_factory=list)
    detected: set[StuckAtFault] = field(default_factory=set)
    remaining: list[StuckAtFault] = field(default_factory=list)
    curve: list[tuple[int, float]] = field(default_factory=list)  # (#patterns, coverage)

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.remaining)
        return len(self.detected) / total if total else 1.0


def random_tpg(
    circuit: Circuit,
    faults: list[StuckAtFault],
    max_patterns: int = 512,
    batch: int = 32,
    target_coverage: float = 1.0,
    stall_batches: int = 4,
    seed: int = 0,
    full_scan: bool = True,
) -> RandomTpgResult:
    """Generate random patterns until coverage stalls or targets are met.

    Patterns that detect at least one *new* fault are kept; batches that
    detect nothing count toward ``stall_batches``, after which generation
    stops (the random-resistant faults are left in ``remaining``).
    """
    rng = random.Random(seed)
    pseudo_inputs = list(circuit.inputs) + list(circuit.flops)
    result = RandomTpgResult(remaining=list(faults))
    total = len(faults)
    stalls = 0
    n_generated = 0

    while (n_generated < max_patterns and result.remaining
           and result.coverage < target_coverage and stalls < stall_batches):
        size = min(batch, max_patterns - n_generated)
        batch_patterns = [
            {net: rng.getrandbits(1) for net in pseudo_inputs} for _ in range(size)
        ]
        n_generated += size
        packed = pack_patterns(batch_patterns)
        sim = fault_simulate_batched(circuit, result.remaining,
                                     [(packed, size)], state=packed,
                                     full_scan=full_scan, drop_detected=False)
        if not sim.detected:
            stalls += 1
            result.curve.append((n_generated, result.coverage))
            continue
        stalls = 0
        useful_pattern_idx: set[int] = set()
        for fault, det_mask in sim.detected.items():
            result.detected.add(fault)
            useful_pattern_idx.add((det_mask & -det_mask).bit_length() - 1)
        result.remaining = list(sim.undetected)
        for idx in sorted(useful_pattern_idx):
            result.patterns.append(batch_patterns[idx])
        result.curve.append((n_generated, len(result.detected) / total if total else 1.0))
    return result
