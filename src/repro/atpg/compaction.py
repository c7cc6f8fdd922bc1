"""Static test-set compaction.

Given patterns and their fault-detection masks, keep a minimal subset
preserving coverage.  Greedy set cover with an essential-pattern seed is
the standard approach; reverse-order fault simulation is offered as the
cheaper alternative.  Compaction matters wherever test *time* is the
cost metric — the RSN test-duration experiments reuse the same
machinery on scan-vector sequences.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Sequence

from ..circuit.netlist import Circuit
from ..faults.models import StuckAtFault
from ..sim.fault_sim import fault_simulate_batched
from ..sim.logic import pack_patterns


def compact_greedy(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    patterns: Sequence[dict[str, int]],
    full_scan: bool = True,
) -> list[dict[str, int]]:
    """Greedy set-cover compaction.

    Fault-simulates the whole set once, then repeatedly keeps the pattern
    covering the most not-yet-covered faults (ties broken by pattern
    order, so the result is deterministic).  Gains are re-counted
    lazily, from a heap of the last counts: only the patterns that reach
    the top are.
    """
    if not patterns:
        return []
    packed = pack_patterns(patterns)
    n = len(patterns)
    sim = fault_simulate_batched(circuit, faults, [(packed, n)], state=packed,
                                 full_scan=full_scan, drop_detected=False)
    # pattern index -> set of detected faults
    by_pattern: dict[int, set[StuckAtFault]] = {i: set() for i in range(n)}
    for fault, mask in sim.detected.items():
        bits = mask
        while bits:
            low = bits & -bits
            by_pattern[low.bit_length() - 1].add(fault)
            bits ^= low
    uncovered = set(sim.detected)
    kept: list[int] = []
    # lazy greedy: a pattern's gain only shrinks as faults get covered,
    # so a popped entry whose gain is still current beats every stale
    # one below it (ties go to the lower index, as in the heap order)
    heap = [(-len(hits), i) for i, hits in by_pattern.items() if hits]
    heapify(heap)
    while uncovered and heap:
        stale, best = heappop(heap)
        gain = by_pattern[best] & uncovered
        if len(gain) != -stale:
            if gain:
                heappush(heap, (-len(gain), best))
            continue
        kept.append(best)
        uncovered -= gain
    kept.sort()
    return [dict(patterns[i]) for i in kept]


def compact_reverse(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    patterns: Sequence[dict[str, int]],
    full_scan: bool = True,
) -> list[dict[str, int]]:
    """Reverse-order compaction.

    Walk patterns from last to first; keep a pattern only if it detects a
    fault not detected by the already-kept ones.  Cheaper than set cover
    and usually nearly as small because late ATPG patterns target hard
    faults.
    """
    if not patterns:
        return []
    packed = pack_patterns(patterns)
    n = len(patterns)
    sim = fault_simulate_batched(circuit, faults, [(packed, n)], state=packed,
                                 full_scan=full_scan, drop_detected=False)
    remaining = set(sim.detected)
    kept: list[int] = []
    for i in range(n - 1, -1, -1):
        newly = {f for f in remaining if (sim.detected[f] >> i) & 1}
        if newly:
            kept.append(i)
            remaining -= newly
        if not remaining:
            break
    kept.sort()
    return [dict(patterns[i]) for i in kept]
