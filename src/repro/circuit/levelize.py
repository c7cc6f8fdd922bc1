"""Levelization, cone extraction and static slicing.

These structural queries back several experiments:

* levelization orders evaluation for the bit-parallel simulator;
* fan-out cones bound fault-effect propagation (used by the fault
  simulator and by the dynamic-slicing FI acceleration of [49]/[51]);
* fan-in cones implement cone-of-influence reduction for the
  "formal" classifier in the tool-confidence experiment.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .netlist import Circuit


def levels(circuit: Circuit) -> dict[str, int]:
    """Combinational level per net: PIs and flop Qs are level 0,
    each gate is 1 + max(level of inputs)."""
    lvl: dict[str, int] = {net: 0 for net in circuit.inputs}
    lvl.update({q: 0 for q in circuit.flops})
    for gate in circuit.topo_order():
        lvl[gate.output] = 1 + max((lvl[i] for i in gate.inputs), default=-1)
    return lvl


def depth(circuit: Circuit) -> int:
    """Maximum combinational depth (0 for an empty circuit)."""
    lvl = levels(circuit)
    return max(lvl.values(), default=0)


def fanout_cone(circuit: Circuit, seeds: Iterable[str], through_flops: bool = False) -> set[str]:
    """All nets reachable from ``seeds`` going forward.

    With ``through_flops`` the cone crosses flop D→Q boundaries, which
    models multi-cycle fault-effect propagation.
    """
    fmap = circuit.fanout_map()
    seen: set[str] = set()
    reached: set[str] = set()  # flops reached at D, not crossed
    work = deque(seeds)
    while work:
        net = work.popleft()
        if net in seen:
            continue
        seen.add(net)
        for dst in fmap.get(net, ()):
            if dst in circuit.flops and not through_flops:
                # record the flop as reached but do not continue past Q
                # (apart from ``seen``: a seed that is this Q still expands)
                reached.add(dst)
                continue
            work.append(dst)
    return seen | reached


def fanin_cone(circuit: Circuit, seeds: Iterable[str], through_flops: bool = False) -> set[str]:
    """All nets that can influence ``seeds`` going backward."""
    seen: set[str] = set()
    work = deque(seeds)
    while work:
        net = work.popleft()
        if net in seen:
            continue
        seen.add(net)
        driver = circuit.driver_of(net)
        if driver is None or driver == "input":
            continue
        if net in circuit.flops:
            if through_flops:
                work.append(circuit.flops[net].d)
            continue
        for src in circuit.gates[net].inputs:
            work.append(src)
    return seen


def observable_outputs(circuit: Circuit, net: str) -> set[str]:
    """Primary outputs (and flop D sinks, reported by flop Q name) that the
    given net can structurally reach in the current cycle."""
    cone = fanout_cone(circuit, [net])
    outs = {po for po in circuit.outputs if po in cone}
    outs |= {q for q in circuit.flops if q in cone and circuit.flops[q].d in cone}
    # a flop counts as reached when its D input is in the cone
    outs |= {q for q, flop in circuit.flops.items() if flop.d in cone}
    return outs


def cone_of_influence(circuit: Circuit, outputs: Iterable[str]) -> Circuit:
    """Extract the sub-circuit needed to compute ``outputs``.

    This is static slicing: the returned circuit contains exactly the
    gates/flops in the transitive fan-in of the requested outputs (crossing
    flop boundaries), with the original PIs that remain relevant.
    """
    keep = fanin_cone(circuit, outputs, through_flops=True)
    sliced = Circuit(f"{circuit.name}_coi")
    for pi in circuit.inputs:
        if pi in keep:
            sliced.add_input(pi)
    for q, flop in circuit.flops.items():
        if q in keep:
            sliced.add_flop(q, flop.d, flop.init)
    for gate in circuit.topo_order():
        if gate.output in keep:
            sliced.add_gate(gate.output, gate.gtype, gate.inputs)
    for po in outputs:
        sliced.add_output(po)
    sliced.validate()
    return sliced
