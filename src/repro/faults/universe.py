"""Fault-universe generation and equivalence collapsing.

``all_stuck_at`` enumerates the classic single-stuck-at universe: two
faults per stem plus two per fanout branch.  ``collapse`` merges faults
that are provably equivalent by local gate rules (Mc Cluskey's classic
structural equivalences), returning representatives and the equivalence
classes — the fault simulator and ATPG then only pay for one fault per
class, and coverage accounting credits the whole class.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from ..circuit.netlist import Circuit, GateType
from .models import Line, StuckAtFault


def _sites(circuit: Circuit) -> tuple[list[Line], list[GateType], array, array]:
    """The fault sites in universe order (stems, then the fanout branches
    of gate pins, then of flop Ds), and per gate input pin its gate's type
    and output stem and the site it reads: the branch when the source fans
    out, else its stem (-1 if nothing drives it).  A primary output counts
    as one more consumer of its net: an output that also feeds a gate pin
    or a flop D fans out, and that pin is a branch of its own."""
    lines = [Line(net) for net in circuit.nets]
    stem = {line.net: i for i, line in enumerate(lines)}
    fmap = circuit.fanout_map()
    outputs = set(circuit.outputs)
    # columns, not a tuple per pin: no garbage among the kept lines
    kinds, outs, reads = [], array("q"), array("q")
    for gate in circuit.gates.values():
        for pin, src in enumerate(gate.inputs):
            kinds.append(gate.gtype)
            outs.append(stem[gate.output])
            if len(fmap.get(src, ())) + (src in outputs) > 1:
                reads.append(len(lines))
                lines.append(Line(src, gate.output, pin))
            else:
                reads.append(stem.get(src, -1))
    for q, flop in circuit.flops.items():
        if len(fmap.get(flop.d, ())) + (flop.d in outputs) > 1:
            lines.append(Line(flop.d, q, 0))
    return lines, kinds, outs, reads


def lines_of(circuit: Circuit) -> list[Line]:
    """All fault sites: stems for every net, branches for fanout > 1 (a
    primary output counting as a consumer)."""
    return _sites(circuit)[0]


def check_sites(circuit: Circuit, faults: Iterable[StuckAtFault],
                observed: Iterable[str] = ()) -> None:
    """Raise ``ValueError`` unless every fault sits on a line of
    ``circuit`` (its net exists; a branch's sink is a gate or a flop)
    and every ``observed`` net exists.  The simulators read a missing
    net as constant 0, so a misspelt site would be classified —
    undetected, masked, safe — instead of reported."""
    nets = set(circuit.nets)
    unknown = [net for net in observed if net not in nets]
    if unknown:
        raise ValueError(f"observed nets {unknown} are not nets of "
                         f"{circuit.name}")
    off = [fault.describe() for fault in faults
           if fault.line.net not in nets or not (
               fault.line.is_stem or fault.line.sink in circuit.gates
               or fault.line.sink in circuit.flops)]
    if off:
        raise ValueError(f"{len(off)} fault(s) are not on lines of "
                         f"{circuit.name}: {off[:5]}")


def all_stuck_at(circuit: Circuit) -> list[StuckAtFault]:
    """The full single-stuck-at universe of a circuit."""
    return [StuckAtFault(line, value)
            for line in lines_of(circuit) for value in (0, 1)]


#: The ``(input, output)`` stuck values each gate type makes equivalent.
_RULES = {GateType.AND: ((0, 0),), GateType.NAND: ((0, 1),),
          GateType.OR: ((1, 1),), GateType.NOR: ((1, 0),),
          GateType.BUF: ((0, 0), (1, 1)), GateType.NOT: ((0, 1), (1, 0))}


def collapse(circuit: Circuit) -> tuple[list[StuckAtFault], dict[StuckAtFault, list[StuckAtFault]]]:
    """Equivalence-collapse the stuck-at universe.

    Returns ``(representatives, classes)`` where ``classes`` maps each
    representative, its class's smallest fault, to the sorted faults it
    stands for (itself first), in order of appearance in the universe.

    Rules applied (all exact equivalences):

    * AND: any input s-a-0 ≡ output s-a-0;  NAND: input s-a-0 ≡ output s-a-1
    * OR:  any input s-a-1 ≡ output s-a-1;  NOR: input s-a-1 ≡ output s-a-0
    * BUF: input s-a-v ≡ output s-a-v;      NOT: input s-a-v ≡ output s-a-(1-v)

    A pin never reads a primary output's stem: the output counts as a
    consumer, so such a pin is a branch, and the output still observes
    the stem's fault before the gate.

    Faults are ids ``2 * rank + value``, a line's rank in ``Line._key``
    order (stable sorts by pin, sink, then net: no key tuple per line).
    Id order is fault order, so a union keeps the smaller root and one
    ascending pass fills each class from its root on, already sorted.
    """
    lines, kinds, outs, reads = _sites(circuit)
    order = sorted(range(len(lines)), key=lambda site: -1
                   if lines[site].pin is None else lines[site].pin)
    order.sort(key=lambda site: lines[site].sink or "")
    order.sort(key=lambda site: lines[site].net)
    base = array("q", bytes(8 * len(lines)))
    for rank, site in enumerate(order):
        base[site] = 2 * rank
    # built in circuit order: in name order the PPSFP sweep ran ~5 % slower
    universe = [StuckAtFault(line, value) for line in lines for value in (0, 1)]
    faults = [universe[2 * site + value] for site in order for value in (0, 1)]
    parent = array("q", range(len(faults)))

    def find(x: int) -> int:
        while parent[x] != x:  # path halving keeps parent[x] <= x
            parent[x] = x = parent[parent[x]]
        return x

    for gtype, out, site in zip(kinds, outs, reads):
        if site < 0:
            continue
        for v_in, v_out in _RULES.get(gtype, ()):
            a, b = find(base[site] + v_in), find(base[out] + v_out)
            parent[max(a, b)] = min(a, b)

    groups: list[list[StuckAtFault] | None] = [None] * len(faults)
    for fid, fault in enumerate(faults):
        parent[fid] = root = parent[parent[fid]]
        if root == fid:
            groups[fid] = []
        groups[root].append(fault)
    reps = [faults[fid] for fid, root in enumerate(parent) if fid == root]
    classes = {}
    for root in (parent[fid + value] for fid in base for value in (0, 1)):
        if groups[root] is not None:
            classes[faults[root]], groups[root] = groups[root], None
    return reps, classes
