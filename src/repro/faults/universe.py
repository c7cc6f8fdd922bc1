"""Fault-universe generation and equivalence collapsing.

``all_stuck_at`` enumerates the classic single-stuck-at universe: two
faults per stem plus two per fanout branch.  ``collapse`` merges faults
that are provably equivalent by local gate rules (Mc Cluskey's classic
structural equivalences), returning representatives and the equivalence
classes — the fault simulator and ATPG then only pay for one fault per
class, and coverage accounting credits the whole class.
"""

from __future__ import annotations

from typing import Iterable

from ..circuit.netlist import Circuit, GateType
from .models import Line, StuckAtFault


def lines_of(circuit: Circuit) -> list[Line]:
    """All fault sites: stems for every net, branches for fanout > 1."""
    sites: list[Line] = [Line(net) for net in circuit.nets]
    fmap = circuit.fanout_map()
    for gate in circuit.gates.values():
        for pin, src in enumerate(gate.inputs):
            if len(fmap.get(src, ())) > 1:
                sites.append(Line(src, gate.output, pin))
    for q, flop in circuit.flops.items():
        if len(fmap.get(flop.d, ())) > 1:
            sites.append(Line(flop.d, q, 0))
    return sites


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
    faults = []
    for line in lines_of(circuit):
        faults.append(StuckAtFault(line, 0))
        faults.append(StuckAtFault(line, 1))
    return faults


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[StuckAtFault, StuckAtFault] = {}

    def find(self, item: StuckAtFault) -> StuckAtFault:
        parent = self.parent.setdefault(item, item)
        if parent is item:
            return item
        root = self.find(parent)
        self.parent[item] = root
        return root

    def union(self, a: StuckAtFault, b: StuckAtFault) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic representative: the smaller by ordering
            lo, hi = sorted((ra, rb))
            self.parent[hi] = lo


def _input_line(circuit: Circuit, gate_out: str, pin: int, src: str) -> Line:
    """Line of a gate input: the branch if the source has fanout, else the stem."""
    if len(circuit.fanout_map().get(src, ())) > 1:
        return Line(src, gate_out, pin)
    return Line(src)


def collapse(circuit: Circuit) -> tuple[list[StuckAtFault], dict[StuckAtFault, list[StuckAtFault]]]:
    """Equivalence-collapse the stuck-at universe.

    Returns ``(representatives, classes)`` where ``classes`` maps each
    representative to every fault it stands for (including itself).

    Rules applied (all exact equivalences):

    * AND: any input s-a-0 ≡ output s-a-0;  NAND: input s-a-0 ≡ output s-a-1
    * OR:  any input s-a-1 ≡ output s-a-1;  NOR: input s-a-1 ≡ output s-a-0
    * BUF: input s-a-v ≡ output s-a-v;      NOT: input s-a-v ≡ output s-a-(1-v)
    """
    universe = all_stuck_at(circuit)
    uf = _UnionFind()
    for fault in universe:
        uf.find(fault)

    for gate in circuit.gates.values():
        out_stem = Line(gate.output)
        for pin, src in enumerate(gate.inputs):
            in_line = _input_line(circuit, gate.output, pin, src)
            if gate.gtype is GateType.AND:
                uf.union(StuckAtFault(in_line, 0), StuckAtFault(out_stem, 0))
            elif gate.gtype is GateType.NAND:
                uf.union(StuckAtFault(in_line, 0), StuckAtFault(out_stem, 1))
            elif gate.gtype is GateType.OR:
                uf.union(StuckAtFault(in_line, 1), StuckAtFault(out_stem, 1))
            elif gate.gtype is GateType.NOR:
                uf.union(StuckAtFault(in_line, 1), StuckAtFault(out_stem, 0))
            elif gate.gtype is GateType.BUF:
                uf.union(StuckAtFault(in_line, 0), StuckAtFault(out_stem, 0))
                uf.union(StuckAtFault(in_line, 1), StuckAtFault(out_stem, 1))
            elif gate.gtype is GateType.NOT:
                uf.union(StuckAtFault(in_line, 0), StuckAtFault(out_stem, 1))
                uf.union(StuckAtFault(in_line, 1), StuckAtFault(out_stem, 0))
            # XOR/XNOR/CONST have no local stuck-at equivalences

    classes: dict[StuckAtFault, list[StuckAtFault]] = {}
    for fault in universe:
        classes.setdefault(uf.find(fault), []).append(fault)
    reps = sorted(classes)
    for members in classes.values():
        members.sort()
    return reps, classes


def collapse_ratio(circuit: Circuit) -> float:
    """|collapsed| / |universe| — a standard quality metric of collapsing."""
    reps, classes = collapse(circuit)
    total = sum(len(v) for v in classes.values())
    return len(reps) / total if total else 1.0
