"""Bit-parallel and three-valued logic simulation.

The core trick: a net's value across ``n`` patterns is a single Python
int whose bit *i* is the net's value under pattern *i*.  Gate evaluation
is then one bitwise expression per gate regardless of pattern count,
which makes parallel-pattern fault simulation (PPSFP) essentially free.

Three-valued (0/1/X) simulation encodes each net as ``None`` (X) or an
``int`` and powers the ATPG's implication engine and the RSN tools.

Full-circuit evaluations run on the compiled simulation core
(:mod:`repro.sim.compiled`) by default: the circuit is translated once
into a generated straight-line function and cached.  The gate-by-gate
dispatch below remains the reference interpreter — byte-identical, and
selected by ``RESCUE_NO_COMPILE=1`` or ``compiled.disabled()``.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from ..circuit.netlist import Circuit, Gate, GateType
from . import compiled as _compiled


def mask_of(n_patterns: int) -> int:
    """All-ones mask for ``n_patterns`` packed patterns."""
    return (1 << n_patterns) - 1


# Packed gate evaluation dispatches through a module-level table: one
# dict lookup replaces the GateType if/elif chain, and the 1–2 input
# shapes (the vast majority of library gates) index ``gate.inputs``
# directly instead of materializing an intermediate list.
def _eval_and(gate: Gate, values: Mapping[str, int], mask: int) -> int:
    ins = gate.inputs
    if len(ins) == 2:
        return values[ins[0]] & values[ins[1]]
    acc = values[ins[0]]
    for name in ins[1:]:
        acc &= values[name]
    return acc


def _eval_nand(gate: Gate, values: Mapping[str, int], mask: int) -> int:
    return ~_eval_and(gate, values, mask) & mask


def _eval_or(gate: Gate, values: Mapping[str, int], mask: int) -> int:
    ins = gate.inputs
    if len(ins) == 2:
        return values[ins[0]] | values[ins[1]]
    acc = values[ins[0]]
    for name in ins[1:]:
        acc |= values[name]
    return acc


def _eval_nor(gate: Gate, values: Mapping[str, int], mask: int) -> int:
    return ~_eval_or(gate, values, mask) & mask


def _eval_xor(gate: Gate, values: Mapping[str, int], mask: int) -> int:
    ins = gate.inputs
    if len(ins) == 2:
        return values[ins[0]] ^ values[ins[1]]
    acc = values[ins[0]]
    for name in ins[1:]:
        acc ^= values[name]
    return acc


def _eval_xnor(gate: Gate, values: Mapping[str, int], mask: int) -> int:
    return ~_eval_xor(gate, values, mask) & mask


def _eval_buf(gate: Gate, values: Mapping[str, int], mask: int) -> int:
    return values[gate.inputs[0]]


def _eval_not(gate: Gate, values: Mapping[str, int], mask: int) -> int:
    return ~values[gate.inputs[0]] & mask


def _eval_const0(gate: Gate, values: Mapping[str, int], mask: int) -> int:
    return 0


def _eval_const1(gate: Gate, values: Mapping[str, int], mask: int) -> int:
    return mask


GATE_EVAL = {
    GateType.AND: _eval_and,
    GateType.NAND: _eval_nand,
    GateType.OR: _eval_or,
    GateType.NOR: _eval_nor,
    GateType.XOR: _eval_xor,
    GateType.XNOR: _eval_xnor,
    GateType.BUF: _eval_buf,
    GateType.NOT: _eval_not,
    GateType.CONST0: _eval_const0,
    GateType.CONST1: _eval_const1,
}


def eval_gate(gate: Gate, values: Mapping[str, int], mask: int) -> int:
    """Evaluate one gate over packed values."""
    return GATE_EVAL[gate.gtype](gate, values, mask)


def simulate(
    circuit: Circuit,
    pi_values: Mapping[str, int],
    n_patterns: int,
    state: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """One combinational evaluation over packed patterns.

    ``pi_values`` maps each primary input to a packed int; ``state`` maps
    flop Q nets to packed ints (defaults to each flop's init value
    replicated across patterns).  Returns packed values for every net.

    Runs on the circuit's compiled program unless ``RESCUE_NO_COMPILE=1``
    (or ``compiled.disabled()``) selects the reference interpreter; both
    paths return identical values.
    """
    program = _compiled.circuit_program(circuit)
    if program is not None:
        return program.run(pi_values, n_patterns, state)
    mask = mask_of(n_patterns)
    values: dict[str, int] = {}
    for pi in circuit.inputs:
        values[pi] = pi_values.get(pi, 0) & mask
    for q, flop in circuit.flops.items():
        if state is not None and q in state:
            values[q] = state[q] & mask
        else:
            values[q] = mask if flop.init else 0
    evaluators = GATE_EVAL
    for gate in circuit.topo_order():
        values[gate.output] = evaluators[gate.gtype](gate, values, mask)
    return values


def pack_patterns(patterns: Sequence[Mapping[str, int]]) -> dict[str, int]:
    """Pack per-pattern dicts (net -> 0/1) into packed ints (bit i = pattern i)."""
    packed: dict[str, int] = {}
    for i, pattern in enumerate(patterns):
        for net, bit in pattern.items():
            if bit:
                packed[net] = packed.get(net, 0) | (1 << i)
            else:
                packed.setdefault(net, 0)
    return packed


def unpack_patterns(packed: Mapping[str, int], n_patterns: int) -> list[dict[str, int]]:
    """Inverse of :func:`pack_patterns`."""
    return [
        {net: (val >> i) & 1 for net, val in packed.items()}
        for i in range(n_patterns)
    ]


def random_patterns(nets: Iterable[str], n_patterns: int, seed: int = 0) -> dict[str, int]:
    """Uniform random packed patterns for the given nets (deterministic)."""
    rng = random.Random(seed)
    return {net: rng.getrandbits(n_patterns) for net in nets}


def exhaustive_patterns(nets: Sequence[str]) -> tuple[dict[str, int], int]:
    """All 2**len(nets) input combinations, packed.

    Returns ``(packed, n_patterns)``.  Net *k* carries the k-th bit of the
    pattern index, so pattern *i* assigns net *k* the bit ``(i >> k) & 1``.
    """
    n = 1 << len(nets)
    packed = {}
    for k, net in enumerate(nets):
        val = 0
        for i in range(n):
            if (i >> k) & 1:
                val |= 1 << i
        packed[net] = val
    return packed, n


# ----------------------------------------------------------------------
# three-valued simulation
# ----------------------------------------------------------------------
X = None  # the unknown value


# Like the 2-valued path, 3-valued evaluation dispatches through a
# module-level table — PODEM's implication engine calls this once per
# gate per decision, so the if/elif GateType chain was its inner-loop
# cost.  Handlers short-circuit on controlling values (a 0 input
# dominates X for AND, a 1 for OR), preserving the reference semantics.
def _eval3_and(gate: Gate, values: Mapping[str, int | None]) -> int | None:
    out: int | None = 1
    for name in gate.inputs:
        v = values.get(name, X)
        if v == 0:
            return 0
        if v is X:
            out = X
    return out


def _eval3_nand(gate: Gate, values: Mapping[str, int | None]) -> int | None:
    return _not3(_eval3_and(gate, values))


def _eval3_or(gate: Gate, values: Mapping[str, int | None]) -> int | None:
    out: int | None = 0
    for name in gate.inputs:
        v = values.get(name, X)
        if v == 1:
            return 1
        if v is X:
            out = X
    return out


def _eval3_nor(gate: Gate, values: Mapping[str, int | None]) -> int | None:
    return _not3(_eval3_or(gate, values))


def _eval3_xor(gate: Gate, values: Mapping[str, int | None]) -> int | None:
    acc = 0
    for name in gate.inputs:
        v = values.get(name, X)
        if v is X:
            return X
        acc ^= v
    return acc


def _eval3_xnor(gate: Gate, values: Mapping[str, int | None]) -> int | None:
    return _not3(_eval3_xor(gate, values))


def _eval3_buf(gate: Gate, values: Mapping[str, int | None]) -> int | None:
    return values.get(gate.inputs[0], X)


def _eval3_not(gate: Gate, values: Mapping[str, int | None]) -> int | None:
    return _not3(values.get(gate.inputs[0], X))


def _eval3_const0(gate: Gate, values: Mapping[str, int | None]) -> int | None:
    return 0


def _eval3_const1(gate: Gate, values: Mapping[str, int | None]) -> int | None:
    return 1


def _not3(v: int | None) -> int | None:
    return X if v is X else 1 - v


GATE_EVAL_3V = {
    GateType.AND: _eval3_and,
    GateType.NAND: _eval3_nand,
    GateType.OR: _eval3_or,
    GateType.NOR: _eval3_nor,
    GateType.XOR: _eval3_xor,
    GateType.XNOR: _eval3_xnor,
    GateType.BUF: _eval3_buf,
    GateType.NOT: _eval3_not,
    GateType.CONST0: _eval3_const0,
    GateType.CONST1: _eval3_const1,
}


def eval_gate_3v(gate: Gate, values: Mapping[str, int | None]) -> int | None:
    """Three-valued gate evaluation (controlling values dominate X)."""
    return GATE_EVAL_3V[gate.gtype](gate, values)


def simulate_3v(
    circuit: Circuit,
    assignment: Mapping[str, int | None],
    state: Mapping[str, int | None] | None = None,
) -> dict[str, int | None]:
    """Three-valued combinational simulation.

    Unassigned PIs and flop Qs are X unless given in ``assignment`` /
    ``state``.
    """
    values: dict[str, int | None] = {}
    for pi in circuit.inputs:
        values[pi] = assignment.get(pi, X)
    for q in circuit.flops:
        values[q] = (state or {}).get(q, X)
    evaluators = GATE_EVAL_3V
    for gate in circuit.topo_order():
        values[gate.output] = evaluators[gate.gtype](gate, values)
    return values
