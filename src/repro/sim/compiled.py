"""Compiled-circuit simulation: codegen'd slot-indexed evaluation.

The reference interpreter in :mod:`repro.sim.logic` re-walks the netlist
gate-by-gate on every evaluation: a dict lookup on the dispatch table, a
Python call per gate, and a string-keyed dict read per gate input.  At
campaign scale that interpretive overhead *is* the simulation cost — the
bitwise work itself is a handful of C-level big-int ops.

This module translates a levelized :class:`~repro.circuit.netlist
.Circuit` into one generated Python function: every net becomes a local
variable slot, every gate one straight-line bitwise expression, constants
and buffers are folded into their consumers, and PI/flop loads and
result stores are vectorized through tuples.  CPython then executes the
whole circuit as consecutive ``LOAD_FAST``/``BINARY_OP`` bytecodes — no
per-gate dispatch, no per-input hashing.

The compiled tier is one step program per circuit — one clock of a
sequential circuit, evaluated once per cycle of every multi-cycle run,
which is the one shape that repays its ``compile()``.
:class:`StepProgram` fuses combinational evaluation and the flop
advance for :class:`repro.sim.sequential.SequentialSim` and the lane
walker, restricted to the cone of influence of the observable nets (POs
and flop D inputs).  It carries two kernels, each built the first time
it is read: the generated int function above (:attr:`StepProgram.fn`)
and the SoA level schedule below (:attr:`StepProgram.soa`).

One-shot evaluations interpret: :func:`repro.sim.logic.simulate` has no
compiled form, because a cold full-circuit compile costs about seventy
interpreted evaluations; a library caller that needs one good machine
at many points simulates it once and keeps the values.  Per-fault cone
walks (:mod:`repro.sim.fault_sim`) stay on the interpreter for the same
reason: the batched PPSFP sweep walks one cone per fan-out-free region,
and a program compiled per fault site never saw enough evaluations on a
campaign to pay back its ``compile()``.

Both kernels are **byte-identical** to the interpreter at any pattern
width: each generated expression and each level op is the same boolean
function the dispatch table computes, so every net value and campaign
outcome matches bit for bit.  ``RESCUE_NO_COMPILE=1`` — or, within a
block, :func:`disabled` — forces the reference interpreter for every
step; the equivalence tests in ``tests/test_compiled.py`` and
``tests/test_soa.py`` run both paths against each other.

Caching: the program is memoized in ``Circuit._program_cache`` under the
one key ``"step"`` and dropped by ``Circuit._invalidate`` alongside the
topo/fan-out/cone caches, so any mutation rebuilds it.  Nothing pickles
a program: ``Circuit.__getstate__`` drops the cache and every backend
drops its lane context, so a process-pool worker builds its own on
first use.

**SoA kernel**: the int kernel pays one interpreter dispatch *per
gate*; :class:`_SoaKernel` instead keeps the whole net state in one
``(2 * n_slots, n_blocks)`` uint64 matrix whose top half mirrors the
bottom half complemented, and executes each topological level as a
handful of fused numpy calls over *every* gate in the level.  Polarity
— NAND/NOR/XNOR outputs, folded NOTs, the complemented inputs of the De
Morgan rewrite ``a | b == ~(~a & ~b)`` — costs nothing at runtime: it
is encoded as a row index into the complement mirror at schedule-build
time, so a level is just two row-gathers, one ``bitwise_and`` over the
and-family slab, one ``bitwise_xor`` over the xor-family slab, and one
``invert`` refreshing the level's mirror rows.  Dead lanes of a partial
last block may hold garbage mid-flight (complement garbage propagates
only within dead lanes through ``& ^ ~``); the lane walker masks them
off with its lane sets.  See :mod:`repro.sim.vector` for the measured per-op cost
model behind the kernel's idioms and
:func:`repro.engine.lanes.resolve_backing` for when it runs.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from ..circuit.netlist import Circuit, Gate, GateType
from . import vector as _vector

#: Environment kill switch: set to anything but ""/"0" to force the
#: reference interpreter everywhere (benchmark baselines, debugging).
ENV_FLAG = "RESCUE_NO_COMPILE"

# The flag is read once at import (and kept in sync by ``disabled()``):
# probing os.environ on every evaluation showed up in PPSFP profiles.
_ENV_DISABLED = os.environ.get(ENV_FLAG, "") not in ("", "0")


def compilation_enabled() -> bool:
    """Is compiled evaluation globally enabled (env kill switch unset)?"""
    return not _ENV_DISABLED


@contextmanager
def disabled() -> Iterator[None]:
    """Force the reference interpreter within the block (tests, benches).

    The env var is set as well so worker processes spawned inside the
    block inherit the interpreter mode.
    """
    global _ENV_DISABLED
    old_env = os.environ.get(ENV_FLAG)
    old_flag = _ENV_DISABLED
    os.environ[ENV_FLAG] = "1"
    _ENV_DISABLED = True
    try:
        yield
    finally:
        _ENV_DISABLED = old_flag
        if old_env is None:
            os.environ.pop(ENV_FLAG, None)
        else:
            os.environ[ENV_FLAG] = old_env


# ----------------------------------------------------------------------
# source generation
# ----------------------------------------------------------------------
def _tuple_expr(atoms: Sequence[str]) -> str:
    return "(" + "".join(a + "," for a in atoms) + ")"


def _gate_expr(gate: Gate, atoms: Mapping[str, str]) -> str:
    """One bitwise expression for ``gate`` over already-bound atoms.

    Atoms are simple tokens (local slots, ``0``, ``mask``), so the
    expressions need no inner parentheses beyond the inverting wrap.
    """
    gtype = gate.gtype
    ins = [atoms[name] for name in gate.inputs]
    if gtype is GateType.AND:
        return " & ".join(ins)
    if gtype is GateType.NAND:
        return f"~({' & '.join(ins)}) & mask"
    if gtype is GateType.OR:
        return " | ".join(ins)
    if gtype is GateType.NOR:
        return f"~({' | '.join(ins)}) & mask"
    if gtype is GateType.XOR:
        return " ^ ".join(ins)
    if gtype is GateType.XNOR:
        return f"~({' ^ '.join(ins)}) & mask"
    if gtype is GateType.NOT:
        return f"~{ins[0]} & mask"
    raise AssertionError(f"unexpected gate type {gtype}")  # folded kinds


class _Emitter:
    """Shared codegen state: slot allocation, atom binding, gate lines."""

    def __init__(self) -> None:
        self.atoms: dict[str, str] = {}
        self.lines: list[str] = []
        self._slots = itertools.count()

    def slot(self) -> str:
        return f"v{next(self._slots)}"

    def bind_sources(self, nets: Sequence[str]) -> list[str]:
        """Allocate one slot per source net (PI / flop Q tuple unpack)."""
        slots = []
        for net in nets:
            slot = self.slot()
            self.atoms[net] = slot
            slots.append(slot)
        return slots

    def emit_gate(self, gate: Gate) -> None:
        """Emit ``gate`` as one line; fold constants and buffers into
        atoms so consumers reference them directly (no assignment)."""
        gtype = gate.gtype
        if gtype is GateType.CONST0:
            self.atoms[gate.output] = "0"
            return
        if gtype is GateType.CONST1:
            self.atoms[gate.output] = "mask"
            return
        if gtype is GateType.BUF:
            self.atoms[gate.output] = self.atoms[gate.inputs[0]]
            return
        slot = self.slot()
        self.lines.append(f"    {slot} = {_gate_expr(gate, self.atoms)}")
        self.atoms[gate.output] = slot

    def source(self, header: str, unpacks: Sequence[tuple[str, Sequence[str]]],
               ret: str) -> str:
        parts = [header]
        for arg, slots in unpacks:
            if slots:
                parts.append(f"    {_tuple_expr(slots)} = {arg}")
        parts.extend(self.lines)
        parts.append(f"    return {ret}")
        return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# fused sequential step (SequentialSim.step)
# ----------------------------------------------------------------------
def _live_gates(circuit: Circuit) -> list[Gate]:
    """The gates in the cone of influence of the observables (POs and
    flop D inputs), in topo order — all a clock step has to evaluate."""
    needed: set[str] = set()
    work = list(circuit.outputs) + [f.d for f in circuit.flops.values()]
    gates = circuit.gates
    while work:
        net = work.pop()
        if net in needed:
            continue
        needed.add(net)
        gate = gates.get(net)
        if gate is not None:
            work.extend(gate.inputs)
    return [g for g in circuit.topo_order() if g.output in needed]


class StepProgram:
    """One clock of one circuit, with an int kernel and an SoA kernel.

    The header — inputs, flop Qs and inits, outputs, ``q_index`` and the
    live gates — is shared; each kernel is built the first time it is
    read, so a campaign builds only the kernel its carrier runs.  Only
    gates in the cone of influence of the observables (POs and flop D
    inputs) are evaluated: dead logic cannot change a PO or a next state.

    * :attr:`fn` — ``fn(pis, state, mask)`` returns ``(po_values,
      next_state)`` tuples over Python ints (generated from
      :attr:`source`);
    * :attr:`soa` — the level schedule over the SoA state matrix
      (:class:`_SoaKernel`; needs numpy).
    """

    def __init__(self, circuit: Circuit) -> None:
        self.name = circuit.name
        self.inputs = tuple(circuit.inputs)
        self.flop_qs = tuple(circuit.flops)
        self.flop_inits = tuple(f.init for f in circuit.flops.values())
        self.flop_ds = tuple(f.d for f in circuit.flops.values())
        self.outputs = tuple(circuit.outputs)
        self.q_index = {q: i for i, q in enumerate(self.flop_qs)}
        self.gates = _live_gates(circuit)

    @cached_property
    def source(self) -> str:
        emit = _Emitter()
        pi_slots = emit.bind_sources(self.inputs)
        q_slots = emit.bind_sources(self.flop_qs)
        for gate in self.gates:
            emit.emit_gate(gate)
        po_atoms = [emit.atoms[po] for po in self.outputs]
        d_atoms = [emit.atoms[d] for d in self.flop_ds]
        ret = f"({_tuple_expr(po_atoms)}, {_tuple_expr(d_atoms)},)"
        return emit.source("def _run(pis, state, mask):",
                           [("pis", pi_slots), ("state", q_slots)], ret)

    @cached_property
    def fn(self):
        namespace: dict = {}
        exec(compile(self.source, f"<compiled:step:{self.name}>", "exec"),
             namespace)
        return namespace["_run"]

    @cached_property
    def soa(self) -> _SoaKernel:
        return _SoaKernel(self)

    def run(self, pi_values: Mapping[str, int], state: Mapping[str, int],
            mask: int) -> tuple[dict[str, int], dict[str, int]]:
        pis = tuple(pi_values.get(pi, 0) & mask for pi in self.inputs)
        # flops absent from the state dict fall back to their init value,
        # exactly like the interpreter's simulate()
        flop_state = tuple(
            (state[q] & mask) if q in state else (mask if init else 0)
            for q, init in zip(self.flop_qs, self.flop_inits))
        pos, nxt = self.fn(pis, flop_state, mask)
        return dict(zip(self.outputs, pos)), dict(zip(self.flop_qs, nxt))


def step_program(circuit: Circuit) -> StepProgram | None:
    """The circuit's step program (cached until the circuit mutates), or
    ``None`` when compilation is off."""
    if _ENV_DISABLED:
        return None
    cache = circuit._program_cache
    prog = cache.get("step")
    if prog is None:
        prog = cache["step"] = StepProgram(circuit)
    return prog


# ----------------------------------------------------------------------
# SoA tier: level-batched kernels over a complement-mirror state matrix
# ----------------------------------------------------------------------
#: Input polarity per and-family gate: OR/NOR read the complement rows
#: of their inputs, turning the whole family into one AND slab via
#: De Morgan (``a | b == ~(~a & ~b)``).
_AND_INBASE = {GateType.AND: 0, GateType.NAND: 0,
               GateType.OR: 1, GateType.NOR: 1}
#: Output polarity: which half of the mirror consumers read.  The slab
#: holds ``a & b`` for AND/NAND and ``~(a | b)`` for OR/NOR, so NAND
#: and OR resolve to the complement row, AND and NOR to the base row.
_AND_OUTPOL = {GateType.AND: 0, GateType.NAND: 1,
               GateType.OR: 1, GateType.NOR: 0}
_XOR_OUTPOL = {GateType.XOR: 0, GateType.XNOR: 1}
#: Gate kinds that never execute: they become row aliases at build time.
_SOA_FOLDED = (GateType.CONST0, GateType.CONST1, GateType.BUF,
               GateType.NOT)


class _SoaKernel:
    """Width-independent level-batched schedule over the mirror matrix.

    State lives in a ``(2 * n_slots, n_blocks)`` uint64 matrix ``S``
    whose invariant is ``S[row + n_slots] == ~S[row]`` (up to dead-lane
    garbage past the lane mask).  Row 0 is constant zero, so its mirror
    is the constant-one word.  Every net aliases to ``(row, pol)``;
    reading polarity ``pol`` means reading ``S[row + n_slots * pol]`` —
    NOT gates, NAND/NOR/XNOR outputs and the De Morgan'd OR/NOR inputs
    all fold into the row index, costing nothing at runtime.

    Each topological level runs as: two row-gathers (``S.take`` of the
    first- and second-input rows of every gate in the level — measured
    ~30% faster than one doubled gather), one ``bitwise_and`` over the
    and-family slab, one ``bitwise_xor`` over the xor-family slab, a
    rare extra gather+op per input position above 2 (gates are sorted
    arity-ascending inside each family so those tails are contiguous
    slices), and one ``invert`` refreshing the level's mirror rows.

    Built once per circuit by :attr:`StepProgram.soa` from the step's
    live gates; it is width-independent: the lane walker allocates a
    matrix as wide as the lanes it holds, fills the source rows
    (:attr:`pi_slice`, :attr:`q_slice`) and reads :attr:`po_rows` and
    :attr:`d_rows` back after :meth:`execute_bound`.
    """

    def __init__(self, program: StepProgram) -> None:
        gates = program.gates
        alias: dict[str, tuple[int, int]] = {}
        row = 1  # row 0: constant zero (mirror row n_slots: constant one)
        slices = []
        for group in (program.inputs, program.flop_qs):
            a = row
            for net in group:
                alias[net] = (row, 0)
                row += 1
            slices.append((a, row))
        self.pi_slice, self.q_slice = slices
        self.src_span = (1, row)
        # pass A: levelize real gates; a folded gate sits at its input's
        # level so its consumers still level strictly above the producer
        level: dict[str, int] = {}
        by_level: dict[int, list[Gate]] = {}
        for g in gates:
            if g.gtype in _SOA_FOLDED:
                level[g.output] = (level.get(g.inputs[0], 0)
                                   if g.inputs else 0)
            else:
                lv = max((level.get(i, 0) for i in g.inputs), default=0) + 1
                level[g.output] = lv
                by_level.setdefault(lv, []).append(g)
        # pass B: assign output rows level by level, and-family first,
        # arity-ascending inside each family (contiguous wide-gate tails)
        order = {}
        for lv in sorted(by_level):
            gs = by_level[lv]
            ands = sorted((g for g in gs if g.gtype in _AND_INBASE),
                          key=lambda g: len(g.inputs))
            xors = sorted((g for g in gs if g.gtype not in _AND_INBASE),
                          key=lambda g: len(g.inputs))
            a = row
            for g in ands:
                alias[g.output] = (row, _AND_OUTPOL[g.gtype])
                row += 1
            for g in xors:
                alias[g.output] = (row, _XOR_OUTPOL[g.gtype])
                row += 1
            order[lv] = (a, row, ands, xors)
        self.n_slots = n = row
        # pass C: folded gates resolve to aliases, in topo order so a
        # chain of BUF/NOT folds transitively
        for g in gates:
            t = g.gtype
            if t is GateType.CONST0:
                alias[g.output] = (0, 0)
            elif t is GateType.CONST1:
                alias[g.output] = (0, 1)
            elif t is GateType.BUF:
                alias[g.output] = alias[g.inputs[0]]
            elif t is GateType.NOT:
                r, p = alias[g.inputs[0]]
                alias[g.output] = (r, p ^ 1)
        np = _vector.np

        def rowof(net: str, comp: int = 0) -> int:
            r, p = alias[net]
            return r + n * (p ^ comp)

        # pass D: per-level op plan
        plan = []
        n_calls = 0
        for lv in sorted(order):
            a, b, ands, xors = order[lv]
            K = len(ands) + len(xors)
            Ka = len(ands)
            r0 = [rowof(g.inputs[0], _AND_INBASE[g.gtype]) for g in ands]
            r1 = [rowof(g.inputs[1], _AND_INBASE[g.gtype]) for g in ands]
            r0 += [rowof(g.inputs[0]) for g in xors]
            r1 += [rowof(g.inputs[1]) for g in xors]
            extra = []
            max_ar = max(len(g.inputs) for g in ands + xors)
            for pos in range(2, max_ar):
                for fam, gs, off in (("and", ands, 0), ("xor", xors, Ka)):
                    sel = [(i, g) for i, g in enumerate(gs)
                           if len(g.inputs) > pos]
                    if not sel:
                        continue
                    lo, hi = sel[0][0], sel[-1][0] + 1  # arity-sorted tail
                    rows = np.asarray(
                        [rowof(g.inputs[pos],
                               _AND_INBASE[g.gtype] if fam == "and" else 0)
                         for _, g in sel], dtype=np.intp)
                    extra.append((fam, off + lo, off + hi, rows))
            plan.append((np.asarray(r0, dtype=np.intp),
                         np.asarray(r1, dtype=np.intp),
                         K, Ka, a, b, tuple(extra)))
            n_calls += 2 + (Ka > 0) + (Ka < K) + 2 * len(extra) + 1
        self.plan = tuple(plan)
        self.n_levels = len(plan)
        self.n_gates = sum(p[2] for p in plan)
        self.n_calls = n_calls
        self.po_rows = np.asarray([rowof(po) for po in program.outputs],
                                  dtype=np.intp)
        self.d_rows = np.asarray([rowof(d) for d in program.flop_ds],
                                 dtype=np.intp)

    def bind(self, S) -> list:
        """Pre-resolve the plan's output views into ``S``.

        Slice creation is ~0.1-0.2µs apiece — real money next to the
        ~1µs fused ops it sits between — and a multi-cycle loop reuses
        one state matrix, so the per-level output/mirror views are
        built once per matrix and replayed every cycle (measured ~20%
        off the whole execute at 9600 gates).  The *gather* side stays
        fresh per cycle: ``take`` into a preallocated ``out=`` buffer
        measured slower than letting it allocate.
        """
        n = self.n_slots
        return [(r0, r1, K, Ka, S[a:a + Ka], S[a + Ka:b], extra,
                 S[a:b], S[n + a:n + b])
                for r0, r1, K, Ka, a, b, extra in self.plan]

    def execute_bound(self, S, bound: list) -> None:
        """Evaluate every level in place through views bound by
        :meth:`bind`.  Source rows (and their mirrors) must be filled;
        afterwards every aliased row holds its net's word, up to
        dead-lane garbage."""
        np = _vector.np
        band, bxor, binv = np.bitwise_and, np.bitwise_xor, np.invert
        take = S.take
        for r0, r1, K, Ka, o_and, o_xor, extra, src, dst in bound:
            g0 = take(r0, 0)
            g1 = take(r1, 0)
            if Ka:
                band(g0[:Ka], g1[:Ka], out=o_and)
            if Ka < K:
                bxor(g0[Ka:], g1[Ka:], out=o_xor)
            for fam, lo, hi, rows in extra:
                uf = band if fam == "and" else bxor
                uf(src[lo:hi], take(rows, 0), out=src[lo:hi])
            binv(src, out=dst)
