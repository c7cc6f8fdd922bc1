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

Three program shapes cover every evaluation path in the toolkit:

* :class:`CircuitProgram` — the full combinational evaluation behind
  :func:`repro.sim.logic.simulate`; returns packed values for every net.
* :class:`ConeProgram`  — a per-fault-site sub-program re-simulating only
  the fan-out cone of a stuck-at line, for :mod:`repro.sim.fault_sim`'s
  PPSFP inner loop.  Cached per site, like the interpreter's cone lists.
* :class:`StepProgram`  — a fused combinational-eval + flop-advance step
  for :class:`repro.sim.sequential.SequentialSim`, restricted to the
  cone of influence of the observable nets (POs and flop D inputs).

Programs are **byte-identical** to the interpreter at any pattern width:
each generated expression is the same boolean function the dispatch
table computes, so every net value, detection mask and campaign outcome
matches bit for bit.  ``RESCUE_NO_COMPILE=1`` — or, within a block,
:func:`disabled` — forces the reference interpreter; the equivalence
tests in ``tests/test_compiled.py`` run both paths against each other.

Caching and invalidation: programs are memoized in
``Circuit._program_cache`` and invalidated by ``Circuit._invalidate``
alongside the topo/fan-out/cone caches, so any mutation recompiles.
Per-site sources are additionally *interned*: structurally identical
cones share one ``CompiledProgram`` and therefore one ``compile()``,
which is where the cold-sweep cost lives.  Structured circuits repeat
cone shapes heavily (on ``rand_seq``, 230 detection sites share 90
distinct sources); fully random netlists are the worst case — nearly
every cone is structurally unique there and interning is a no-op.  (Concatenating pending sources into one big
``compile()`` unit was measured *slower* on CPython 3.11 — byte-compile
time grows superlinearly with module size: 0.92x at 25 sources/unit,
0.29x at 1000 — so deduplication, not batching, is the cold-path win.)
Pickling: a program carries only its *source*; the code object is
rebuilt lazily on first call in the receiving process (the same
cache-drop pattern ``Circuit.__getstate__`` uses), so compiled backends
ship to process-pool workers unchanged.

**SoA tier**: the per-net representation above pays one interpreter
dispatch *per gate*; :class:`SoaStepProgram` instead keeps the whole
net state in one ``(2 * n_slots, n_blocks)`` uint64 matrix whose top
half mirrors the bottom half complemented, and executes each
topological level as a handful of fused numpy calls over *every* gate
in the level (:class:`_SoaKernel`).  Polarity — NAND/NOR/XNOR outputs,
folded NOTs, the complemented inputs of the De Morgan rewrite
``a | b == ~(~a & ~b)`` — costs nothing at runtime: it is encoded as a
row index into the complement mirror at schedule-build time, so a level
is just two row-gathers, one ``bitwise_and`` over the and-family slab,
one ``bitwise_xor`` over the xor-family slab, and one ``invert``
refreshing the level's mirror rows.  Dead lanes of a partial last block
may hold garbage mid-flight (complement garbage propagates only within
dead lanes through ``& ^ ~``); the lane mask is applied once at each
readout boundary, which keeps every returned word bit-identical to the
interpreter.  The SoA program holds no code object at all — it pickles
as plain index arrays.  Only the fused step exists in SoA form: it is
the one shape a multi-cycle lane propagation runs (PPSFP evaluates
cones on int pattern windows of at most 1024 bits).  See
:mod:`repro.sim.vector` for the measured per-op cost model behind the
kernel's idioms and :func:`repro.engine.lanes.resolve_backing` for when
this tier runs.
"""

from __future__ import annotations

import copy
import itertools
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from ..circuit.netlist import Circuit, Gate, GateType
from . import vector as _vector

#: Environment kill switch: set to anything but ""/"0" to force the
#: reference interpreter everywhere (benchmark baselines, debugging).
ENV_FLAG = "RESCUE_NO_COMPILE"

#: Per-site programs (cones, detection) compile only after this many
#: (weighted) evaluations of the same site.  Measured break-even —
#: (codegen + ``compile()``) / (interpreted − compiled evaluation), warm
#: cone cache, 400 collapsed faults each — is 28-32 evaluations on the
#: 3.2k-gate combinational benchmark circuit (2.1 ms to build, 110-135
#: us interpreted, 44-56 us compiled; median site 16-18), ~14 on the
#: 800-gate smoke circuit and ~4 on a small-cone sequential one (80 us
#: to build, 21 us vs 2 us), the same at 64 and at 1024 patterns per
#: word.  20 sits inside that range.  The batched PPSFP sweep asks for
#: the detection program of a fan-out-free region's *root* — once per
#: root and pattern-window set under fault dropping, with the window
#: count up front without — so a dropping campaign stays entirely on
#: the interpreter however many faults share the root; workloads that
#: revisit a site per cycle, per window of a no-dropping dictionary
#: sweep, per call of a pattern-generation loop or per campaign cross
#: the threshold and settle into compiled steady state.
#: Per-circuit programs (full evaluation, step) are compiled eagerly:
#: they amortize over every evaluation of the circuit.  Tests and
#: benchmarks set this to 0 to force the compiled path from the first
#: call.
COMPILE_AFTER_HITS = 20


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

    def emit_gate(self, gate: Gate,
                  atoms: Mapping[str, str] | None = None) -> None:
        """Emit ``gate`` as one line; fold constants and buffers into
        atoms so consumers reference them directly (no assignment)."""
        gtype = gate.gtype
        if gtype is GateType.CONST0:
            self.atoms[gate.output] = "0"
            return
        if gtype is GateType.CONST1:
            self.atoms[gate.output] = "mask"
            return
        src = atoms if atoms is not None else self.atoms
        if gtype is GateType.BUF:
            self.atoms[gate.output] = src[gate.inputs[0]]
            return
        slot = self.slot()
        self.lines.append(f"    {slot} = {_gate_expr(gate, src)}")
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


@dataclass(frozen=True)
class ProgramStats:
    """Shape summary of a compiled program, for logging and bench rows.

    ``gates`` counts emitted evaluation ops (for per-net programs this
    includes hoisted external loads — each is one bytecode-level op,
    like a gate line); ``levels`` is the number of fused execution
    steps (straight-line per-net code executes one op per "level",
    the SoA kernel one batched group per topological level);
    ``fused_ops`` is the number of interpreter-visible calls per
    evaluation — the quantity each tier tries to shrink; and
    ``scratch_bytes`` is the persistent per-evaluation scratch the
    program allocates (0 for per-net programs, the state matrix for
    SoA)."""

    gates: int
    levels: int
    fused_ops: int
    scratch_bytes: int


_SLOT_LINE = re.compile(r"^    v\d+ = ", re.MULTILINE)


class CompiledProgram:
    """Generated source plus a lazily-(re)built code object.

    Only ``source`` travels through pickle; the function is recompiled
    on first call in the receiving process, mirroring how ``Circuit``
    drops its memoized caches on serialization.
    """

    __slots__ = ("source", "name", "_fn")

    def __init__(self, source: str, name: str) -> None:
        self.source = source
        self.name = name
        self._fn = None

    @property
    def fn(self):
        fn = self._fn
        if fn is None:
            namespace: dict = {}
            exec(compile(self.source, f"<compiled:{self.name}>", "exec"),
                 namespace)
            fn = self._fn = namespace["_run"]
        return fn

    @property
    def stats(self) -> ProgramStats:
        """Op counts for this straight-line program: every slot
        assignment is one op, executed one per step with no fusion and
        no scratch beyond CPython locals."""
        n = len(_SLOT_LINE.findall(self.source))
        return ProgramStats(gates=n, levels=n, fused_ops=n, scratch_bytes=0)

    def __getstate__(self) -> tuple[str, str]:
        return (self.source, self.name)

    def __setstate__(self, state: tuple[str, str]) -> None:
        self.source, self.name = state
        self._fn = None


# ----------------------------------------------------------------------
# full-circuit program (logic.simulate)
# ----------------------------------------------------------------------
class CircuitProgram:
    """Full combinational evaluation: ``fn(pis, state, mask)`` returns
    packed values for every net, in the interpreter's insertion order."""

    __slots__ = ("inputs", "flop_inits", "net_names", "program")

    def __init__(self, circuit: Circuit) -> None:
        self.inputs = tuple(circuit.inputs)
        self.flop_inits = tuple((q, f.init) for q, f in circuit.flops.items())
        emit = _Emitter()
        pi_slots = emit.bind_sources(self.inputs)
        q_slots = emit.bind_sources(list(circuit.flops))
        order = circuit.topo_order()
        for gate in order:
            emit.emit_gate(gate)
        names = (list(self.inputs) + list(circuit.flops)
                 + [g.output for g in order])
        self.net_names = tuple(names)
        ret = _tuple_expr([emit.atoms[n] for n in names])
        source = emit.source("def _run(pis, state, mask):",
                             [("pis", pi_slots), ("state", q_slots)], ret)
        self.program = CompiledProgram(source, f"full:{circuit.name}")

    def run(self, pi_values: Mapping[str, int], n_patterns: int,
            state: Mapping[str, int] | None = None) -> dict[str, int]:
        mask = (1 << n_patterns) - 1
        pis = tuple(pi_values.get(pi, 0) & mask for pi in self.inputs)
        if state is None:
            flop_state = tuple(mask if init else 0
                               for _, init in self.flop_inits)
        else:
            flop_state = tuple(
                (state[q] & mask) if q in state else (mask if init else 0)
                for q, init in self.flop_inits)
        return dict(zip(self.net_names, self.program.fn(pis, flop_state,
                                                        mask)))


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
    """One clock: ``fn(pis, state, mask)`` returns ``(po_values,
    next_state)`` tuples.  Only gates in the cone of influence of the
    observables (POs and flop D inputs) are evaluated — dead logic
    cannot change either return value."""

    __slots__ = ("inputs", "flop_qs", "flop_inits", "outputs", "q_index",
                 "program")

    def __init__(self, circuit: Circuit) -> None:
        self.inputs = tuple(circuit.inputs)
        self.flop_qs = tuple(circuit.flops)
        self.flop_inits = tuple(f.init for f in circuit.flops.values())
        self.outputs = tuple(circuit.outputs)
        self.q_index = {q: i for i, q in enumerate(self.flop_qs)}
        emit = _Emitter()
        pi_slots = emit.bind_sources(self.inputs)
        q_slots = emit.bind_sources(self.flop_qs)
        for gate in _live_gates(circuit):
            emit.emit_gate(gate)
        po_atoms = [emit.atoms[po] for po in self.outputs]
        d_atoms = [emit.atoms[f.d] for f in circuit.flops.values()]
        ret = f"({_tuple_expr(po_atoms)}, {_tuple_expr(d_atoms)},)"
        source = emit.source("def _run(pis, state, mask):",
                             [("pis", pi_slots), ("state", q_slots)], ret)
        self.program = CompiledProgram(source, f"step:{circuit.name}")

    def run(self, pi_values: Mapping[str, int], state: Mapping[str, int],
            mask: int) -> tuple[dict[str, int], dict[str, int]]:
        pis = tuple(pi_values.get(pi, 0) & mask for pi in self.inputs)
        # flops absent from the state dict fall back to their init value,
        # exactly like the interpreter's simulate()
        flop_state = tuple(
            (state[q] & mask) if q in state else (mask if init else 0)
            for q, init in zip(self.flop_qs, self.flop_inits))
        pos, nxt = self.program.fn(pis, flop_state, mask)
        return dict(zip(self.outputs, pos)), dict(zip(self.flop_qs, nxt))


# ----------------------------------------------------------------------
# per-fault-site cone sub-programs (fault_sim PPSFP inner loop)
# ----------------------------------------------------------------------
class ConeProgram:
    """Re-simulation of one fault site's fan-out cone.

    ``fn(good, forced, mask)`` loads the cone's external inputs from the
    good-machine dict once, evaluates the cone straight-line with the
    faulty line forced, and returns the recomputed gate outputs in topo
    order; :meth:`apply` folds them back into the complete
    ``faulty_values`` mapping.  (Detection has its own fused program —
    :class:`DetProgram` — that never materializes the dict.)
    """

    __slots__ = ("program", "out_names", "stem")

    def __init__(self, program: CompiledProgram, out_names: tuple[str, ...],
                 stem: str | None) -> None:
        self.program = program
        self.out_names = out_names
        self.stem = stem

    def apply(self, good: Mapping[str, int], forced: int,
              mask: int) -> dict[str, int]:
        """The full faulty-machine dict (interpreter-identical)."""
        values = dict(good)
        if self.stem is not None:
            values[self.stem] = forced
        for net, val in zip(self.out_names,
                            self.program.fn(good, forced, mask)):
            values[net] = val
        return values


class DetProgram:
    """Fault detection fused into the cone: ``fn(good, forced, mask)``
    returns the detection bitmask directly.

    The generated function loads the cone's external inputs once,
    evaluates only the cone gates with observable influence (gates whose
    output reaches no observation point are pruned at codegen time), and
    ORs the good-vs-faulty XOR of every observed cone net inline — the
    full faulty dict, the observation loop, and the result tuple all
    disappear.  This is the PPSFP inner loop: ``forced`` is a word, the
    stuck value for a fault's own walk (``detection_mask``) or the
    complemented good word when the batched sweep asks in which
    patterns a region root's flip is observed.
    """

    __slots__ = ("program",)

    def __init__(self, program: CompiledProgram) -> None:
        self.program = program


def _gather_cone(circuit: Circuit, site: str,
                 shadow_sink: str | None) -> list[Gate]:
    """The site's cone gates in topo order, minus a stem's own driver."""
    from .fault_sim import _cone_gates  # lazy: fault_sim imports us

    start = site if shadow_sink is None else shadow_sink
    cone = _cone_gates(circuit, [start])
    if shadow_sink is None:
        cone = [g for g in cone if g.output != site]
    return cone


def _emit_cone(emit: _Emitter, cone: Sequence[Gate], site: str,
               shadow_sink: str | None, loads: list[str]) -> None:
    """Emit cone gates; externals read from ``good``, the faulty line
    reads ``forced`` (everywhere for a stem, only inside the branch
    sink's expression for a branch).

    Externals referenced more than once are hoisted into one load line;
    single-use externals are inlined as ``good['net']`` subscripts right
    in the consuming expression — roughly half of a cone program's lines
    are external reads, so inlining nearly halves codegen+compile cost.
    """
    counts: dict[str, int] = {}
    for gate in cone:
        for net in gate.inputs:
            counts[net] = counts.get(net, 0) + 1

    def atom(net: str) -> str:
        slot = emit.atoms.get(net)
        if slot is not None:
            return slot
        if counts.get(net, 0) <= 1:
            return f"good[{net!r}]"
        slot = emit.slot()
        loads.append(f"    {slot} = good[{net!r}]")
        emit.atoms[net] = slot
        return slot

    if shadow_sink is None:
        emit.atoms[site] = "forced"
    for gate in cone:
        is_shadow = gate.output == shadow_sink
        src = {net: ("forced" if is_shadow and net == site else atom(net))
               for net in gate.inputs}
        emit.emit_gate(gate, src)


def _build_det_program(circuit: Circuit, site: str, shadow_sink: str | None,
                       observe: Sequence[str]) -> DetProgram:
    observed = set(observe)
    cone = _gather_cone(circuit, site, shadow_sink)
    # observability pruning: walk the cone in reverse topo order keeping
    # only gates that feed an observation point (directly or through a
    # kept gate) — the rest cannot contribute a detection bit
    needed: set[str] = set()
    kept: list[Gate] = []
    for gate in reversed(cone):
        if gate.output in observed or gate.output in needed:
            kept.append(gate)
            needed.update(gate.inputs)
    kept.reverse()
    emit = _Emitter()
    loads: list[str] = []
    _emit_cone(emit, kept, site, shadow_sink, loads)
    recomputed = {gate.output for gate in kept}
    terms: list[str] = []
    for net in dict.fromkeys(observe):  # dedup, order-preserving
        if shadow_sink is None and net == site:
            terms.append(f"(good.get({net!r}, 0) ^ forced)")
            continue
        if net not in recomputed:
            continue  # untouched by the fault: XOR contributes nothing
        terms.append(f"(good.get({net!r}, 0) ^ {emit.atoms[net]})")
    emit.lines = loads + emit.lines
    ret = f"({' | '.join(terms)}) & mask" if terms else "0"
    source = emit.source("def _run(good, forced, mask):", [], ret)
    name = f"det:{circuit.name}:{site}" + (f"->{shadow_sink}"
                                           if shadow_sink else "")
    return DetProgram(_intern(circuit, source, name))


def _build_cone_program(circuit: Circuit, site: str,
                        shadow_sink: str | None) -> ConeProgram:
    """Codegen the cone of ``site``.

    With ``shadow_sink`` (a branch fault into gate ``shadow_sink``), only
    that gate sees ``forced`` on the branched net — everything else reads
    the good value, exactly like the interpreter's shadow dict.  Without
    it (a stem fault), the site net itself is ``forced`` everywhere and
    its own driver is skipped.
    """
    cone = _gather_cone(circuit, site, shadow_sink)
    emit = _Emitter()
    loads: list[str] = []
    _emit_cone(emit, cone, site, shadow_sink, loads)
    out_names = [gate.output for gate in cone]
    emit.lines = loads + emit.lines
    ret = _tuple_expr([emit.atoms[n] for n in out_names])
    source = emit.source("def _run(good, forced, mask):", [], ret)
    program = _intern(circuit, source,
                      f"cone:{circuit.name}:{site}"
                      + (f"->{shadow_sink}" if shadow_sink else ""))
    return ConeProgram(program, tuple(out_names),
                       site if shadow_sink is None else None)


# ----------------------------------------------------------------------
# per-circuit caches (invalidated with the topo/cone caches)
# ----------------------------------------------------------------------
def _cache(circuit: Circuit) -> dict:
    cache = getattr(circuit, "_program_cache", None)
    if cache is None:  # circuits unpickled from pre-cache snapshots
        cache = circuit._program_cache = {}
    return cache


def _intern(circuit: Circuit, source: str, name: str) -> CompiledProgram:
    """One :class:`CompiledProgram` per distinct per-site source.

    Structured circuits produce many structurally identical cones
    (same gates, same external nets, different site key), whose
    generated sources match character for character — on ``rand_seq``
    230 detection sites share 90 distinct sources.  Interning them in
    the circuit's program cache means ``compile()`` runs once per
    *structure* instead of once per *site* — the dominant cold-sweep
    cost.  The first site's name wins (it only labels tracebacks); the
    table invalidates with the rest of the cache on circuit mutation.
    """
    table = _cache(circuit).setdefault("_interned", {})
    program = table.get(source)
    if program is None:
        program = table[source] = CompiledProgram(source, name)
    return program


def circuit_program(circuit: Circuit) -> CircuitProgram | None:
    """The full-circuit program, or ``None`` when compilation is off."""
    if _ENV_DISABLED:
        return None
    cache = _cache(circuit)
    prog = cache.get("full")
    if prog is None:
        prog = cache["full"] = CircuitProgram(circuit)
    return prog


def step_program(circuit: Circuit) -> StepProgram | None:
    """The fused step program, or ``None`` when compilation is off."""
    if _ENV_DISABLED:
        return None
    cache = _cache(circuit)
    prog = cache.get("step")
    if prog is None:
        prog = cache["step"] = StepProgram(circuit)
    return prog


def _counted(cache: dict, key, build, weight: int = 1):
    """Hit-gated memoization: interpret the first ``COMPILE_AFTER_HITS``
    requests (returning ``None``), then compile and cache.  Entries are
    the hit count while cold, the program once hot.  ``weight`` lets a
    caller that already knows it will evaluate the site many times (a
    no-dropping batched sweep) count all those evaluations up front."""
    entry = cache.get(key)
    if entry is not None and not isinstance(entry, int):
        return entry
    hits = (entry or 0) + weight
    if hits > COMPILE_AFTER_HITS:
        prog = cache[key] = build()
        return prog
    cache[key] = hits
    return None


def _site_of(circuit: Circuit, line) -> tuple[str, str | None] | None:
    """Resolve a fault line to ``(site, shadow_sink)`` or ``None`` when
    it has no combinational cone (a branch into a flop D pin — the
    interpreter handles that case with a single dict entry)."""
    if line.is_stem:
        return line.net, None
    if line.sink in circuit.gates:
        return line.net, line.sink
    return None


def cone_program(circuit: Circuit, line,
                 weight: int = 1) -> ConeProgram | None:
    """The faulty-values cone sub-program for fault site ``line``.

    ``None`` when compilation is off, the site has no combinational
    cone, or the site has not been evaluated often enough yet to
    amortize compilation (``COMPILE_AFTER_HITS``); ``weight`` is the
    number of evaluations the caller is about to perform.
    """
    if _ENV_DISABLED:
        return None
    resolved = _site_of(circuit, line)
    if resolved is None:
        return None
    site, shadow_sink = resolved
    return _counted(_cache(circuit), ("cone", site, shadow_sink),
                    lambda: _build_cone_program(circuit, site, shadow_sink),
                    weight)


def det_program(circuit: Circuit, line, observe: Sequence[str],
                weight: int = 1) -> DetProgram | None:
    """The detection-fused program for ``line`` under ``observe``.

    Keyed by the observation list as well as the site, since the
    generated XOR terms bake the observation points in.  Same hit gate
    and ``None`` conventions as :func:`cone_program`; ``weight`` is the
    number of evaluations the caller is about to perform.
    """
    if _ENV_DISABLED:
        return None
    resolved = _site_of(circuit, line)
    if resolved is None:
        return None
    site, shadow_sink = resolved
    return _counted(
        _cache(circuit), ("det", site, shadow_sink, tuple(observe)),
        lambda: _build_det_program(circuit, site, shadow_sink, observe),
        weight)


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

    The schedule is plain picklable data — index arrays and slices, no
    code objects; ``execute_bound`` is the only runtime code.
    """

    def __init__(self, gates: Sequence[Gate],
                 sources: Sequence[Sequence[str]]) -> None:
        alias: dict[str, tuple[int, int]] = {}
        row = 1  # row 0: constant zero (mirror row n_slots: constant one)
        slices = []
        for group in sources:
            a = row
            for net in group:
                alias[net] = (row, 0)
                row += 1
            slices.append((a, row))
        self.src_slices = tuple(slices)
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
        self.alias = alias
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

    def rows_of(self, nets: Sequence[str]):
        """Polarity-resolved mirror row per net (for readout gathers)."""
        np = _vector.np
        n = self.n_slots
        return np.asarray([self.alias[net][0] + n * self.alias[net][1]
                           for net in nets], dtype=np.intp)

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

    def execute(self, S) -> None:
        """One-shot evaluation (bind + run; loops should bind once)."""
        self.execute_bound(S, self.bind(S))


class SoaStepProgram:
    """One clock over the mirror matrix, ``n_lanes`` wide.

    The SoA counterpart of :class:`StepProgram`: the kernel schedule
    restricted to the cone of influence of the observables, plus the
    row maps that load PIs/flops and read POs/next state.  ``run``
    mirrors ``StepProgram.run`` with packed-int boundaries;
    :mod:`repro.engine.lanes` instead drives the exposed :attr:`kernel`
    and row maps directly, keeping the whole multi-cycle loop inside
    numpy.  There is no generated source: the program pickles as index
    arrays.  Everything but ``n_lanes`` is width-independent and shared
    by :meth:`at_width` copies.
    """

    __slots__ = ("kernel", "inputs", "flop_qs", "flop_inits", "outputs",
                 "q_index", "po_rows", "d_rows", "n_lanes")

    def __init__(self, circuit: Circuit, n_lanes: int) -> None:
        if not _vector.HAVE_NUMPY:  # the factory returns None instead
            raise RuntimeError("SoA programs require numpy")
        self.inputs = tuple(circuit.inputs)
        self.flop_qs = tuple(circuit.flops)
        self.flop_inits = tuple(f.init for f in circuit.flops.values())
        self.outputs = tuple(circuit.outputs)
        self.q_index = {q: i for i, q in enumerate(self.flop_qs)}
        self.kernel = kernel = _SoaKernel(_live_gates(circuit),
                                          (self.inputs, self.flop_qs))
        self.po_rows = kernel.rows_of(self.outputs)
        self.d_rows = kernel.rows_of([f.d for f in circuit.flops.values()])
        self.n_lanes = n_lanes

    def at_width(self, n_lanes: int) -> "SoaStepProgram":
        """The same schedule at another lane width (one netlist pass per
        circuit, however many widths run on it)."""
        clone = copy.copy(self)
        clone.n_lanes = n_lanes
        return clone

    @property
    def n_blocks(self) -> int:
        return _vector.blocks_for(self.n_lanes)

    @property
    def pi_slice(self) -> tuple[int, int]:
        return self.kernel.src_slices[0]

    @property
    def q_slice(self) -> tuple[int, int]:
        return self.kernel.src_slices[1]

    @property
    def stats(self) -> ProgramStats:
        k = self.kernel
        return ProgramStats(gates=k.n_gates, levels=k.n_levels,
                            fused_ops=k.n_calls,
                            scratch_bytes=2 * k.n_slots * self.n_blocks * 8)

    def run(self, pi_values: Mapping[str, int],
            state: Mapping[str, int]) -> tuple[dict, dict]:
        k = self.kernel
        np = _vector.np
        n = k.n_slots
        blocks = self.n_blocks
        mask = _vector.mask_array(self.n_lanes, blocks)
        full = (1 << self.n_lanes) - 1
        # a fresh matrix per evaluation: programs are shared across
        # threads, so the state is never cached on the program
        S = np.zeros((2 * n, blocks), dtype=np.uint64)
        S[n] = mask
        (pa, _pb), (qa, _qb) = k.src_slices
        for i, pi in enumerate(self.inputs):
            v = pi_values.get(pi, 0) & full
            if v:
                S[pa + i] = _vector.to_blocks(v, blocks)
        for i, (q, init) in enumerate(zip(self.flop_qs, self.flop_inits)):
            if q in state:
                v = state[q] & full
                if v:
                    S[qa + i] = _vector.to_blocks(v, blocks)
            elif init:
                S[qa + i] = mask
        lo, hi = k.src_span
        np.invert(S[lo:hi], out=S[n + lo:n + hi])
        k.execute(S)
        pos = S.take(self.po_rows, axis=0)
        pos &= mask
        nxt = S.take(self.d_rows, axis=0)
        nxt &= mask
        return dict(zip(self.outputs, pos)), dict(zip(self.flop_qs, nxt))


def soa_step_program(circuit: Circuit,
                     n_lanes: int) -> SoaStepProgram | None:
    """The ``n_lanes``-wide SoA fused step program, or ``None`` when
    compilation is off or numpy is missing (callers fall back to the
    packed-int paths, which carry any width through big ints).  The
    kernel schedule is built once per circuit; per-width programs are
    thin copies."""
    if _ENV_DISABLED or not _vector.HAVE_NUMPY:
        return None
    cache = _cache(circuit)
    key = ("soa_step", n_lanes)
    prog = cache.get(key)
    if prog is None:
        base = cache.get("soa_step")
        if base is None:
            base = cache["soa_step"] = SoaStepProgram(circuit, n_lanes)
        prog = cache[key] = base.at_width(n_lanes)
    return prog
