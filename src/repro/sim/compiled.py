"""Compiled-circuit simulation: codegen'd slot-indexed evaluation.

The reference interpreter in :mod:`repro.sim.logic` re-walks the netlist
gate-by-gate on every evaluation: a dict lookup on the dispatch table, a
Python call per gate, and a string-keyed dict read per gate input.  At
campaign scale that interpretive overhead *is* the simulation cost — the
bitwise work itself is a handful of C-level big-int ops.

This module translates a :class:`~repro.circuit.netlist.Circuit` into
one generated Python function: every net becomes a local variable slot,
every gate one straight-line bitwise expression, constants and buffers
are folded into their consumers, and PI/flop loads and result stores
are vectorized through tuples.  CPython then executes the
whole circuit as consecutive ``LOAD_FAST``/``BINARY_OP`` bytecodes — no
per-gate dispatch, no per-input hashing.

The compiled tier is one step program per circuit — one clock of a
sequential circuit, evaluated once per cycle of every multi-cycle run,
which is the one shape that repays its ``compile()``.
:class:`StepProgram` fuses combinational evaluation and the flop
advance for :class:`repro.sim.sequential.SequentialSim` and the lane
walker, restricted to the cone of influence of the observable nets (POs
and flop D inputs).  That cone is ordered by one depth-first walk from
the observables (:func:`_live_gates`): building a program never sorts
the whole netlist, so dead logic costs nothing.  It carries two
kernels, each built the first time it is read: the generated int
function above (:attr:`StepProgram.fn`) and the native walker
(:attr:`StepProgram.native`) — the same step emitted as C
(:attr:`StepProgram.c_source`) together with the whole skewed lane walk
and the golden pass, built by the host C compiler and loaded with
:mod:`ctypes` (:mod:`repro.sim.native`), or ``None`` where that cannot
be had.  Every lane width runs on them: the lane walker
drives the C walker over as many 64-lane ``uint64_t`` blocks as its
lanes occupy, and the int function over arbitrary-precision ints where
there is no C walker.  A campaign on the C walker runs its golden pass
in C too, so it never builds the int function.

One-shot evaluations interpret: :func:`repro.sim.logic.simulate` has no
compiled form, because a cold full-circuit compile costs about seventy
interpreted evaluations; a library caller that needs one good machine
at many points simulates it once and keeps the values.  Nothing here
compiles a fault's cone either: a program per fault site never saw
enough evaluations on a campaign to pay back its ``compile()``.  The
batched PPSFP sweep walks one cone per fan-out-free region, in C where
it can (:mod:`repro.sim.fault_sim`): one fixed source for every design
that interprets flat tables, built once per host.

Every kernel is **byte-identical** to the interpreter at any pattern
width: each generated expression is the same boolean function the
dispatch table computes (the C step evaluates the very expressions
:attr:`StepProgram.source` does, over ``uint64_t``), so every net value
and campaign outcome matches bit for bit.  ``RESCUE_NO_COMPILE=1`` — or,
within a block, :func:`disabled` — forces the reference interpreter for
every step; the equivalence tests in ``tests/test_compiled.py`` and
``tests/test_lanes.py`` run the paths against each other.

Caching: the program is memoized in ``Circuit._program_cache`` under the
one key ``"step"`` and dropped by ``Circuit._invalidate`` alongside the
structural caches (gate order, fan-out, cones), so any mutation
rebuilds it.  Nothing pickles a program: ``Circuit.__getstate__`` drops
the cache and every backend drops its lane context, so a process-pool
worker builds its own on first use.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from ..circuit.netlist import Circuit, CircuitError, Gate, GateType

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
    """Shared codegen state: slot allocation, atom binding, gate lines.

    ``assign`` formats one gate line from its slot and expression: a
    Python assignment for :attr:`StepProgram.source`, a ``const
    uint64_t`` declaration for :attr:`StepProgram.c_source` (the
    expressions are valid C as they stand)."""

    def __init__(self, assign: str = "    {} = {}") -> None:
        self.assign = assign
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
        self.lines.append(self.assign.format(slot,
                                             _gate_expr(gate, self.atoms)))
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
    """The gates in the cone of influence of the observables (POs, then
    flop D inputs), each after every gate that drives one of its inputs
    — all a clock step has to evaluate, and nothing else.

    One iterative depth-first walk from those observables over
    ``circuit.gates`` emits each gate once all its inputs are emitted
    (post-order), so the cone is ordered without sorting the whole
    netlist: dead logic is never visited.  An explicit stack bounds the
    depth by memory, not by the recursion limit, and the order is fixed
    by the circuit alone: outputs, then flops, then each gate's inputs
    in declaration order.

    A gate input still on the walk's stack closes a combinational cycle
    and raises :class:`~repro.circuit.netlist.CircuitError`.  A cycle
    confined to dead logic is never walked, so it is not reported here
    (:meth:`~repro.circuit.netlist.Circuit.validate` still reports it)."""
    gates = circuit.gates
    done: set[str] = set()
    on_stack: set[str] = set()
    order: list[Gate] = []
    roots = itertools.chain(circuit.outputs,
                            (f.d for f in circuit.flops.values()))
    for root in roots:
        gate = gates.get(root)
        if gate is None or root in done:
            continue
        on_stack.add(root)
        stack = [(gate, iter(gate.inputs))]
        while stack:
            gate, pending = stack[-1]
            for net in pending:
                child = gates.get(net)
                if child is None or net in done:
                    continue
                if net in on_stack:
                    cycle = [g.output for g, _ in stack]
                    cycle = sorted(cycle[cycle.index(net):])
                    raise CircuitError(
                        f"combinational cycle through nets {cycle[:5]}")
                on_stack.add(net)
                stack.append((child, iter(child.inputs)))
                break
            else:
                stack.pop()
                out = gate.output
                on_stack.discard(out)
                done.add(out)
                order.append(gate)
    return order


class StepProgram:
    """One clock of one circuit, with an int and a native kernel.

    The header — inputs, flop Qs and inits, outputs and the live gates —
    is shared; each kernel is built the first time it is read, so a
    campaign builds only the kernels its walker runs.  Only gates in the
    cone of influence of the observables (POs and flop D inputs) are
    evaluated, in the order one walk of that cone emits them
    (:func:`_live_gates`): dead logic cannot change a PO or a next state,
    and it is never visited.

    * :attr:`fn` — ``fn(pis, state, mask)`` returns ``(po_values,
      next_state)`` tuples over Python ints (generated from
      :attr:`source`);
    * :attr:`native` — the lane walker's whole skewed walk and the
      golden pass in C (:attr:`c_source`, :mod:`repro.sim.native`;
      needs a C compiler), or ``None``.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.name = circuit.name
        self.inputs = tuple(circuit.inputs)
        self.flop_qs = tuple(circuit.flops)
        self.flop_inits = tuple(f.init for f in circuit.flops.values())
        self.flop_ds = tuple(f.d for f in circuit.flops.values())
        self.outputs = tuple(circuit.outputs)
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
    def c_source(self) -> str:
        """One C translation unit: this step as a ``static`` function
        over one 64-lane ``uint64_t`` block, then the skewed walker and
        the golden pass that drive it (:data:`_C_WALKER`)."""
        emit = _Emitter("    const uint64_t {} = {};")
        loads = [f"    const uint64_t {slot} = {arg}[{i}];"
                 for arg, nets in (("pis", self.inputs),
                                   ("state", self.flop_qs))
                 for i, slot in enumerate(emit.bind_sources(nets))]
        for gate in self.gates:
            emit.emit_gate(gate)
        stores = [f"    {arg}[{i}] = {emit.atoms[net]};"
                  for arg, nets in (("po", self.outputs),
                                    ("nxt", self.flop_ds))
                  for i, net in enumerate(nets)]
        return "\n".join([
            "#include <stdint.h>",
            "#include <stdlib.h>",
            f"#define N_IN {len(self.inputs)}",
            f"#define N_OUT {len(self.outputs)}",
            f"#define N_FLOPS {len(self.flop_qs)}",
            "#define mask (~(uint64_t)0)",  # folded away, even at -O0
            "static void circuit_step(const uint64_t *restrict pis,",
            "                         const uint64_t *restrict state,",
            "                         uint64_t *restrict po,",
            "                         uint64_t *restrict nxt)",
            "{",
            *loads, *emit.lines, *stores,
            "}",
            "#undef mask",
            _C_WALKER])

    @cached_property
    def native(self):
        """The native walker built from :attr:`c_source`
        (:func:`repro.sim.native.load`), or ``None`` when it cannot be
        had — no C compiler, a failed build or load: the lane walker
        then runs the int kernel :attr:`fn`."""
        from . import native
        lib = native.load(self.c_source)
        return None if lib is None else native.LaneWalker(
            lib, len(self.inputs), len(self.outputs), len(self.flop_qs))

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
# native tier: the skewed lane walker in C
# ----------------------------------------------------------------------
#: The walker half of :attr:`StepProgram.c_source`, the same for every
#: circuit: :func:`repro.engine.lanes._propagate_skewed` with its
#: schedule, golden gather and lane sets, over ``n_blocks`` 64-lane
#: ``uint64_t`` words, and the golden pass.  Every function is
#: ``static`` but the one export, ``rescue_kernel``: a table of the
#: step, the walk and the golden pass (a non-static ``step`` would bind
#: to glibc's legacy ``step()``).
#:
#: ``walk(gold, n_cycles, n_triples, triples, start, n_live, out)``:
#: ``gold`` is the golden table, one byte (0/1) per row — inputs,
#: outputs, flops entering the cycle — per cycle, plus the final state;
#: triple *e* flips flop ``triples[3e + 1]`` of lane ``triples[3e + 2]``
#: before cycle ``triples[3e]``.  A triple whose cycle is outside
#: ``[max(start, 0), n_cycles)`` never fires.  Writes the fail words then
#: the latent words of the ``ceil(n_live / 64)`` blocks to ``out`` and
#: returns the steps it ran; -1: out of memory; ``-2 - e``: triple *e*
#: names a lane outside ``[0, n_live)`` or a flop outside ``[0,
#: N_FLOPS)`` (nothing is walked).
#:
#: ``golden(stim, n_cycles, init, gold)``: the golden pass on lane 0 from
#: the flops' ``init`` bytes, over ``stim``, ``N_IN`` bytes (0/1) per
#: cycle; writes ``gold`` in the layout ``walk`` reads.
_C_WALKER = r"""
#define N_ROWS (N_IN + N_OUT + N_FLOPS)
#define N_IO (N_IN + N_OUT)

typedef struct { int64_t cycle; uint64_t lanes; } group_t;
typedef struct { int64_t step, flop, block; uint64_t lanes; } flip_t;

/* lanes of one block that share a start cycle: found from the last
   group, since lanes arrive sorted by start cycle */
static void add_lane(group_t *g, int64_t *n, int64_t cycle, uint64_t bit)
{
    for (int64_t k = *n - 1; k >= 0; k--)
        if (g[k].cycle == cycle) {
            g[k].lanes |= bit;
            return;
        }
    g[*n].cycle = cycle;
    g[*n].lanes = bit;
    ++*n;
}

/* one block's golden words at walk step t: chained lanes shift in what
   their upper neighbour held at t - 1, the groups gather the rest */
static void gather(uint64_t *restrict w, const uint8_t *restrict gold,
                   int64_t last, uint64_t keep, const group_t *g,
                   int64_t n_g, int64_t t)
{
    for (int64_t r = 0; r < N_ROWS; r++)
        w[r] = (w[r] >> 1) & keep;
    for (int64_t k = 0; k < n_g; k++) {
        int64_t c = g[k].cycle + t;
        if (c > last)
            continue;
        const uint8_t *row = gold + c * N_ROWS;
        uint64_t m = g[k].lanes;
        for (int64_t r = 0; r < N_ROWS; r++)
            w[r] |= ((uint64_t)0 - row[r]) & m;
    }
}

static int by_step(const void *a, const void *b)
{
    int64_t x = ((const flip_t *)a)->step, y = ((const flip_t *)b)->step;
    return (x > y) - (x < y);
}

static int64_t walk(const uint8_t *gold, int64_t n_cycles, int64_t n_triples,
                    const int64_t *triples, int64_t start, int64_t n_live,
                    uint64_t *out)
{
    const int64_t nb = (n_live + 63) / 64, lo = start > 0 ? start : 0;
    int64_t n_all = 0, n_unchained = 0, n_flips = 0;
    for (int64_t e = 0; e < n_triples; e++) {
        int64_t flop = triples[3 * e + 1], lane = triples[3 * e + 2];
        if (lane < 0 || lane >= n_live || flop < 0 || flop >= N_FLOPS)
            return -2 - e;
    }
    if (n_live <= 0)
        return 0;
    int64_t *first = malloc((n_live + 1) * sizeof *first);
    int64_t *last_flip = malloc((n_live + 1) * sizeof *last_flip);
    int64_t *at = malloc(2 * (nb + 1) * sizeof *at);
    group_t *all = malloc((n_live + 1) * sizeof *all);
    group_t *unchained = malloc((n_live + 1) * sizeof *unchained);
    flip_t *flips = malloc((n_triples + 1) * sizeof *flips);
    uint64_t *words = malloc(nb * (N_ROWS + N_FLOPS + 3) * sizeof *words);
    int64_t steps = -1;
    if (!first || !last_flip || !at || !all || !unchained || !flips
        || !words)
        goto done;
    uint64_t *state = words + nb * N_ROWS, *keep = state + nb * N_FLOPS;
    uint64_t *active = keep + nb, *pending = active + nb, busy = 1;
    uint64_t *fail = out, *latent = out + nb;
    for (int64_t i = 0; i < n_live; i++)
        first[i] = last_flip[i] = -1;
    for (int64_t b = 0; b < 2 * nb; b++)
        out[b] = 0;
    /* each lane starts at its first flip inside [start, n_cycles) */
    for (int64_t e = 0; e < n_triples; e++) {
        int64_t cycle = triples[3 * e], lane = triples[3 * e + 2];
        if (cycle >= lo && cycle < n_cycles
            && (first[lane] < 0 || cycle < first[lane]))
            first[lane] = cycle;
    }
    /* per block: every lane's start group, and the groups of the lanes
       whose upper neighbour does not start one cycle later */
    for (int64_t b = 0; b < nb; b++) {
        at[2 * b] = n_all;
        at[2 * b + 1] = n_unchained;
        keep[b] = active[b] = 0;
        int64_t na = 0, nu = 0;
        for (int64_t bit = 0; bit < 64 && 64 * b + bit < n_live; bit++) {
            int64_t lane = 64 * b + bit, cycle = first[lane];
            if (cycle < 0)
                continue;
            uint64_t one = (uint64_t)1 << bit;
            active[b] |= one;
            add_lane(all + n_all, &na, cycle, one);
            if (bit < 63 && lane + 1 < n_live && first[lane + 1] == cycle + 1)
                keep[b] |= one;
            else
                add_lane(unchained + n_unchained, &nu, cycle, one);
        }
        n_all += na;
        n_unchained += nu;
    }
    at[2 * nb] = n_all;
    at[2 * nb + 1] = n_unchained;
    /* the flips on the lanes' own clocks: step = cycle - lane start */
    for (int64_t e = 0; e < n_triples; e++) {
        int64_t cycle = triples[3 * e], lane = triples[3 * e + 2];
        if (cycle < lo || cycle >= n_cycles)
            continue;
        int64_t step = cycle - first[lane];
        flips[n_flips].step = step;
        flips[n_flips].flop = triples[3 * e + 1];
        flips[n_flips].block = lane / 64;
        flips[n_flips++].lanes = (uint64_t)1 << (lane % 64);
        if (step > last_flip[lane])
            last_flip[lane] = step;
    }
    qsort(flips, n_flips, sizeof *flips, by_step);
    steps = 0;
    if (!n_all)
        goto done;
    const int64_t last = n_cycles;
    for (int64_t b = 0; b < nb; b++) {
        uint64_t *w = words + b * N_ROWS;
        for (int64_t r = 0; r < N_ROWS; r++)
            w[r] = 0;
        gather(w, gold, last, 0, all + at[2 * b], at[2 * b + 2] - at[2 * b],
               0);
        for (int64_t q = 0; q < N_FLOPS; q++)
            state[b * N_FLOPS + q] = w[N_IO + q];
    }
    uint64_t po[N_OUT + 1], nxt[N_FLOPS + 1];
    int64_t k = 0;
    while (busy) {
        if (k < n_flips && flips[k].step == steps) {
            for (; k < n_flips && flips[k].step == steps; k++)
                state[flips[k].block * N_FLOPS + flips[k].flop]
                    ^= flips[k].lanes;
            /* the lanes with a flip of their own still to come */
            for (int64_t b = 0; b < nb; b++)
                pending[b] = 0;
            for (int64_t i = 0; i < n_live; i++)
                if (last_flip[i] > steps)
                    pending[i / 64] |= (uint64_t)1 << (i % 64);
        }
        steps++;
        busy = 0;
        for (int64_t b = 0; b < nb; b++) {
            if (!active[b])
                continue;  /* every lane of it decided: never read again */
            uint64_t *w = words + b * N_ROWS, *s = state + b * N_FLOPS;
            uint64_t diverged = 0, diff = 0, ended = 0;
            circuit_step(w, s, po, nxt);
            for (int64_t o = 0; o < N_OUT; o++)
                diverged |= po[o] ^ w[N_IN + o];
            gather(w, gold, last, keep[b], unchained + at[2 * b + 1],
                   at[2 * b + 3] - at[2 * b + 1], steps);
            for (int64_t q = 0; q < N_FLOPS; q++) {
                diff |= nxt[q] ^ w[N_IO + q];
                s[q] = nxt[q];
            }
            for (int64_t g = at[2 * b]; g < at[2 * b + 2]; g++)
                if (all[g].cycle == n_cycles - steps)  /* ran the last cycle */
                    ended |= all[g].lanes;
            fail[b] |= diverged & active[b];
            latent[b] |= diff & ended & active[b] & ~fail[b];
            active[b] &= (diff | pending[b]) & ~fail[b] & ~ended;
            busy |= active[b];
        }
    }
done:
    free(first);
    free(last_flip);
    free(at);
    free(all);
    free(unchained);
    free(flips);
    free(words);
    return steps;
}

/* the golden run on lane 0 of one block: per cycle the stimulus, the
   outputs and the state entering it, then the final state */
static void golden(const uint8_t *stim, int64_t n_cycles, const uint8_t *init,
                   uint8_t *gold)
{
    uint64_t pis[N_IN + 1], state[N_FLOPS + 1], po[N_OUT + 1],
        nxt[N_FLOPS + 1];
    for (int64_t q = 0; q < N_FLOPS; q++)
        state[q] = init[q] & 1;
    for (int64_t c = 0; c < n_cycles; c++, gold += N_ROWS) {
        for (int64_t i = 0; i < N_IN; i++)
            gold[i] = pis[i] = stim[c * N_IN + i] & 1;
        circuit_step(pis, state, po, nxt);
        for (int64_t o = 0; o < N_OUT; o++)
            gold[N_IN + o] = po[o] & 1;
        for (int64_t q = 0; q < N_FLOPS; q++) {
            gold[N_IO + q] = state[q];
            state[q] = nxt[q] & 1;
        }
    }
    for (int64_t r = 0; r < N_IO; r++)
        gold[r] = 0;
    for (int64_t q = 0; q < N_FLOPS; q++)
        gold[N_IO + q] = state[q];
}

const struct {
    void (*step)(const uint64_t *restrict, const uint64_t *restrict,
                 uint64_t *restrict, uint64_t *restrict);
    int64_t (*walk)(const uint8_t *, int64_t, int64_t, const int64_t *,
                    int64_t, int64_t, uint64_t *);
    void (*golden)(const uint8_t *, int64_t, const uint8_t *, uint8_t *);
} rescue_kernel = {circuit_step, walk, golden};
"""
