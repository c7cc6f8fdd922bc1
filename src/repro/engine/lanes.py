"""Lane-packed injection simulation: the temporal axis of bit-parallelism.

The packed-pattern trick that makes PPSFP cheap — one Python int carries
one net across *n* patterns — applies just as well across *injections*:
a chunk of up to ``DEFAULT_LANE_WIDTH`` injection points is simulated in
**one** sequential run where bit-lane *i* carries fault instance *i*.
All lanes replay the same workload from the golden state and diverge
only when their own fault is injected, which for the sequential fault
models in this toolkit is a per-lane XOR of the flop state
(:meth:`repro.sim.sequential.SequentialSim.flip_state` with a
``pattern_mask``).  Outcomes come back per lane by XOR against the
golden trace:

* **failure** — the lane's primary-output bits differ from golden in
  some cycle;
* **latent**  — outputs match but the lane's final state differs;
* **masked**  — neither.

The cost of a packed run is one circuit evaluation per *executed* step
regardless of lane count (Python bigint bitwise ops are width-insensitive
at these sizes), so a ``W``-lane run replaces ``W`` sequential
resimulations — and only the steps in which some lane is still
**undecided** are executed.  An injected lane is decided within a few
cycles of its flip: its primary outputs have diverged (``failure``,
sticky), or its state is back on the golden state, from where its whole
future is golden (``masked``).  One walker spends that fact
(:func:`_propagate_skewed`): every lane runs on **its own clock**.
Lane *i*, flipped at cycle ``s_i``, is at cycle ``s_i + t`` at walk
step *t*, fed that cycle's golden stimulus bit and compared against
that cycle's golden output and state bits, so all lanes flip at step 0
and a walk lasts as long as its *slowest lane* takes to be decided — a
dozen steps, wherever in the workload the flips fall.

The walker owns the schedule and the retire arithmetic, and it runs on
one **carrier** at every width: the packed lane word of one bit per
lane and net.  Its one schedule format is a flat ``array("q")`` of
``(cycle, flop index, lane)`` **flip triples**, one per flip, which the
front ends emit straight from their points (:func:`_propagate`;
:func:`propagate` adapts a ``{cycle: {flop: lane mask}}`` mapping).
Where it can, the whole walk runs natively: the step program's C walker
(:attr:`repro.sim.compiled.StepProgram.native`) reads the triples in
place and runs schedule, golden gather and lane sets over as many
64-lane ``uint64_t`` blocks as the lanes present occupy, and the golden
pass of :func:`build_context` runs on the same C step.
Without a C compiler (or when its build or load fails)
:class:`_IntLanes` runs it in Python, an arbitrary-precision int per net
driven through the compiled step function — the word simply outgrows
the machine word beyond 64 lanes, and big-int ops stay near
width-insensitive to very large widths.  The Python walker is the
reference the native one is tested against.  Both walkers execute the
same number of steps for the same schedule and are byte-identical to
the 64-lane and 1-lane references, and to the reference interpreter
that runs underneath them — every cycle from the first flip to the end
of the workload — when compilation is off.  Both run on the standard
library alone at every width, so a lane width means the same chunk
partition, and the same campaign, on every host.

Two front-ends are provided: :func:`seu_outcomes` (flip one flop at one
cycle — :class:`repro.engine.backends.SeuBackend`) and
:func:`transient_outcomes` (arbitrary injection-cycle physics already
answered by the backend, e.g. a transient stuck-at, and handed over as
per-point columns; the lane carries the resulting *state perturbation*
— :class:`repro.engine.workloads.SlicingBackend`).  Both are provably
lane-exact: each lane computes the same boolean function of the same
inputs as the per-point simulation, so outcome multisets are
byte-identical at every lane width.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress
from operator import itemgetter, or_, xor
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..circuit.netlist import Circuit
from ..sim import compiled as _compiled
from ..sim import vector as _vector
from ..sim.logic import mask_of
from ..sim.sequential import SequentialSim
from .core import _chunked

#: Default number of fault instances packed into one sequential run.
DEFAULT_LANE_WIDTH = 64


def check_lane_width(width: int) -> None:
    """Reject a lane width that is not an ``int`` >= 1 (``bool`` is not a
    width) — what backends call at construction, in the parent.  Read
    leniently, ``0`` or ``True`` would select the per-point path and
    ``2.5`` a width nobody asked for."""
    if isinstance(width, bool) or not isinstance(width, int) or width < 1:
        raise ValueError(f"lane_width must be an int >= 1, got {width!r}")


def aligned_batch_size(lane_width: int, batch_size: int,
                       default_batch_size: int = DEFAULT_LANE_WIDTH) -> int:
    """The engine's effective chunk size for a lane-packing backend.

    Chunks are aligned *down* to a lane multiple so no chunk ships a
    ragged final lane group, and a still-default batch size is inflated
    to fill one vector-tier lane word (a 64-point chunk on a 256-lane
    backend would waste three quarters of every packed run).  The result
    is a pure function of ``(lane_width, configured batch size)`` — the
    chunk partition, and with it every checkpoint's chunk index, is
    recomputed identically when a campaign resumes.
    """
    size = max(1, batch_size)
    if lane_width > 1 and size > lane_width:
        size -= size % lane_width
    elif lane_width > 64 and size < lane_width \
            and batch_size == default_batch_size:
        size = lane_width
    return size

MASKED = "masked"
LATENT = "latent"
FAILURE = "failure"

#: The lane walkers' outcomes; a lane's outcome code indexes this.
OUTCOMES = (MASKED, LATENT, FAILURE)

_FAILURE_CODE = OUTCOMES.index(FAILURE)
_LATENT_CODE = OUTCOMES.index(LATENT)
# binary digits -> codes, one translate per packed word
_FAIL_CODES = bytes.maketrans(b"01", bytes((0, _FAILURE_CODE)))
#: A failed-now flag to its code: any non-zero flag fails.
_FAILED_NOW_CODES = bytes((0,)) + bytes((_FAILURE_CODE,)) * 255
_LATENT_CODES = bytes.maketrans(b"01", bytes((0, _LATENT_CODE)))


def lane_groups(items: Sequence[Any], width: int) -> list[Sequence[Any]]:
    """Split ``items`` into consecutive groups of at most ``width`` —
    the engine's chunking rule, clamped to a sane width."""
    return _chunked(items, max(1, width))


def _cycle_order(cycles: Sequence[int]) -> list[int]:
    """Point indices by ascending injection cycle, ties in point order.

    Every lane runs on its own clock, so a group executes the same
    number of steps in any order; the sort keeps the walkers' golden
    gathers cheap: neighbouring lanes share a start cycle or follow each
    other by one, so a 64-lane block holds few distinct start cycles
    (one gather each)."""
    return sorted(range(len(cycles)), key=cycles.__getitem__)


def packed_codes(points: Sequence[Any], cycles: Sequence[int], width: int,
                 codes_fn: Callable[[list[Any]], bytes]) -> bytes:
    """Group ``points`` into lanes by ascending cycle (``cycles[i]`` is
    point *i*'s) and classify them: one outcome code per point, in point
    order — what ``run_batch`` must preserve for executor-identity.
    ``codes_fn`` returns one code per point of a group.  Sorting and
    scattering are ``sorted`` / ``map`` over the cycle column, no
    per-point Python; a chunk already in cycle order is not scattered."""
    order = _cycle_order(cycles)
    in_order = order == list(range(len(order)))
    if in_order and len(order) <= width:
        return codes_fn(points)  # one group, in order: nothing to move
    got = b"".join(codes_fn(list(map(points.__getitem__, group)))
                   for group in lane_groups(order, width))
    if in_order:
        return got
    # got[j] belongs to point order[j]: the inverse permutation reads it
    return bytes(map(got.__getitem__,
                     sorted(range(len(order)), key=order.__getitem__)))


def packed_dispatch(
    points: Sequence[Any],
    width: int,
    cycle_of: Callable[[Any], int],
    outcomes_fn: Callable[[list[Any]], Sequence[Any]],
) -> list[Any]:
    """:func:`packed_codes`' lane groups for any per-point results,
    returned in point order.  No backend calls it: it is how
    ``benchmarks/campaign/probes.py`` replays the groups a chunk is
    walked in."""
    order = _cycle_order(list(map(cycle_of, points)))
    outcomes: list[Any] = [None] * len(points)
    for group in lane_groups(order, width):
        got = outcomes_fn([points[i] for i in group])
        for i, outcome in zip(group, got):
            outcomes[i] = outcome
    return outcomes


@dataclass
class LaneContext:
    """The golden run shared by every packed run, kept once, as bits.

    Built once per backend ``prepare()`` and never pickled (workers
    rebuild it): per cycle the 1-bit stimulus, the 1-bit golden PO
    trace and the 1-bit golden state *entering* the cycle (what a packed
    run starting mid-workload is seeded from), plus the golden final
    state (the latent check reference).  Each compiled walker derives
    its own layout of these on first use (:meth:`golden_table`) — the
    native walker's comes ready-made from the C golden pass where that
    ran — and the interpreter reference replicates a bit across the
    lanes on the fly.
    """

    circuit: Circuit
    width: int
    stimuli: list[dict[str, int]]
    trace: list[dict[str, int]]
    states: list[dict[str, int]]
    final_state: dict[str, int]
    #: Steps the walker executed on this context, natively or in Python
    #: (a walk lasts as long as its slowest lane takes to be decided).
    steps_run: int = 0
    #: The one carrier, a packed lane word at every width: a retired-name
    #: shim for callers that still read which carrier a context runs.
    backing = "int"

    @property
    def n_cycles(self) -> int:
        return len(self.stimuli)

    @cached_property
    def flop_index(self) -> dict[str, int]:
        """A flop's index in a flip triple: its place in the circuit's
        flop order, which is the step program's."""
        return {q: i for i, q in enumerate(self.circuit.flops)}

    def golden_table(self, program, layout: Callable[[list], Any]) -> Any:
        """The golden run in a walker's ``layout``, built on the first
        compiled propagation in that layout and rebuilt if the program
        cache was invalidated (one table per layout: a context may be
        walked by more than one walker).

        ``layout`` receives one list of golden bits per cycle — a bit
        per *row*: the program's inputs, then its outputs, then its
        flops (the state *entering* the cycle).  There are ``n_cycles +
        1`` of them: the last carries the golden final state ("entering"
        the cycle after the workload), so the test that a lane is back
        on golden and the latent check are the same comparison.
        """
        tables = self.__dict__.setdefault("_tables", {})
        cached = tables.get(layout)
        if cached is None or cached[0] is not program:
            bits = [[stim[pi] for pi in program.inputs]
                    + [trace[po] for po in program.outputs]
                    + [state[q] for q in program.flop_qs]
                    for stim, trace, state in zip(
                        self.stimuli, self.trace, self.states)]
            n_io = len(program.inputs) + len(program.outputs)
            bits.append([0] * n_io
                        + [self.final_state[q] for q in program.flop_qs])
            tables[layout] = cached = (program, layout(bits))
        return cached[1]


def build_context(
    circuit: Circuit,
    stimuli: Sequence[Mapping[str, int]],
    width: int,
    golden: tuple[list[dict[str, int]], list[dict[str, int]]] | None = None,
    backing: str | None = None,
) -> LaneContext:
    """Run (or reuse) the golden pass and keep it for ``width`` lanes.

    The pass is one 1-bit run of the step program the packed runs use
    anyway: in C when its native walker loads
    (:meth:`repro.sim.native.LaneWalker.golden`, which lays out the
    walker's golden table directly, so the campaign never builds the int
    kernel), else one :class:`~repro.sim.sequential.SequentialSim` run on
    the compiled step function, or on the interpreter when compilation
    is off.

    ``golden`` may hand in an existing ``(states, values)`` pair in the
    :func:`repro.safety.slicing._golden_states` format — per-cycle
    entering states plus full net values — to avoid a second golden
    simulation when the backend already keeps one.

    ``backing`` is a retired-name shim: every width runs on the one
    carrier, so ``None``, ``"int"`` and the retired ``"soa"`` all build
    the same context, and any other name raises ``ValueError``.
    """
    if backing not in (None, "int", "soa"):
        raise ValueError(f"unknown lane backing {backing!r}: every width "
                         "runs on the one packed-int carrier")
    bit_stimuli = [{pi: stim.get(pi, 0) & 1 for pi in circuit.inputs}
                   for stim in stimuli]
    program = None if golden is not None \
        else _compiled.step_program(circuit)
    if program is not None and program.native is not None:
        return _native_context(circuit, width, bit_stimuli, program)
    if golden is not None:
        states = [dict(st) for st in golden[0]]
        values = golden[1]
        trace = [{po: vals.get(po, 0) & 1 for po in circuit.outputs}
                 for vals in values]
        final_state = ({q: values[-1][f.d] & 1
                        for q, f in circuit.flops.items()} if values else
                       dict(states[0]) if states else
                       {q: (1 if f.init else 0)
                        for q, f in circuit.flops.items()})
    else:
        sim = SequentialSim(circuit, 1)
        states, trace = [], []
        for stim in stimuli:
            states.append(sim.state)  # step() rebinds, never mutates
            trace.append(sim.step(stim))
        final_state = sim.state
    return LaneContext(circuit, width, bit_stimuli, trace, states,
                       final_state)


def _native_context(circuit: Circuit, width: int,
                    bit_stimuli: list[dict[str, int]],
                    program) -> LaneContext:
    """The golden pass in C: its table is the native walker's
    (:func:`_byte_table` layout) as it stands, and the per-cycle dicts
    the Python walker and the interpreter read are cut from it."""
    inputs, outputs, flops = program.inputs, program.outputs, program.flop_qs
    n_in, n_io = len(inputs), len(inputs) + len(outputs)
    n_rows = n_io + len(flops)
    stim = bytes(bits[pi] for bits in bit_stimuli for pi in inputs)
    init = bytes(map(bool, program.flop_inits))
    n_cycles = len(bit_stimuli)
    gold = program.native.golden(stim, n_cycles, init)
    rows = range(0, n_cycles * n_rows, n_rows)
    ctx = LaneContext(
        circuit, width, bit_stimuli,
        [dict(zip(outputs, gold[at + n_in:at + n_io])) for at in rows],
        [dict(zip(flops, gold[at + n_io:at + n_rows])) for at in rows],
        dict(zip(flops, gold[n_cycles * n_rows + n_io:])))
    ctx.__dict__["_tables"] = {_byte_table: (program, gold)}
    return ctx


def check_cycles(cycles: Sequence[int], n_cycles: int) -> None:
    """Reject injection cycles outside ``[0, n_cycles)`` — what backends
    call at construction, in the parent.  Simulated, such a point is a
    silent wrong answer: a negative cycle wraps into golden-run data
    (differently per lane width), and one past the workload is a flip
    that never happens — it reads a 0 bit off the packed words where the
    per-point path raises ``IndexError``, or comes back ``masked``.
    The message names the first few offending cycles and counts the
    rest."""
    bad = [cycle for cycle in cycles if not 0 <= cycle < n_cycles]
    if bad:
        more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
        raise ValueError(f"injection cycles outside the {n_cycles}-cycle "
                         f"workload: {bad[:3]}{more}")


def propagate(ctx: LaneContext, flips: Mapping[int, Mapping[str, int]],
              start: int, n_lanes: int) -> tuple[int, int]:
    """One packed fault-free propagation with scheduled per-lane flips.

    ``flips[cycle][flop]`` is the lane mask XORed into that flop's state
    *before* the cycle is evaluated (an SEU flip, or the state delta a
    transient injection left behind); lanes at or above ``n_lanes`` (or
    the context's width) are not run.  A thin adapter: the mask bits go
    to :func:`_propagate` as the flip triples the front ends build
    directly.

    Returns ``(fail_mask, latent_mask)``: lanes whose PO bits diverged
    from the golden trace in some cycle, and lanes whose final state
    differs without any PO divergence.
    """
    n_live = min(n_lanes, ctx.width)
    index = ctx.flop_index
    triples = array("q")
    for cyc, due in flips.items():
        for q, lane_mask in due.items():
            if lane_mask.bit_length() > n_live:
                lane_mask &= mask_of(n_live)
            while lane_mask:
                lane = lane_mask.bit_length() - 1
                triples.extend((cyc, index[q], lane))
                lane_mask ^= 1 << lane
    return _propagate(ctx, triples, start, n_live)


def _propagate(ctx: LaneContext, triples: array, start: int,
               n_live: int) -> tuple[int, int]:
    """The packed propagation of ``n_live`` lanes under one flip
    schedule: ``triples`` is an ``array("q")`` of flat ``(cycle, flop
    index, lane)`` triples, one per flip (:attr:`LaneContext
    .flop_index`; a triple repeated flips twice).  Lanes are golden until
    their first flip, so starting at ``start`` (the earliest flip cycle)
    from the golden entering-state loses nothing; flips scheduled before
    ``start`` or past the workload never fire.  A lane outside ``[0,
    n_live)`` or an unknown flop index raises ``ValueError``.

    The compiled walker (:func:`_propagate_skewed`, in C where the
    program's native walker loads) executes a step only while some lane
    is still undecided.  With compilation off (``RESCUE_NO_COMPILE`` /
    ``compiled.disabled()``, possibly entered after the context was
    built) there is no program and the reference interpreter below runs
    every cycle from ``start`` to the end of the workload — the
    full-length reference both walkers are tested against.
    """
    program = _compiled.step_program(ctx.circuit)
    if program is not None:
        kernel = program.native
        if kernel is not None:
            fail, latent, steps = kernel.walk(
                ctx.golden_table(program, _byte_table), ctx.n_cycles,
                triples, start, n_live)
            ctx.steps_run += steps
            return fail, latent
        return _propagate_skewed(ctx, program, triples, start, n_live)
    mask = mask_of(ctx.width)
    flops = list(ctx.circuit.flops)
    flips: dict[int, dict[str, int]] = {}
    for cyc, q, lane in _fired(triples, start, ctx.n_cycles, n_live,
                               len(flops)):
        per_cycle = flips.setdefault(cyc, {})
        per_cycle[flops[q]] = per_cycle.get(flops[q], 0) ^ 1 << lane

    def replicated(bits: Mapping[str, int]) -> dict[str, int]:
        return {net: mask if bit else 0 for net, bit in bits.items()}

    sim = SequentialSim(ctx.circuit, ctx.width)
    sim.state.update(replicated(ctx.states[start]))
    sim.cycle = start
    fail = 0
    for cyc in range(start, ctx.n_cycles):
        for q, lane_mask in flips.get(cyc, {}).items():
            sim.flip_state(q, lane_mask)
        out = sim.step(replicated(ctx.stimuli[cyc]))
        golden = replicated(ctx.trace[cyc])
        for po, val in out.items():
            fail |= val ^ golden[po]
    diff = 0
    for q, word in replicated(ctx.final_state).items():
        diff |= sim.state[q] ^ word
    lanes = mask_of(n_live)
    fail &= lanes
    return fail, diff & lanes & ~fail


def _fired(triples: array, start: int, n_cycles: int, n_live: int,
           n_flops: int) -> list[tuple[int, int, int]]:
    """The triples of the Python walkers that fire — cycle inside
    ``[max(start, 0), n_cycles)`` — once every triple is checked as the
    native walker checks it."""
    lo = max(start, 0)  # a negative index would wrap into golden data
    it = iter(triples)
    fired = []
    for cyc, q, lane in zip(it, it, it):
        if not (0 <= lane < n_live and 0 <= q < n_flops):
            raise ValueError(f"flip triple (cycle, flop, lane) = "
                             f"{(cyc, q, lane)} names a lane outside "
                             f"[0, {n_live}) or an unknown flop")
        if lo <= cyc < n_cycles:
            fired.append((cyc, q, lane))
    return fired


def _diverged(words: Sequence[int], golden: Sequence[int]) -> int:
    """Lanes in which any word differs from its golden counterpart."""
    return reduce(or_, map(xor, words, golden), 0)


def _propagate_skewed(ctx: LaneContext, program, triples: array,
                      start: int, n_live: int) -> tuple[int, int]:
    """The compiled packed propagation: every lane on its own clock.

    Lane *i*, whose first flip is due at cycle ``s_i``, does not sit in
    golden state until a shared clock reaches ``s_i``: at walk step *t*
    it **is** at cycle ``s_i + t``.  Its bit of every stimulus word,
    golden output word and golden state word is therefore that net's
    golden bit at ``s_i + t`` (gathered per 64-lane block), every lane
    takes its first flip at *t* = 0, and a later flip of the same lane,
    due at cycle *c*, fires at step ``c - s_i``
    (:func:`_skewed_schedule`).  After each step a lane leaves the
    active set when it has failed (sticky), when it is back on its own
    golden state with no flip of its own still to come (its future is
    golden: masked), or when it has run the last workload cycle (a state
    still off the golden final state is then its latent bit).  The walk
    ends when no lane is active: after as many steps as the slowest lane
    took to be decided, not ``last flip - first flip + settle``.

    Exact for the reason the module docstring gives: lanes are
    independent bit positions of one boolean function, so which cycle's
    inputs a lane is fed is nobody's business but its own.  A retired
    lane keeps computing on whatever it is fed and is never read again.

    This is the Python walker, the reference the native one
    (:data:`repro.sim.compiled._C_WALKER`, the same schedule, gather and
    lane sets from the same triples, so the same outcomes and the same
    ``steps_run``) is tested against and the fallback where it does not
    load.  The schedule and the lane sets (Python ints — a 4096-bit int
    is free next to a circuit step) live here and :class:`_IntLanes`
    stores the lane word: ``flip(due)`` XORs lane masks into flop
    states, ``step()`` runs one cycle and answers with the lanes whose
    outputs diverged from their golden bits in it and the lanes whose
    state differs from the golden state entering the next.
    """
    starts, sched, waiting = _skewed_schedule(
        _fired(triples, start, ctx.n_cycles, n_live, len(program.flop_qs)))
    if not starts:  # no live lane flips inside the workload
        return 0, 0
    n_cycles = ctx.n_cycles
    word = _IntLanes(ctx, program, starts, mask_of(n_live))
    active = reduce(or_, starts.values())  # every lane that flips at all
    fail = latent = pending = 0
    step = 0
    while active:
        due = sched.get(step)
        if due:
            word.flip(due)
            pending = waiting[step]
        diverged, diff = word.step()
        fail |= diverged & active
        step += 1
        ended = starts.get(n_cycles - step, 0)  # ran the last cycle
        latent |= diff & ended & active & ~fail
        active &= (diff | pending) & ~fail & ~ended
    ctx.steps_run += step
    return fail, latent


def _skewed_schedule(fired: Sequence[tuple[int, int, int]]
                     ) -> tuple[dict[int, int], dict[int, dict[int, int]],
                                dict[int, int]]:
    """The ``fired`` triples re-timed to the lanes' own clocks:
    ``starts[c]`` are the lanes whose first flip is due at cycle ``c``,
    ``sched[t][q]`` the lanes that flip flop index ``q`` at walk step
    ``t`` — their own start plus ``t`` — and ``waiting[t]`` the lanes
    with a flip of their own still to come once step ``t``'s flips are
    in."""
    first: dict[int, int] = {}
    for cyc, _, lane in fired:
        if first.get(lane, cyc) >= cyc:
            first[lane] = cyc
    starts: dict[int, int] = {}
    for lane, cyc in first.items():
        starts[cyc] = starts.get(cyc, 0) | 1 << lane
    sched: dict[int, dict[int, int]] = {}
    flipping: dict[int, int] = {}  # the lanes with a flip at step t
    for cyc, q, lane in fired:
        at = cyc - first[lane]
        due = sched.setdefault(at, {})
        due[q] = due.get(q, 0) ^ 1 << lane
        flipping[at] = flipping.get(at, 0) | 1 << lane
    waiting, later = {}, 0
    for at in sorted(sched, reverse=True):
        waiting[at] = later
        later |= flipping[at]
    return starts, sched, waiting


def _byte_table(bits: Sequence[Sequence[int]]) -> bytes:
    """:meth:`LaneContext.golden_table` layout of the native walker: one
    byte (0 or 1) per row per cycle, cycle-major."""
    return bytes(map(bool, chain.from_iterable(bits)))


class _IntLanes:
    """The packed-int lane word: one Python int per net, advanced by the
    compiled step function on raw slot tuples, its golden words gathered
    by :func:`_skewed_golden`."""

    def __init__(self, ctx: LaneContext, program, starts: Mapping[int, int],
                 live: int) -> None:
        self.n_in = len(program.inputs)
        self.n_io = self.n_in + len(program.outputs)
        self.fn = program.fn
        self.live = live
        self.golden = _skewed_golden(ctx, program, starts,
                                     _vector.blocks_for(live.bit_length()))
        self.rows = next(self.golden)
        self.state = self.rows[self.n_io:]

    def flip(self, due: Mapping[int, int]) -> None:
        state = self.state = list(self.state)
        for q, lane_mask in due.items():
            state[q] ^= lane_mask

    def step(self) -> tuple[int, int]:
        rows, n_in, n_io = self.rows, self.n_in, self.n_io
        out, self.state = self.fn(rows[:n_in], self.state, self.live)
        self.rows = ahead = next(self.golden)
        return (_diverged(out, rows[n_in:n_io]),
                _diverged(self.state, ahead[n_io:]))


def _strided_table(bits: Sequence[Sequence[int]]) -> tuple:
    """:meth:`LaneContext.golden_table` layout of the Python walker: one
    strided word per cycle with a 64-bit field per row whose bit 0 is
    the row's golden bit, so ``table[cycle] * m`` is the golden word of
    every row at once for the lanes ``m < 2**64`` of one block.  Returns
    ``(table, unit, fields)``: ``unit`` has bit 0 of every field set,
    ``fields`` is the :class:`struct.Struct` that splits a strided word
    into its rows."""
    one, zero = (1).to_bytes(8, "little"), bytes(8)

    def strided(row_bits) -> int:
        return int.from_bytes(
            b"".join(one if bit else zero for bit in row_bits), "little")

    n_rows = len(bits[0])
    return ([strided(row_bits) for row_bits in bits],
            strided([1] * n_rows), struct.Struct(f"<{n_rows}Q"))


def _block_words(word: int, n_blocks: int) -> tuple[int, ...]:
    """``word`` cut into ``n_blocks`` 64-lane blocks (one pass)."""
    if n_blocks == 1:
        return (word,)
    return struct.unpack(f"<{n_blocks}Q", word.to_bytes(8 * n_blocks,
                                                        "little"))


def _skewed_golden(ctx: LaneContext, program, starts: Mapping[int, int],
                   n_blocks: int) -> Iterator[Sequence[int]]:
    """For walk step *t* = 0, 1, ...: the golden word of every row of
    :meth:`LaneContext.golden_table` whose bit-lane *i* is the row's
    golden bit at cycle ``s_i + t`` — ``starts[c]`` being the lanes
    with ``s_i == c``.  A lane past the end of the workload reads
    unspecified bits (it has been retired by then).

    The lane word is gathered in 64-lane blocks, which keeps the work
    linear in lane count: within a block the table's fields do not
    overlap, so the lanes ``m`` of the block that share a start cycle
    ``c`` are placed by one multiplication, ``table[c + t] * m``.  Per
    block and step that is one product per *distinct* start cycle — two
    or three in a cycle-sorted wide group.  A group whose lanes start at
    consecutive cycles (one flop at 64 cycles running: the flop-major
    default chunk) has 64 of them, but there lane ``i`` at step ``t``
    needs exactly the bit lane ``i + 1`` held at step ``t - 1``: such
    *chained* lanes are advanced by one shift of the block's previous
    word, and only the lanes with no such upper neighbour are gathered
    from the table.  The blocks are then transposed into one word per
    row: :mod:`struct` splits a single block, and past one block row *r*
    is the stride slice ``flat[r::n_rows]`` of the blocks' fields read
    as one ``array("Q")`` — the slice moves whole 8-byte items, so the
    little-endian bytes come back out unchanged whatever the host's
    byte order.
    """
    table, unit, fields = ctx.golden_table(program, _strided_table)
    last = len(table) - 1
    split = {cyc: _block_words(group, n_blocks)
             for cyc, group in starts.items()}
    nobody = (0,) * n_blocks
    keep = [0] * n_blocks
    everyone: list[list] = [[] for _ in range(n_blocks)]
    unchained: list[list] = [[] for _ in range(n_blocks)]
    for cyc, group in split.items():
        above = split.get(cyc + 1, nobody)
        for block, word in enumerate(group):
            if word:
                # lanes whose upper neighbour, in the same block (the
                # shift must not cross one), starts one cycle later
                chained = word & (above[block] >> 1)
                keep[block] |= chained
                everyone[block].append((cyc, word))
                if word != chained:
                    unchained[block].append((cyc, word ^ chained))
    keep = [chained * unit for chained in keep]  # in every field
    words = [0] * n_blocks
    gathered = everyone  # step 0 has no previous word to shift
    n_rows = fields.size // 8
    step = 0
    while True:
        for block, groups in enumerate(gathered):
            word = (words[block] >> 1) & keep[block]
            for cyc, lanes_ in groups:
                if cyc + step <= last:
                    word |= table[cyc + step] * lanes_
            words[block] = word
        if n_blocks == 1:
            yield fields.unpack(words[0].to_bytes(fields.size, "little"))
        else:
            flat = array("Q", b"".join(word.to_bytes(fields.size, "little")
                                       for word in words))
            yield [int.from_bytes(flat[row::n_rows].tobytes(), "little")
                   for row in range(n_rows)]
        gathered = unchained
        step += 1


def _lane_codes(fail: int, latent: int, count: int) -> bytes:
    """Per-lane outcome codes (indexes into :data:`OUTCOMES`) from the
    packed fail/latent words, one byte per lane.

    Lane *i* is digit *i* of each word's reversed binary string, and one
    ``translate`` per word turns its digits into codes: one pass per
    word, where a per-lane ``(word >> i) & 1`` probe rescans the big int
    per lane — quadratic in width once words span thousands of bits.
    Fail wins where both bits are set (they can't be, but keep the
    precedence explicit).
    """
    if count <= 0:
        return b""
    fails = format(fail, f"0{count}b")[::-1][:count].encode()
    latents = format(latent & ~fail, f"0{count}b")[::-1][:count].encode()
    codes = (int.from_bytes(fails.translate(_FAIL_CODES), "little")
             | int.from_bytes(latents.translate(_LATENT_CODES), "little"))
    return codes.to_bytes(count, "little")


def seu_outcomes(ctx: LaneContext,
                 points: Sequence[tuple[str, int]]) -> bytes:
    """Classify up to ``ctx.width`` SEU points in one packed run: one
    outcome code per point (an index into :data:`OUTCOMES`).

    Lane *i* flips ``points[i] = (flop, cycle)`` before that cycle is
    evaluated — exactly :func:`repro.soft_error.seu.inject_seu`'s
    semantics — and the masked/latent/failure split is recovered per
    lane by XOR against the shared golden trace.
    """
    n = len(points)
    if n > ctx.width:
        raise ValueError(f"{n} points exceed lane width {ctx.width}")
    index, n_cycles = ctx.flop_index, ctx.n_cycles
    lanes = list(range(n))
    cycles = list(map(itemgetter(1), points))
    if not (n and 0 <= min(cycles) and max(cycles) < n_cycles):
        # outside the workload a flip never fires: provably masked,
        # matching inject_seu (a negative index must not reach the
        # context lists, where it would wrap around)
        lanes = [lane for lane in lanes if 0 <= cycles[lane] < n_cycles]
        if not lanes:
            return bytes(n)
        points = list(map(points.__getitem__, lanes))
        cycles = list(map(cycles.__getitem__, lanes))
    # one (cycle, flop index, lane) triple per flip, interleaved by
    # strided slice assignment
    triples = array("q", bytes(24 * len(lanes)))
    triples[0::3] = array("q", cycles)
    triples[1::3] = array("q", [index[flop] for flop, _ in points])
    triples[2::3] = array("q", lanes)
    fail, latent = _propagate(ctx, triples, min(cycles), n)
    return _lane_codes(fail, latent, n)


def transient_outcomes(
    ctx: LaneContext,
    cycles: Sequence[int],
    failed_now: Sequence[int],
    perturbed: Sequence[Sequence[int]],
) -> bytes:
    """Classify transient injections: one outcome code per point (an
    index into :data:`OUTCOMES`).

    The points come as columns: point *i* is injected at ``cycles[i]``,
    and the backend-specific injection cycle has already been answered
    against golden data — ``failed_now[i]`` (a byte) is non-zero where
    a primary output differs in the injection cycle itself,
    ``perturbed[i]`` lists the indexes (:attr:`LaneContext.flop_index`)
    of the flops whose state entering ``cycles[i] + 1`` the fault leaves
    flipped.  (:class:`repro.engine.workloads.SlicingBackend` reads both
    off one pair of words per fault covering a whole window of cycles.)
    Points that fail immediately, leave no perturbation (masked), or
    perturb only the post-workload state (latent) are resolved without
    a lane; the rest take lanes in ascending cycle order (what
    :func:`packed_codes` gives :func:`seu_outcomes`: cheap golden
    gathers) and share one packed propagation per ``ctx.width`` lanes.
    A cycle outside the workload raises ``ValueError``.
    """
    n_cycles = ctx.n_cycles
    if cycles and not (0 <= min(cycles) and max(cycles) < n_cycles):
        # a negative index would silently wrap into golden data here
        # (and in the per-point reference), one past the workload has
        # no golden data to inject against — refuse loudly
        bad = next(cyc for cyc in cycles if not 0 <= cyc < n_cycles)
        raise ValueError(f"injection cycle {bad} is outside the "
                         f"{n_cycles}-cycle workload")
    # failed now, else masked unless perturbed below
    codes = bytearray(bytes(failed_now).translate(_FAILED_NOW_CODES))
    last = n_cycles - 1
    laned: list[int] = []
    for i in compress(range(len(cycles)), perturbed):
        if codes[i]:
            continue
        if cycles[i] == last:
            codes[i] = _LATENT_CODE  # perturbed state survives to the end
        else:
            laned.append(i)
    laned.sort(key=cycles.__getitem__)
    for group in lane_groups(laned, ctx.width):
        triples = array("q")
        for lane, i in enumerate(group):
            cyc = cycles[i] + 1
            for k in perturbed[i]:
                triples.extend((cyc, k, lane))
        fail, latent = _propagate(ctx, triples, cycles[group[0]] + 1,
                                  len(group))
        for i, code in zip(group, _lane_codes(fail, latent, len(group))):
            codes[i] = code
    return bytes(codes)
