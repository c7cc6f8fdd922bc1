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

The walker owns the schedule and the retire arithmetic (lane sets are
Python ints); how the packed word is *stored* is a **carrier**, and one
function (:func:`resolve_backing`, called once per
:func:`build_context`) picks between the two.  ``"int"``
(:class:`_IntLanes`) is an arbitrary-precision int per net driven
through the compiled step function (:class:`repro.sim.compiled
.StepProgram`) — the word simply outgrows the machine word beyond 64
lanes, and big-int ops stay near width-insensitive to very large
widths.  ``"soa"`` (:class:`_SoaLanes`) — the choice from ~1k lanes on
circuits with wide levels — is the structure-of-arrays kernel
(:class:`repro.sim.compiled.SoaStepProgram`), which holds the whole net
state in one 2-D block matrix and runs each topological level as a
handful of fused numpy calls; flips are XORs into its flop rows and the
golden rows of a step are gathered *per 64-lane block*, not per lane
(``packed_dispatch`` sorts lanes by injection cycle, so a block holds
two to four distinct start cycles).  Both carriers execute the same
number of steps for the same schedule and are byte-identical to the
64-lane and 1-lane references, and to the reference interpreter that
runs underneath them — every cycle from the first flip to the end of
the workload — when compilation is off.  Without numpy installed,
widths above 64 degrade to 64 with a one-time logged warning
(:func:`resolve_lane_width`).

Two front-ends are provided: :func:`seu_outcomes` (flip one flop at one
cycle — :class:`repro.engine.backends.SeuBackend`) and
:func:`transient_outcomes` (arbitrary injection-cycle physics supplied
by the backend, e.g. a transient stuck-at; the lane carries the
resulting *state perturbation* — :class:`repro.engine.workloads
.SlicingBackend`).  Both are provably lane-exact: each lane computes the
same boolean function of the same inputs as the per-point simulation,
so outcome multisets are byte-identical at every lane width.
"""

from __future__ import annotations

import logging
import struct
import threading
from dataclasses import dataclass, field
from functools import reduce
from operator import or_, xor
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..circuit.netlist import Circuit
from ..sim import compiled as _compiled
from ..sim import vector as _vector
from ..sim.logic import mask_of
from ..sim.sequential import SequentialSim
from .core import _chunked

log = logging.getLogger("repro.engine")

#: Default number of fault instances packed into one sequential run.
DEFAULT_LANE_WIDTH = 64


def resolve_lane_width(width: int) -> int:
    """Clamp a requested lane width to what the host supports.

    Widths above 64 are declared against numpy (the SoA carrier and the
    one-pass unpacking of wide outcome words need it); without it they
    degrade to the classic 64-lane packing with a one-time logged
    warning.  (Outcomes are identical at every width, so degradation
    only costs throughput.)
    """
    width = max(1, int(width))
    if width > DEFAULT_LANE_WIDTH and not _vector.HAVE_NUMPY:
        _vector._warn_no_numpy(f"lane width {width} requested")
        return DEFAULT_LANE_WIDTH
    return width


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


def lane_groups(items: Sequence[Any], width: int) -> list[Sequence[Any]]:
    """Split ``items`` into consecutive groups of at most ``width`` —
    the engine's chunking rule, clamped to a sane width."""
    return _chunked(items, max(1, width))


def packed_dispatch(
    points: Sequence[Any],
    width: int,
    cycle_of: Callable[[Any], int],
    outcomes_fn: Callable[[list[Any]], list[str]],
) -> list[str]:
    """Group ``points`` into lanes and classify them, in point order.

    Points are visited by ascending injection cycle, but the returned
    outcome list follows the original point order — what ``run_batch``
    must preserve for executor-identity.  Every lane runs on its own
    clock, so a group executes the same number of steps in any order;
    the sort keeps both carriers' golden gathers cheap: neighbouring
    lanes share a start cycle or follow each other by one, so a 64-lane
    block holds few distinct start cycles (one product each on the int
    carrier, one column gather each on the SoA carrier).
    """
    order = sorted(range(len(points)), key=lambda i: cycle_of(points[i]))
    outcomes: list[str | None] = [None] * len(points)
    for group in lane_groups(order, width):
        got = outcomes_fn([points[i] for i in group])
        for i, outcome in zip(group, got):
            outcomes[i] = outcome
    return outcomes  # type: ignore[return-value]


@dataclass
class LaneContext:
    """The golden run shared by every packed run, kept once, as bits.

    Built once per backend ``prepare()`` and never pickled (workers
    rebuild it): per cycle the 1-bit stimulus, the 1-bit golden PO
    trace and the 1-bit golden state *entering* the cycle (what a packed
    run starting mid-workload is seeded from), plus the golden final
    state (the latent check reference).  Each compiled carrier derives
    its own layout of these on first use (:meth:`golden_table`); the
    interpreter reference replicates a bit across the lanes on the fly.
    """

    circuit: Circuit
    width: int
    stimuli: list[dict[str, int]]
    trace: list[dict[str, int]]
    states: list[dict[str, int]]
    final_state: dict[str, int]
    #: The carrier :func:`resolve_backing` picked: ``"int"`` (packed
    #: big int — any width) or ``"soa"`` (the level-batched
    #: structure-of-arrays kernel).
    backing: str = "int"
    #: Work the walker actually did on this context, the same three
    #: counters on both carriers: steps executed; cycles between a
    #: walk's first flip and the end of the workload that it did not
    #: execute (``steps_run + cycles_skipped`` is the full-length
    #: count); walks that returned before the last workload cycle.
    steps_run: int = 0
    cycles_skipped: int = 0
    early_exits: int = 0
    _count_lock: Any = field(default_factory=threading.Lock, repr=False,
                             compare=False)

    @property
    def n_cycles(self) -> int:
        return len(self.stimuli)

    def count(self, **deltas: int) -> None:
        """Add one finished walk's tallies (a chunk abandoned past
        ``chunk_timeout`` may still be walking this context on its
        daemon thread, so the read-modify-write takes the lock)."""
        with self._count_lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def golden_table(self, program, layout: Callable[[list], Any]) -> Any:
        """The golden run in a carrier's ``layout``, built on the first
        compiled propagation and rebuilt if the program cache was
        invalidated.

        ``layout`` receives one list of golden bits per cycle — a bit
        per *row*: the program's inputs, then its outputs, then its
        flops (the state *entering* the cycle).  There are ``n_cycles +
        1`` of them: the last carries the golden final state ("entering"
        the cycle after the workload), so the test that a lane is back
        on golden and the latent check are the same comparison.
        """
        cached = getattr(self, "_table", None)
        if cached is None or cached[0] is not program:
            bits = [[stim[pi] for pi in program.inputs]
                    + [trace[po] for po in program.outputs]
                    + [state[q] for q in program.flop_qs]
                    for stim, trace, state in zip(
                        self.stimuli, self.trace, self.states)]
            n_io = len(program.inputs) + len(program.outputs)
            bits.append([0] * n_io
                        + [self.final_state[q] for q in program.flop_qs])
            self._table = cached = (program, layout(bits))
        return cached[1]


def log_walk_summary(name: str, ctx: LaneContext | None) -> None:
    """One debug line with the walker counters of a backend's context
    (backends call this from their ``campaign_finished`` hook; a
    process-pool parent, whose workers did the walking, stays quiet)."""
    if ctx is not None and ctx.steps_run:
        log.debug(
            "%s lanes[%s x%d]: %d steps run, %d golden cycles skipped, "
            "%d early exits",
            name, ctx.backing, ctx.width, ctx.steps_run,
            ctx.cycles_skipped, ctx.early_exits)


def build_context(
    circuit: Circuit,
    stimuli: Sequence[Mapping[str, int]],
    width: int,
    golden: tuple[list[dict[str, int]], list[dict[str, int]]] | None = None,
    backing: str | None = None,
) -> LaneContext:
    """Run (or reuse) the golden pass and keep it for ``width`` lanes.

    The pass is one 1-bit :class:`~repro.sim.sequential.SequentialSim`
    run — on the compiled step program, which the packed runs need
    anyway, or on the interpreter when compilation is off.

    ``golden`` may hand in an existing ``(states, values)`` pair in the
    :func:`repro.safety.slicing._golden_states` format — per-cycle
    entering states plus full net values — to avoid a second golden
    simulation when the backend already keeps one.

    ``backing`` requests a carrier by name (``None``: auto); what the
    context actually runs on is :func:`resolve_backing`'s answer,
    recorded as ``LaneContext.backing``.
    """
    resolved_backing = resolve_backing(backing, circuit, width)
    if resolved_backing == "soa":
        st = _compiled.soa_step_program(circuit, width).stats
        log.debug(
            "lane backing=soa width=%d: %d gates / %d levels "
            "(%.1f gates/level), %d fused ops/cycle, %d B scratch",
            width, st.gates, st.levels, st.gates / max(1, st.levels),
            st.fused_ops, st.scratch_bytes)
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
        # one 1-bit pass on the step program the packed runs use anyway
        # (the interpreter when compilation is off): the full-circuit
        # program is never generated on this path
        sim = SequentialSim(circuit, 1)
        states, trace = [], []
        for stim in stimuli:
            states.append(sim.state)  # step() rebinds, never mutates
            trace.append(sim.step(stim))
        final_state = sim.state
    bit_stimuli = [{pi: stim.get(pi, 0) & 1 for pi in circuit.inputs}
                   for stim in stimuli]
    return LaneContext(circuit, width, bit_stimuli, trace, states,
                       final_state, backing=resolved_backing)


def check_backing(requested: str | None) -> None:
    """Reject a requested carrier that is neither ``None`` (auto) nor
    one of ``vector.BACKINGS`` — what backends call at construction, so
    a bad name fails in the parent instead of in a worker's
    ``prepare()``."""
    if requested is not None and requested not in _vector.BACKINGS:
        raise ValueError(f"unknown lane backing {requested!r} (expected "
                         f"None or one of {_vector.BACKINGS})")


def check_cycles(cycles: Sequence[int], n_cycles: int) -> None:
    """Reject injection cycles outside ``[0, n_cycles)`` — what backends
    call at construction, in the parent.  Simulated, such a point is a
    silent wrong answer: a negative cycle wraps into golden-run data
    (differently per lane width), and one past the workload is a flip
    that never happens — it reads a 0 bit off the packed words where the
    per-point path raises ``IndexError``, or comes back ``masked``."""
    if any(not 0 <= cycle < n_cycles for cycle in cycles):
        raise ValueError(f"injection cycles outside the {n_cycles}-cycle "
                         f"workload in {list(cycles)}")


def resolve_backing(requested: str | None, circuit: Circuit,
                    width: int) -> str:
    """The carrier — ``"int"`` or ``"soa"`` — for ``width`` lanes of
    ``circuit``: the one place that decides it.

    The SoA kernel needs numpy and compiled programs; without either
    every request resolves to ``"int"`` (same packed-int semantics, so
    outcomes are unchanged), with the one-time no-numpy warning when
    ``"soa"`` was asked for by name.  An explicit ``"int"`` or ``"soa"``
    is otherwise honoured at any width.  Auto (``None``) picks ``"soa"``
    iff ``width >= vector.SOA_MIN_LANES`` and the step kernel averages
    at least ``vector.SOA_MIN_LEVEL_WIDTH`` gates per level — below
    that the per-level dispatch is not amortized and packed ints win.
    (The kernel schedule this reads is one netlist pass, cached on the
    circuit whichever way the choice falls.)  An unknown name raises
    ``ValueError``.
    """
    check_backing(requested)
    if requested == "int":
        return "int"
    if not _vector.HAVE_NUMPY:
        if requested == "soa":
            _vector._warn_no_numpy("soa backing requested")
        return "int"
    if not _compiled.compilation_enabled():
        return "int"  # the interpreter carries big ints
    if requested is None:
        if width < _vector.SOA_MIN_LANES:
            return "int"
        st = _compiled.soa_step_program(circuit, width).stats
        if st.gates / max(1, st.levels) < _vector.SOA_MIN_LEVEL_WIDTH:
            return "int"
    return "soa"


def propagate(ctx: LaneContext, flips: Mapping[int, Mapping[str, int]],
              start: int, n_lanes: int) -> tuple[int, int]:
    """One packed fault-free propagation with scheduled per-lane flips.

    ``flips[cycle][flop]`` is the lane mask XORed into that flop's state
    *before* the cycle is evaluated (an SEU flip, or the state delta a
    transient injection left behind).  Lanes are golden until their
    first flip, so starting at ``start`` (the earliest flip cycle) from
    the replicated golden entering-state loses nothing; flips scheduled
    before ``start`` or past the workload never fire.

    Either carrier is driven by the one compiled walker
    (:func:`_propagate_skewed`), which executes a step only while some
    lane is still undecided.  With compilation off
    (``RESCUE_NO_COMPILE`` / ``compiled.disabled()``, possibly entered
    after the context was built) neither carrier has a program and the
    reference interpreter below runs every cycle from ``start`` to the
    end of the workload — the full-length reference both carriers are
    tested against.

    Returns ``(fail_mask, latent_mask)``: lanes whose PO bits diverged
    from the golden trace in some cycle, and lanes whose final state
    differs without any PO divergence.
    """
    mask = mask_of(ctx.width)
    lanes = mask_of(n_lanes) & mask
    program = (_compiled.soa_step_program(ctx.circuit, ctx.width)
               if ctx.backing == "soa"
               else _compiled.step_program(ctx.circuit))
    if program is not None:
        return _propagate_skewed(ctx, program, flips, start, lanes)

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
    fail &= lanes
    return fail, diff & lanes & ~fail


def _flip_cycles(ctx: LaneContext, flips: Mapping[int, Mapping[str, int]],
                 start: int) -> list[int]:
    """The cycles at which ``flips`` fires inside ``[start, n_cycles)``,
    ascending."""
    start = max(start, 0)  # a negative index would wrap into golden data
    return sorted(cyc for cyc, cyc_flips in flips.items()
                  if cyc_flips and start <= cyc < ctx.n_cycles)


def _diverged(words: Sequence[int], golden: Sequence[int]) -> int:
    """Lanes in which any word differs from its golden counterpart."""
    return reduce(or_, map(xor, words, golden), 0)


def _propagate_skewed(ctx: LaneContext, program, flips, start: int,
                      live: int) -> tuple[int, int]:
    """The compiled packed propagation: every lane on its own clock.

    Lane *i*, whose first flip is due at cycle ``s_i``, does not sit in
    golden state until a shared clock reaches ``s_i``: at walk step *t*
    it **is** at cycle ``s_i + t``.  Its bit of every stimulus word,
    golden output word and golden state word is therefore that net's
    golden bit at ``s_i + t`` (gathered by the carrier), every lane
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

    The schedule and the lane sets (Python ints on both carriers — a
    4096-bit int is free next to a circuit step) live here; the carrier
    (:class:`_IntLanes` or :class:`_SoaLanes`, by ``ctx.backing``) only
    stores the lane word: ``flip(due)`` XORs lane masks into flop
    states, ``step()`` runs one cycle and answers with the lanes
    whose outputs diverged from their golden bits in it and the lanes
    whose state differs from the golden state entering the next.
    """
    cycles = _flip_cycles(ctx, flips, start)
    starts, sched = _skewed_schedule(flips, cycles, live)
    if not starts:  # no live lane flips inside the workload
        return 0, 0
    # waiting[t]: the lanes with a flip of their own still to come once
    # step t's flips are in
    waiting, later = {}, 0
    for at in sorted(sched, reverse=True):
        waiting[at] = later
        later |= reduce(or_, sched[at].values())
    n_cycles = ctx.n_cycles
    carrier = (_SoaLanes if ctx.backing == "soa" else _IntLanes)(
        ctx, program, starts, live)
    active = later  # every lane that flips at all
    fail = latent = pending = 0
    step = 0
    while active:
        due = sched.get(step)
        if due:
            carrier.flip(due)
            pending = waiting[step]
        diverged, diff = carrier.step()
        fail |= diverged & active
        step += 1
        ended = starts.get(n_cycles - step, 0)  # ran the last cycle
        latent |= diff & ended & active & ~fail
        active &= (diff | pending) & ~fail & ~ended
    span = n_cycles - cycles[0]
    ctx.count(steps_run=step, cycles_skipped=span - step,
              early_exits=int(step < span))
    return fail, latent


def _skewed_schedule(flips: Mapping[int, Mapping[str, int]],
                     cycles: Sequence[int], live: int
                     ) -> tuple[dict[int, int], dict[int, dict[str, int]]]:
    """``flips`` at its (ascending) ``cycles``, re-timed to the lanes'
    own clocks: ``starts[c]`` are the ``live`` lanes whose first flip
    is due at cycle ``c``, ``sched[t][flop]`` the lanes that flip
    ``flop`` at walk step ``t`` — their own start plus ``t``."""
    starts: dict[int, int] = {}
    sched: dict[int, dict[str, int]] = {}
    started = 0
    for cyc in cycles:
        due = flips[cyc]
        fresh = reduce(or_, due.values()) & live & ~started
        if fresh:
            starts[cyc] = fresh
        for q, lane_mask in due.items():
            # (a lane already on its way is looked up among all starts;
            # the usual schedule, one flip cycle per lane, has none)
            for first, group in (starts.items() if lane_mask & started
                                 else ((cyc, fresh),)):
                if lane_mask & group:
                    at = sched.setdefault(cyc - first, {})
                    at[q] = at.get(q, 0) | lane_mask & group
        started |= fresh
    return starts, sched


class _IntLanes:
    """The packed-int lane word: one Python int per net, advanced by the
    compiled step function on raw slot tuples, its golden words gathered
    by :func:`_skewed_golden`."""

    def __init__(self, ctx: LaneContext, program, starts: Mapping[int, int],
                 live: int) -> None:
        self.n_in = len(program.inputs)
        self.n_io = self.n_in + len(program.outputs)
        self.q_index = program.q_index
        self.fn = program.program.fn
        self.live = live
        self.golden = _skewed_golden(ctx, program, starts,
                                     _vector.blocks_for(live.bit_length()))
        self.rows = next(self.golden)
        self.state = self.rows[self.n_io:]

    def flip(self, due: Mapping[str, int]) -> None:
        state = self.state = list(self.state)
        for q, lane_mask in due.items():
            state[self.q_index[q]] ^= lane_mask

    def step(self) -> tuple[int, int]:
        rows, n_in, n_io = self.rows, self.n_in, self.n_io
        out, self.state = self.fn(rows[:n_in], self.state, self.live)
        self.rows = ahead = next(self.golden)
        return (_diverged(out, rows[n_in:n_io]),
                _diverged(self.state, ahead[n_io:]))


def _strided_table(bits: Sequence[Sequence[int]]) -> tuple:
    """:meth:`LaneContext.golden_table` layout of the int carrier: one
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
    row (numpy above one block — :func:`resolve_lane_width` guarantees
    it there; a single block needs only :mod:`struct`).
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
    np, row_bytes = _vector.np, 8 * n_blocks
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
            by_row = np.frombuffer(
                b"".join(word.to_bytes(fields.size, "little")
                         for word in words),
                dtype="<u8").reshape(n_blocks, -1).T.tobytes()
            yield [int.from_bytes(by_row[at:at + row_bytes], "little")
                   for at in range(0, len(by_row), row_bytes)]
        gathered = unchained
        step += 1


class _SoaLanes:
    """The SoA lane word: one ``(2 * slots, blocks)`` state matrix.

    The whole multi-cycle walk stays inside numpy: the golden rows of a
    step are gathered from an all-ones/zero ``(n_cycles + 1, rows)``
    table, the kernel evaluates each level as fused array ops, PO
    divergence and the next state come back as row gathers.  Flips XOR
    into the flop rows only — the complement mirror of all source rows
    is refreshed in one ``invert`` at the top of every step.  The golden
    word of a row is gathered **per block**: *layer* ``k`` holds, for
    every 64-lane block, its ``k``-th distinct start cycle and the lanes
    of the block that start there, so a step costs one ``take`` and one
    mask per layer — two to four in a cycle-sorted group.  Lanes that
    never flip (the dead lanes of a partial block among them) read
    zeros; the walker never reads them back.  The matrix covers only the
    blocks the lanes present occupy and is allocated per ``propagate``
    call (a chunk abandoned past ``chunk_timeout`` may still hold the
    context).
    """

    def __init__(self, ctx: LaneContext, program, starts: Mapping[int, int],
                 live: int) -> None:
        np = _vector.np
        self.program = program
        self.n_in = len(program.inputs)
        self.n_io = self.n_in + len(program.outputs)
        self.gold = ctx.golden_table(program, _cycle_table)
        self.n_blocks = _vector.blocks_for(live.bit_length())
        lanes_of = self._words(starts.values())  # (start cycle, block)
        depth = int(np.count_nonzero(lanes_of, axis=0).max())
        order = np.argsort(lanes_of == 0, axis=0, kind="stable")[:depth]
        self.masks = np.take_along_axis(lanes_of, order, axis=0)[..., None]
        self.cycles = np.asarray(list(starts))[order]
        kernel = program.kernel
        n = kernel.n_slots
        self.S = S = np.zeros((2 * n, self.n_blocks), dtype=np.uint64)
        S[n] = ~np.uint64(0)
        self.bound = kernel.bind(S)  # output views, replayed every cycle
        (pa, pb), (qa, qb), (lo, hi) = (program.pi_slice, program.q_slice,
                                        kernel.src_span)
        self.pi_rows, self.q_rows = S[pa:pb], S[qa:qb]
        self.src_rows, self.src_mirror = S[lo:hi], S[n + lo:n + hi]
        self.steps = 0
        self.rows = self._gather()
        self.q_rows[...] = self.rows[self.n_io:]

    def _words(self, lane_masks) -> Any:
        """One row of 64-lane blocks per lane mask (one bytes pass)."""
        size = 8 * self.n_blocks
        return _vector.np.frombuffer(
            b"".join(lane_mask.to_bytes(size, "little")
                     for lane_mask in lane_masks),
            dtype="<u8").reshape(-1, self.n_blocks)

    def _gather(self):
        """The golden word of every row, lane *i* at ``s_i + steps`` (a
        lane past the end of the workload reads the last entry: it has
        been retired by then).  Gathered block-major — a block's rows
        at one cycle are contiguous in the table — and handed back
        row-major, the layout of the state matrix."""
        np = _vector.np
        at = np.minimum(self.cycles + self.steps, len(self.gold) - 1)
        rows = 0
        for cycle, mask in zip(at, self.masks):
            layer = self.gold.take(cycle, axis=0)
            layer &= mask
            rows |= layer
        return np.ascontiguousarray(rows.T)

    def flip(self, due: Mapping[str, int]) -> None:
        qa, q_index = self.program.q_slice[0], self.program.q_index
        self.S[[qa + q_index[q] for q in due]] ^= self._words(due.values())

    def step(self) -> tuple[int, int]:
        np = _vector.np
        S, rows, program = self.S, self.rows, self.program
        self.pi_rows[...] = rows[:self.n_in]
        np.invert(self.src_rows, out=self.src_mirror)
        program.kernel.execute_bound(S, self.bound)
        po = S.take(program.po_rows, axis=0)
        po ^= rows[self.n_in:self.n_io]
        self.q_rows[...] = S.take(program.d_rows, axis=0)
        self.steps += 1
        self.rows = ahead = self._gather()
        diff = np.bitwise_xor(self.q_rows, ahead[self.n_io:])
        return (_vector.from_blocks(np.bitwise_or.reduce(po, axis=0)),
                _vector.from_blocks(np.bitwise_or.reduce(diff, axis=0)))


def _cycle_table(bits: Sequence[Sequence[int]]):
    """:meth:`LaneContext.golden_table` layout of the SoA carrier: an
    all-ones/zero ``(n_cycles + 1, rows)`` uint64 matrix — the golden
    word of every row, for a whole block of lanes at one cycle."""
    np = _vector.np
    return np.where(np.asarray(bits, dtype=bool), ~np.uint64(0),
                    np.uint64(0))


def _outcome_list(fail: int, latent: int, count: int) -> list[str]:
    """Per-lane outcome labels from the packed fail/latent words.

    The naive per-lane ``(word >> i) & 1`` probe rescans the big int
    per lane — quadratic in width once words span thousands of bits —
    so wide words unpack through numpy in one pass and only the set
    bits are visited.
    """
    if count > 64 and _vector.HAVE_NUMPY and (fail | latent):
        np = _vector.np
        nbytes = (count + 7) // 8
        outcomes = [MASKED] * count

        def hot(word: int):
            arr = np.frombuffer(word.to_bytes(nbytes, "little"),
                                dtype=np.uint8)
            return np.flatnonzero(
                np.unpackbits(arr, bitorder="little")[:count]).tolist()

        for i in hot(latent):
            outcomes[i] = LATENT
        for i in hot(fail):  # fail wins where both are set (they can't
            outcomes[i] = FAILURE  # be, but keep the precedence explicit)
        return outcomes
    return [FAILURE if (fail >> i) & 1 else
            LATENT if (latent >> i) & 1 else MASKED
            for i in range(count)]


def seu_outcomes(ctx: LaneContext,
                 points: Sequence[tuple[str, int]]) -> list[str]:
    """Classify up to ``ctx.width`` SEU points in one packed run.

    Lane *i* flips ``points[i] = (flop, cycle)`` before that cycle is
    evaluated — exactly :func:`repro.soft_error.seu.inject_seu`'s
    semantics — and the masked/latent/failure split is recovered per
    lane by XOR against the shared golden trace.
    """
    if len(points) > ctx.width:
        raise ValueError(f"{len(points)} points exceed lane width "
                         f"{ctx.width}")
    flips: dict[int, dict[str, int]] = {}
    n_cycles = start = ctx.n_cycles
    for lane, (flop, cyc) in enumerate(points):
        if cyc < 0 or cyc >= n_cycles:
            # the flip never fires inside the workload: provably masked
            # (matching inject_seu; a negative index must not reach the
            # context lists, where it would wrap around)
            continue
        per_cycle = flips.setdefault(cyc, {})
        per_cycle[flop] = per_cycle.get(flop, 0) | (1 << lane)
        start = min(start, cyc)
    if start >= n_cycles:
        return [MASKED] * len(points)
    fail, latent = propagate(ctx, flips, start, len(points))
    return _outcome_list(fail, latent, len(points))


def transient_outcomes(
    ctx: LaneContext,
    points: Sequence[tuple[Any, int]],
    inject: Callable[[Any, int], tuple[bool, Sequence[str]]],
) -> list[str]:
    """Classify up to ``ctx.width`` transient injections in one packed run.

    ``inject(fault, cycle)`` answers for the backend-specific injection
    cycle against golden data with ``(failed_now, perturbed)``: whether
    a primary output already differs in the injection cycle, and the
    flops whose state entering ``cycle + 1`` the fault leaves flipped.
    It is called once per point, in point order, and may answer from
    anything the backend computed for several points at once
    (:class:`repro.engine.workloads.SlicingBackend` reads one bit per
    point off a per-fault word covering a whole window of cycles).
    Points that fail immediately, leave no perturbation (masked), or
    perturb only the post-workload state (latent) are resolved without
    a lane; the rest share one packed propagation.
    """
    if len(points) > ctx.width:
        raise ValueError(f"{len(points)} points exceed lane width "
                         f"{ctx.width}")
    outcomes: list[str | None] = [None] * len(points)
    flips: dict[int, dict[str, int]] = {}
    start = ctx.n_cycles
    lane_of: list[int] = []
    for i, (fault, cyc) in enumerate(points):
        if not 0 <= cyc < ctx.n_cycles:
            # a negative index would silently wrap into golden data here
            # (and in the per-point reference), one past the workload
            # has no golden data to inject against — refuse loudly
            raise ValueError(f"injection cycle {cyc} is outside the "
                             f"{ctx.n_cycles}-cycle workload")
        failed_now, perturbed = inject(fault, cyc)
        if failed_now:
            outcomes[i] = FAILURE
            continue
        if not perturbed:
            outcomes[i] = MASKED
            continue
        if cyc + 1 >= ctx.n_cycles:
            outcomes[i] = LATENT  # perturbed state survives to the end
            continue
        lane_mask = 1 << len(lane_of)
        per_cycle = flips.setdefault(cyc + 1, {})
        for q in perturbed:
            per_cycle[q] = per_cycle.get(q, 0) | lane_mask
        start = min(start, cyc + 1)
        lane_of.append(i)
    if lane_of:
        fail, latent = propagate(ctx, flips, start, len(lane_of))
        labels = _outcome_list(fail, latent, len(lane_of))
        for i, label in zip(lane_of, labels):
            outcomes[i] = label
    return outcomes  # type: ignore[return-value]
