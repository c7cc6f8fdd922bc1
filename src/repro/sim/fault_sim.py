"""Stuck-at fault simulation.

Parallel-pattern single-fault propagation (PPSFP): the good machine is
simulated once over all packed patterns; each fault then re-simulates
only the gates in the fault site's fan-out cone with the faulty line
forced.  Detection is a per-pattern bitmask, so one pass yields which
pattern detects which fault — the input both to coverage accounting and
to test compaction.

:func:`fault_simulate` / :func:`detection_mask` do exactly that, one
cone walk per fault, and are the reference the batched sweep is checked
against.  The batched sweep (:func:`fault_simulate_batched`, the
engine's ``PpsfpBackend``, random TPG, compaction and the FI
classifier) splits a fault's detection word into a local difference and
the observability of the net it shows on: inside a fan-out-free region
there is one path to the region's root, so a cone is walked once per
root and pattern window and every fault of the region is a gate
evaluation and a memo read (:func:`_batched_detection`,
:func:`_observability`).  A root's walk does not evaluate the linear
tails of its cone either — the XOR / XNOR / BUF / NOT chains that parity
trees, adders and output compressors end in: a difference crosses a
tail as one XOR into the tail's end (:func:`_root_walk`,
:func:`_tail_table`).

The batched sweep runs in C where it can: one fixed translation unit
for every design (:data:`_C_ROOT_WALK`), built once per host by
:mod:`repro.sim.native` and called through :mod:`ctypes`, interprets
a flat table of the circuit over each window's good words, packed once
per window a fault reaches (:class:`_RootWalks`).  The kernel builds
that table too, from the numbered netlist Python hands it
(:func:`_native_table`), so the C path builds none of the Python walk's
dict tables.  Its
``sweep`` takes a whole chunk of faults as three int columns and
answers every fault's detection word in one call per window
(:func:`_sweep`): the activation test, the one-gate difference, the
region climb on the window's memo and, on a miss, the root walk.  The
walk is event-driven: of a root's cone it evaluates only the gates an
input of which changed.  The same walk, read as one word per observed
net (:meth:`_RootWalks.effects`), is the injection cycle of the slicing
backend (:class:`repro.engine.workloads.SlicingBackend`), which climbs
the same fan-out-free links (:func:`_climb`).  With no C compiler, or
with compilation off (``RESCUE_NO_COMPILE``,
:func:`repro.sim.compiled.disabled`), the Python loop sweeps
(:func:`_batched_detection`, :func:`_observability`,
:func:`_root_walk`), with identical results; it always walks in
Python, and it is the reference the C sweep and walk are tested
against.  Every C call releases the GIL.  Everything else here
interprets (``GATE_EVAL``): the per-fault reference walks, a branch
into a flop D, and every good-machine simulation
(:func:`repro.sim.logic.simulate`, run once per pattern window or cycle
and kept).  Neither :mod:`ctypes` nor :mod:`repro.sim.native` is
imported before the first sweep or root walk.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress
from operator import attrgetter
from typing import Collection, Mapping, Sequence

from ..circuit.netlist import Circuit, Gate, GateType
from ..faults.models import Line, StuckAtFault
from . import compiled
from .logic import GATE_EVAL, eval_gate, mask_of, simulate


@dataclass
class FaultSimResult:
    """Outcome of a fault-simulation run."""

    n_patterns: int
    detected: dict[StuckAtFault, int] = field(default_factory=dict)
    undetected: list[StuckAtFault] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 1.0

    def detecting_patterns(self, fault: StuckAtFault) -> list[int]:
        """Indices of patterns that detect ``fault``."""
        bits = self.detected.get(fault, 0) & mask_of(self.n_patterns)
        indices = []
        while bits:
            low = bits & -bits
            indices.append(low.bit_length() - 1)
            bits ^= low
        return indices


#: Keys of the reachability table, of the fan-out-free-region links, of
#: the C table's net numbering and (paired with an observe tuple) of the
#: linear-tail walk table, its reachability bits and the flat table for
#: the C walk inside ``Circuit._cone_cache`` (cone keys are tuples of
#: net names, so none can collide with one).
_REACH_KEY = None
_FFR_KEY = "ffr"
_TAILS_KEY = "tails"
_TAIL_REACH_KEY = "tail_reach"
_INDEX_KEY = "index"
_NATIVE_KEY = "native"

#: Gates whose output difference is the XOR of their input differences.
_LINEAR = frozenset({GateType.XOR, GateType.XNOR, GateType.BUF, GateType.NOT})

_BIN_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _reach_table(
    circuit: Circuit,
    keep: Collection[str] | None = None,
) -> tuple[dict[str, int], list]:
    """Per-net bitsets of the gates combinationally reachable from it.

    Bit *i* stands for ``circuit.topo_order()[i]``.  One sweep in reverse
    topological order suffices because every consumer of a gate comes
    later in that order: ``bits[out] = 1 << topo_index | OR(bits[c] for
    consumers c)``, not through flops; primary inputs and flop Qs are
    the OR of their consumers alone.  A big int is width-insensitive up
    to ~1k bits and a memcpy-speed word loop beyond, so the whole table
    builds in 2.8 ms at 3.2k gates — about sixteen BFS cones — and
    holds ``nets x gates / 8`` bytes at most (1.3 MB at 3.2k gates,
    ~20 MB at 12.8k).

    With ``keep`` only the gates driving those nets get a bit, numbered
    among themselves in topological order; the others carry their
    consumers' reach through without one.  Returns the table and the
    gates its bits stand for.
    """
    order = circuit.topo_order()
    kept = order if keep is None else [g for g in order if g.output in keep]
    fmap = circuit.fanout_map()
    flops = circuit.flops
    bits: dict[str, int] = {}

    def consumers(net: str) -> int:
        acc = 0
        for dst in fmap.get(net, ()):
            if dst not in flops:  # combinational cone only
                acc |= bits[dst]
        return acc

    i = len(kept)
    for gate in reversed(order):
        out = gate.output
        if keep is None or out in keep:
            i -= 1
            bits[out] = 1 << i | consumers(out)
        else:
            bits[out] = consumers(out)
    for net in (*circuit.inputs, *flops):
        bits[net] = consumers(net)
    return bits, kept


def _select(items: Sequence, reach: int):
    """The members of ``items`` whose bits are set in ``reach``, in index
    order: bin() + compress() select them in C, and starting at the
    lowest set bit keeps the scan to the set's own index span."""
    if not reach:
        return iter(())
    low = (reach & -reach).bit_length() - 1
    flags = format(reach >> low, "b")[::-1].encode().translate(_BIN_TO_FLAGS)
    return compress(items[low:], flags)


def _cone_gates(circuit: Circuit, start_nets: Sequence[str]) -> list:
    """Gates in the fan-out cone of ``start_nets``, in topological order.

    The cone is the set bits of ``OR(bits[start])`` from the circuit's
    reachability table (:func:`_reach_table`), read off in index order —
    which *is* topological order, so there is no traversal and no sort.
    Both the table and the materialised cones are memoized on the
    circuit (invalidated on mutation, dropped by pickling): campaigns
    re-simulate the same sites across pattern windows, cycles and
    workloads.
    """
    key = tuple(start_nets)
    cache = circuit._cone_cache
    cached = cache.get(key)
    if cached is not None:
        return cached
    table = cache.get(_REACH_KEY)
    if table is None:
        table = cache[_REACH_KEY] = _reach_table(circuit)
    bits, order = table
    reach = 0
    for net in key:
        reach |= bits.get(net, 0)
    cone = cache[key] = list(_select(order, reach))
    return cone


def _ffr_links(circuit: Circuit) -> dict[str, Gate]:
    """Each fan-out-free net's one consuming gate; a net that is absent
    is the root of its fan-out-free region.

    A root is a net with fan-out other than 1 (a gate reading it on two
    pins counts twice), a primary output, or a net whose one consumer is
    a flop — so every net :func:`_observe_nets` can return is a root,
    with or without scan, and the table depends on structure alone.  It
    lives beside the reachability table: mutation and pickling drop it.
    """
    cache = circuit._cone_cache
    links = cache.get(_FFR_KEY)
    if links is None:
        gates = circuit.gates
        outputs = set(circuit.outputs)
        links = cache[_FFR_KEY] = {
            net: gates[sinks[0]]
            for net, sinks in circuit.fanout_map().items()
            if len(sinks) == 1 and sinks[0] in gates and net not in outputs}
    return links


def _tail_table(
    circuit: Circuit,
    observe: Sequence[str],
) -> tuple[list, dict[str, tuple[str, ...]]]:
    """The walk table of :func:`_root_walk` for one observe set.

    A net is a *linear link* when exactly one gate pin reads it, that
    gate is an XOR, XNOR, BUF or NOT, and the net is not observed.
    Following the links from a net ends at its *tail end*, the first net
    that is not a link.  ``ends[net]`` lists the tail ends a difference
    on ``net`` is XORed into — one per pin of ``net`` on a linear gate,
    with pairs cancelled — which is exact because a linear gate's output
    difference is the XOR of its input differences (XNOR and NOT invert
    both machines alike) and nothing else reads a link.

    A walk evaluates the non-linear gates and visits the linear tail ends
    that pass a difference on; every other linear gate is summed, never
    evaluated.  ``steps`` lists those kept gates in topological order,
    each as ``(gate, or None for a linear one, its output, the output's
    ends)``; their reachability bits are :func:`_tail_reach`, built only
    for the Python walk.  Cached per observe tuple beside the other
    structural tables: mutation and pickling drop it.
    """
    key = (_TAILS_KEY, tuple(observe))
    cache = circuit._cone_cache
    table = cache.get(key)
    if table is not None:
        return table
    gates = circuit.gates
    observed = set(observe)
    reader: dict[str, Gate] = {}
    for net, sinks in circuit.fanout_map().items():
        if len(sinks) == 1 and net not in observed:
            gate = gates.get(sinks[0])
            if gate is not None and gate.gtype in _LINEAR:
                reader[net] = gate
    order = circuit.topo_order()
    tail_end: dict[str, str] = {}
    for gate in reversed(order):  # a link's reader comes later
        nxt = reader.get(gate.output)
        tail_end[gate.output] = (gate.output if nxt is None
                                 else tail_end[nxt.output])
    pins: dict[str, list[str]] = {}
    for gate in order:
        if gate.gtype in _LINEAR:
            for src in gate.inputs:
                pins.setdefault(src, []).append(tail_end[gate.output])
    ends: dict[str, tuple[str, ...]] = {}
    for net, hits in pins.items():
        odd = tuple(end for end in dict.fromkeys(hits) if hits.count(end) % 2)
        if odd:
            ends[net] = odd
    steps = [(None if gate.gtype in _LINEAR else gate, gate.output,
              ends.get(gate.output, ())) for gate in order
             if gate.gtype not in _LINEAR
             or (gate.output not in reader and gate.output in ends)]
    table = cache[key] = (steps, ends)
    return table


def _tail_reach(circuit: Circuit, observe: Sequence[str]) -> dict[str, int]:
    """:func:`_reach_table` over :func:`_tail_table`'s kept steps (bit
    *i* stands for ``steps[i]``, reachability passing through the other
    gates), which only :func:`_root_walk` reads: the C walk marks its
    steps event by event.  Built on the first Python walk and cached per
    observe tuple beside the tail table: mutation and pickling drop it."""
    key = (_TAIL_REACH_KEY, tuple(observe))
    cache = circuit._cone_cache
    bits = cache.get(key)
    if bits is None:
        steps, _ = _tail_table(circuit, observe)
        bits = cache[key] = _reach_table(
            circuit, {out for _, out, _ in steps})[0]
    return bits


#: Opcodes of the C kernel's per-net gate section: a kept step whose
#: gate is linear (XOR and up) is a summed tail end, the others are the
#: gates a walk evaluates; the sweep's one-gate differences read them
#: all.
_OPCODES = {GateType.AND: 1, GateType.NAND: 2, GateType.OR: 3,
            GateType.NOR: 4, GateType.CONST0: 5, GateType.CONST1: 6,
            GateType.XOR: 7, GateType.XNOR: 8, GateType.BUF: 9,
            GateType.NOT: 10}

#: The sweep's ``at`` column for a stem fault (the site itself) and for
#: a branch into a flop D (no combinational cone: the interpreter's).
_AT_STEM = -1
_AT_FLOP_D = -2


def _net_index(circuit: Circuit) -> dict[str, int]:
    """Each net's number in :func:`_native_table`: inputs, flops, then
    gate outputs in topological order.  It is also the net's row in a
    window's packed good words (:class:`_RootWalks`).  Needs no kernel;
    cached beside the other structural tables: mutation and pickling
    drop it."""
    cache = circuit._cone_cache
    index = cache.get(_INDEX_KEY)
    if index is None:
        nets = dict.fromkeys((*circuit.inputs, *circuit.flops,
                              *(gate.output for gate in
                                circuit.topo_order())))
        index = cache[_INDEX_KEY] = dict(zip(nets, range(len(nets))))
    return index


def _native_table(
    circuit: Circuit,
    observe: Sequence[str],
    kernel,
) -> tuple[dict[str, int], bytes, dict[str | None, int]]:
    """The flat table :data:`_C_ROOT_WALK` walks, built by ``kernel``
    (:func:`native_kernel`).

    Python numbers the nets (:func:`_net_index`, the returned index) and
    hands the kernel's ``table`` the structure as int32 arrays: per net
    the opcode of its gate and the gate's inputs as a CSR, the observed
    nets, the primary outputs and the flop Ds.  C derives the rest (the
    linear-tail walk table and the fan-out-free links that the Python
    walk builds as dicts), so none of those is built here.

    The table is one run of int32: the header ``n_nets, n_steps, n_obs,
    n_end, n_rd, n_gin``, then per kept step its output (the step's gate
    is that net's driver; a linear one is a summed tail end), per net
    its tail ends as a CSR, per net the kept steps to mark when it
    changes as a CSR — the non-linear steps reading it, and the tail
    end's own step — the observed nets, per net the opcode of the gate
    driving it (-1 for an input or flop) and that gate's inputs as a
    CSR, and per net its fan-out-free link: the net its one consuming
    gate drives, -1 at a region root.

    The third entry maps a branch fault's sink to the sweep's ``at``
    column: a gate to its output's number, a flop to
    :data:`_AT_FLOP_D`, ``None`` (a stem) to :data:`_AT_STEM`.  Cached
    per observe tuple beside the other structural tables: mutation and
    pickling drop it.
    """
    key = (_NATIVE_KEY, tuple(observe))
    cache = circuit._cone_cache
    table = cache.get(key)
    if table is not None:
        return table
    index = _net_index(circuit)
    number = index.__getitem__
    order = circuit.topo_order()
    n_sources = len(index) - len(order)
    driven = [gate.inputs for gate in order]
    opcodes = array("i", [-1]) * n_sources
    opcodes.extend(map(_OPCODES.__getitem__, map(attrgetter("gtype"), order)))
    offsets = array("i", bytes(4 * n_sources))  # a source drives no gate
    offsets.extend(accumulate(map(len, driven), initial=0))
    flat = kernel.table(
        opcodes, offsets, array("i", map(number, chain.from_iterable(driven))),
        *(array("i", map(number, nets)) for nets in (
            observe, circuit.outputs,
            map(attrgetter("d"), circuit.flops.values()))))
    targets: dict[str | None, int] = dict(index)  # a sink is a gate ...
    targets.update(dict.fromkeys(circuit.flops, _AT_FLOP_D))  # or a flop
    targets[None] = _AT_STEM
    table = cache[key] = (index, flat, targets)
    return table


def _observe_nets(circuit: Circuit, full_scan: bool) -> tuple[str, ...]:
    nets = list(circuit.outputs)
    if full_scan:
        nets.extend(flop.d for flop in circuit.flops.values())
    return tuple(nets)


def faulty_values(
    circuit: Circuit,
    fault: StuckAtFault,
    good: Mapping[str, int],
    mask: int,
) -> dict[str, int]:
    """Packed net values of the faulty machine (only cone nets differ)."""
    return _faulty_values_interp(circuit, fault.line,
                                 mask if fault.value else 0, good, mask)


def _faulty_values_interp(
    circuit: Circuit,
    line: Line,
    forced: int,
    good: Mapping[str, int],
    mask: int,
) -> dict[str, int]:
    """Reference interpreter for :func:`faulty_values`: ``line`` reads
    the word ``forced`` (all-0/all-1 for a stuck-at fault, the
    complemented good word for an observability walk)."""
    values = dict(good)
    evaluators = GATE_EVAL
    if line.is_stem:
        values[line.net] = forced
        cone = _cone_gates(circuit, [line.net])
        for gate in cone:
            if gate.output == line.net:
                continue  # the stem stays forced
            values[gate.output] = evaluators[gate.gtype](gate, values, mask)
        values[line.net] = forced
        return values
    # branch fault: only the named sink sees the forced value
    sink = line.sink
    cone = _cone_gates(circuit, [sink]) if sink in circuit.gates else []
    if sink in circuit.gates:
        gate = circuit.gates[sink]
        # the sink alone sees the forced value: shadow just its inputs
        shadow = {src: values[src] for src in gate.inputs}
        shadow[line.net] = forced
        values[sink] = eval_gate(gate, shadow, mask)
        for downstream in cone:
            if downstream.output == sink:
                continue
            values[downstream.output] = evaluators[downstream.gtype](
                downstream, values, mask)
    elif sink in circuit.flops:
        # a branch into a flop D: model as the D seeing the forced value;
        # combinationally nothing downstream this cycle
        values[f"__flopD__{sink}"] = forced
    return values


def detection_mask(
    circuit: Circuit,
    fault: StuckAtFault,
    good: Mapping[str, int],
    mask: int,
    observe: Sequence[str],
) -> int:
    """Bitmask of patterns under which ``fault`` is observable."""
    return _detection_mask_interp(circuit, fault.line,
                                  mask if fault.value else 0, good, mask,
                                  observe)


def _detection_mask_interp(
    circuit: Circuit,
    line: Line,
    forced: int,
    good: Mapping[str, int],
    mask: int,
    observe: Sequence[str],
) -> int:
    """Reference interpreter for :func:`detection_mask`."""
    bad = _faulty_values_interp(circuit, line, forced, good, mask)
    det = 0
    for net in observe:
        good_v = good.get(net, 0)
        if not line.is_stem and line.sink in circuit.flops and net == circuit.flops[line.sink].d:
            bad_v = bad.get(f"__flopD__{line.sink}", bad.get(net, 0))
        else:
            bad_v = bad.get(net, 0)
        det |= (good_v ^ bad_v) & mask
    return det


def fault_simulate(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    pi_values: Mapping[str, int],
    n_patterns: int,
    state: Mapping[str, int] | None = None,
    full_scan: bool = True,
) -> FaultSimResult:
    """PPSFP fault simulation of ``faults`` under packed patterns.

    With ``full_scan`` (default) flop D inputs count as observation
    points, modelling a scan design; otherwise only primary outputs do.
    """
    mask = mask_of(n_patterns)
    good = simulate(circuit, pi_values, n_patterns, state)
    observe = _observe_nets(circuit, full_scan)
    result = FaultSimResult(n_patterns)
    for fault in faults:
        det = detection_mask(circuit, fault, good, mask, observe)
        if det:
            result.detected[fault] = det
        else:
            result.undetected.append(fault)
    return result


#: Widest word a pattern window may span.  Consecutive batches are
#: concatenated up to this many patterns and evaluated in one walk.
#: Picked from the 256 ... 4096 sweeps in the README's "PPSFP hot path":
#: under fault dropping the cost per fault bottoms out here and turns
#: up at 4096, where a walk stops being width-free.
WINDOW_BITS = 1024


@dataclass
class PatternWindows:
    """Good-machine values of pattern batches concatenated into windows.

    Each window is ``(good, mask, offset, starts, batch_masks, walks,
    obs)``: the good values of its batches side by side in one word per
    net, the window's width mask, its first pattern's global number, per
    batch the bit position it starts at inside the window and its own
    mask already shifted there, the window's root walks
    (:class:`_RootWalks`) and the Python loop's observability memo — per
    net, the patterns in which a *flip* of that net reaches one of
    ``observe`` (:func:`_observability` fills it on demand).  The C
    sweep keeps the same memo in C, beside the window's packed words in
    its :class:`_RootWalks`.  A memo entry is a pure function of the
    window and the net, so a chunk abandoned past ``chunk_timeout`` that
    is still sweeping on its daemon thread can only write the value the
    live sweep would; the Python memo is a dict, and the C sweep, which
    releases the GIL, publishes each row of its own before the row's
    known flag (:class:`_RootWalks`).  ``root_walks`` counts the cone
    walks the detection sweeps paid for, on either path (at most one per
    fan-out-free region and window and path, unless two threads miss
    the same region of one window at once); it never influences an
    outcome.
    """

    windows: list[tuple[dict[str, int], int, int, list[int], list[int],
                        _RootWalks, dict[str, int]]]
    n_patterns: int
    observe: tuple[str, ...]
    root_walks: int = 0


def _pattern_windows(
    circuit: Circuit,
    batches: Sequence[tuple[Mapping[str, int], int]],
    state: Mapping[str, int] | None,
    full_scan: bool = True,
) -> PatternWindows:
    """Simulate the good machine once per window of concatenated batches.

    A Python int is width-insensitive to about a thousand bits, so
    walking a cone over sixteen 64-pattern batches costs what walking it
    over one does.  Every batch's PI and state words are masked to the
    batch's own width and shifted to its offset, which makes each bit
    column of the window exactly the pattern it was in its batch.  A
    batch is never split; one wider than :data:`WINDOW_BITS` is a window
    of its own.
    """
    groups: list[list[tuple[Mapping[str, int], int]]] = []
    width = 0
    for batch in batches:
        if not groups or width + batch[1] > WINDOW_BITS:
            groups.append([])
            width = 0
        groups[-1].append(batch)
        width += batch[1]
    inputs = circuit.inputs
    observe = _observe_nets(circuit, full_scan)
    windows = []
    total = 0
    for group in groups:
        pis = dict.fromkeys(inputs, 0)
        flops = None if state is None else dict.fromkeys(state, 0)
        starts: list[int] = []
        batch_masks: list[int] = []
        width = 0
        for pi_values, n in group:
            mask = mask_of(n)
            starts.append(width)
            batch_masks.append(mask << width)
            for pi in inputs:
                pis[pi] |= (pi_values.get(pi, 0) & mask) << width
            if flops is not None:
                for q, word in state.items():
                    flops[q] |= (word & mask) << width
            width += n
        good = simulate(circuit, pis, width, flops)
        mask = mask_of(width)
        windows.append((good, mask, total, starts, batch_masks,
                        _RootWalks(circuit, observe, good, mask), {}))
        total += width
    return PatternWindows(windows, total, observe)


def _output_diff(gate: Gate, good: Mapping[str, int], net: str, word: int,
                 mask: int) -> int:
    """Good-vs-faulty XOR at ``gate``'s output when the gate alone reads
    ``word`` on ``net`` (on every pin that reads it)."""
    shadow = {src: good[src] for src in gate.inputs}
    shadow[net] = word
    return eval_gate(gate, shadow, mask) ^ good[gate.output]


def _root_walk(
    circuit: Circuit,
    observe: Sequence[str],
    good: Mapping[str, int],
    mask: int,
    net: str,
    rows: bool = False,
) -> int | list[int]:
    """Patterns in which flipping ``net`` reaches one of ``observe``
    (with ``rows``: one word per observed net, the patterns in which the
    flip reaches that net).

    :func:`_detection_mask_interp` of the stem forced to its complement,
    walked over :func:`_tail_table`'s kept gates only: whenever a walked
    net differs, its difference is XORed into the value of each tail end
    it feeds linearly, so by the time the walk reaches a tail end in
    topological order that value is already the faulty one.
    """
    steps, ends = _tail_table(circuit, observe)
    bits = _tail_reach(circuit, observe)
    values = dict(good)
    flipped = values[net] = ~good.get(net, 0) & mask
    diff = flipped ^ good.get(net, 0)
    for end in ends.get(net, ()):
        values[end] ^= diff
    reach = bits.get(net, 0)
    if reach:
        low = (reach & -reach).bit_length() - 1
        if steps[low][1] == net:
            reach ^= 1 << low  # the stem's own gate: it stays flipped
    evaluators = GATE_EVAL
    for gate, out, targets in _select(steps, reach):
        if gate is not None:
            values[out] = evaluators[gate.gtype](gate, values, mask)
        if targets:
            diff = values[out] ^ good[out]
            if diff:
                for end in targets:
                    values[end] ^= diff
    if rows:
        return [(values.get(obs_net, 0) ^ good.get(obs_net, 0)) & mask
                for obs_net in observe]
    det = 0
    for obs_net in observe:
        det |= values.get(obs_net, 0) ^ good.get(obs_net, 0)
    return det & mask


def native_kernel():
    """The C root walk (:class:`repro.sim.native.RootWalker`), loaded —
    built on first use per host — or ``None``: compilation is off, or
    :func:`repro.sim.native.load` could not have it (no C compiler, a
    failed build or load), and :func:`_root_walk` walks instead."""
    if not compiled.compilation_enabled():
        return None
    from . import native
    lib = native.load(_C_ROOT_WALK)
    return None if lib is None else native.RootWalker(lib)


class _RootWalks:
    """The root walks of one pattern window: ``walks(net)`` is
    :func:`_root_walk` of ``net`` over the window's good words (the
    Python loop's walk), ``walks.effects(net)`` the same walk read as
    one word per observed net (what
    :class:`repro.engine.workloads.SlicingBackend` reads) and
    :meth:`sweep` the C sweep of a chunk's faults (:func:`_sweep`).

    The first ``effects`` or ``sweep`` resolves the kernel
    (:func:`native_kernel`) and, when it loaded, packs the window's good
    words for it once — one row of ``ceil(width / 64)`` little-endian
    ``uint64_t`` per net of :func:`_native_table` — and keeps them; every
    later call then runs in C.  Without the kernel ``effects`` is
    :func:`_root_walk`.

    :meth:`sweep` runs on the window's observability memo, allocated on
    its first call: a row of words and a known flag per net, zeroed,
    filled by the sweeps of every chunk that runs on the window.  Every
    C call releases the GIL, so a long sweep stalls neither
    ``chunk_timeout`` nor a service worker's heartbeat, and threads may
    share a window — say a chunk abandoned past ``chunk_timeout`` and
    its re-execution, or a second thread that resolves at the same time
    and packs the same words.  A walk keeps its scratch to itself; a
    sweep writes a memo row whole before it sets the row's flag (a
    release store) and reads a row only after it saw the flag set (an
    acquire load).  A memo entry is a pure function of window and net,
    so two sweeps that miss the same net at once both write the same
    words, and a row is never read half-written.  Pickling drops the
    packed words and the memo: the copy resolves its own.
    """

    __slots__ = ("circuit", "observe", "good", "mask", "native", "memo")

    def __init__(self, circuit: Circuit, observe: Sequence[str],
                 good: Mapping[str, int], mask: int) -> None:
        self.circuit = circuit
        self.observe = observe
        self.good = good
        self.mask = mask
        self.native = None  # resolved on the first C call: () for none
        self.memo = None  # the C sweep's, allocated on its first call

    def __reduce__(self) -> tuple:
        return (_RootWalks, (self.circuit, self.observe, self.good,
                             self.mask))

    def _resolve(self) -> tuple:
        kernel = native_kernel()
        if kernel is None:
            return ()
        index, table, _ = _native_table(self.circuit, self.observe, kernel)
        n_words = max(1, (self.mask.bit_length() + 63) >> 6)
        good = self.good
        words = b"".join(good.get(net, 0).to_bytes(8 * n_words, "little")
                         for net in index)
        last = self.mask >> 64 * (n_words - 1)
        return kernel, index, table, words, n_words, last

    def _kernel(self) -> tuple:
        native = self.native
        if native is None:
            native = self.native = self._resolve()
        return native

    def __call__(self, net: str) -> int:
        return _root_walk(self.circuit, self.observe, self.good, self.mask,
                          net)

    def effects(self, net: str) -> list[int]:
        native = self._kernel()
        if not native:
            return _root_walk(self.circuit, self.observe, self.good,
                              self.mask, net, rows=True)
        kernel, index, table, words, n_words, last = native
        return kernel.effects(table, words, n_words, last, index[net])

    def sweep(self, site: array, at: array, value: array,
              bounds: array) -> tuple[list[int], int, int]:
        """The C sweep of one chunk's fault columns over this window
        (:func:`_sweep`; the kernel has loaded): one detection word per
        fault, the root walks the memo's misses cost and the gates those
        walks evaluated."""
        kernel, index, table, words, n_words, last = self._kernel()
        memo = self.memo
        if memo is None:
            memo = self.memo = kernel.memo(len(index), n_words)
        return kernel.sweep(table, words, n_words, last, memo, site, at,
                            value, bounds)


#: The C root walk and the sweep on it, one translation unit for every
#: design: the tables of :func:`_native_table` and a window's good words
#: (``n_nets`` rows of ``nw`` words, the last word of a row holding
#: ``last``'s bits) in.
#:
#: ``rescue_kernel.walk(tab, good, nw, last, root, det, rows)`` writes
#: the detection words of one flipped net into ``det`` and, when
#: ``rows`` is not ``NULL``, one row of ``nw`` words per observed net:
#: the patterns in which the flip reaches that net (the sweep passes no
#: ``rows``, the slicing backend no ``det``); it returns the gates it
#: evaluated (-1: out of memory).  :func:`_root_walk` event by event: a
#: pending bitmap over the kept steps in topological order holds the
#: steps an input of which changed; a step that changes its net XORs
#: the difference into the net's tail ends and marks their readers.  A
#: net's words are copied out of ``good`` into the call's own scratch
#: when it first changes (``slot`` maps a net to its scratch row), so
#: ``good`` is read only and nothing outlives the call.  A step's gate
#: is its net's driver in the per-net gate section; one evaluator
#: (``eval``) serves the walk and the sweep's one-gate differences.
#:
#: ``rescue_kernel.sweep(tab, good, nw, last, memo, known, n, site, at,
#: value, n_bounds, bounds, det, evaluated)`` is
#: :func:`_batched_detection` of
#: ``n`` faults in one window: columns ``site`` (the faulty net), ``at``
#: (the net the difference first shows on: the site for a stem, the
#: sink gate's output for a branch) and ``value`` (stuck-at 0 or 1) in,
#: one row of ``nw`` detection words per fault out into ``det``.  The
#: observability memo is the window's: ``memo`` holds a row of ``nw``
#: words per net and ``known`` one flag byte per net; a miss climbs the
#: fan-out-free links (:func:`_observability`), walks the region's root
#: with ``walk`` and memoises every net on the way, each row written
#: whole before its flag is set (release store; flags are read with
#: acquire loads), so sweeps of one window may run at once.  ``bounds``
#: is the window's batch starts then its width (``n_bounds`` 0: no
#: dropping): a detected fault keeps only the batch holding its lowest
#: set bit.  Returns the root walks it ran (-1: out of memory) and
#: stores the gates they evaluated in ``*evaluated``.
#:
#: ``rescue_kernel.table(n, gop, gin_off, gin, n_obs, obs, n_po, po,
#: n_fd, fd, out)`` builds the table both read, :func:`_native_table`'s
#: layout, from the circuit's structure as int32 arrays over the ``n``
#: numbered nets: per net the opcode of its gate (-1: an input or flop)
#: and the gate's inputs as a CSR (``gin_off``, ``gin``; repeated pins
#: kept), the observed nets, the primary outputs and the flop Ds.  It
#: derives the rest the way :func:`_tail_table` and :func:`_ffr_links`
#: define it: the consumers of each net (a gate once per pin, a flop
#: once per D), the linear links, the tail ends with pairs cancelled,
#: the kept steps, the readers and the fan-out-free links.  Returns the
#: ints written to ``out`` (-1: out of memory, -2: an id outside the
#: nets or offsets that do not rise from 0).
_C_ROOT_WALK = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { AND = 1, NAND, OR, NOR, CONST0, CONST1, XOR, XNOR, BUF, NOT };

typedef struct {
    int32_t n_nets, n_steps, n_obs;
    const int32_t *out, *end_off, *end, *rd_off, *rd, *obs, *gop, *gin_off,
        *gin, *link;
} table_t;

typedef struct {
    table_t t;
    const uint64_t *good;
    int64_t nw;
    uint64_t last;
    int32_t *slot;    /* per net: 1 + its row in vals, 0 while good */
    uint64_t *vals, *pend;
    int64_t n_vals, cap;
} walk_t;

static void parse(const int32_t *h, table_t *t)
{
    const int32_t *p = h + 6;
    t->n_nets = h[0];
    t->n_steps = h[1];
    t->n_obs = h[2];
    t->out = p;     p += h[1];
    t->end_off = p; p += h[0] + 1;
    t->end = p;     p += h[3];
    t->rd_off = p;  p += h[0] + 1;
    t->rd = p;      p += h[4];
    t->obs = p;     p += h[2];
    t->gop = p;     p += h[0];
    t->gin_off = p; p += h[0] + 1;
    t->gin = p;     p += h[5];
    t->link = p;
}

static const uint64_t *value(const walk_t *w, int32_t net)
{
    int32_t s = w->slot[net];
    return s ? w->vals + (int64_t)(s - 1) * w->nw : w->good + net * w->nw;
}

/* net's words in the scratch, copied from good the first time;
   NULL: out of memory */
static uint64_t *own(walk_t *w, int32_t net)
{
    if (!w->slot[net]) {
        if (w->n_vals == w->cap) {
            int64_t cap = w->cap ? 2 * w->cap : 64;
            uint64_t *v = realloc(w->vals, cap * w->nw * sizeof *v);
            if (!v)
                return NULL;
            w->vals = v;
            w->cap = cap;
        }
        memcpy(w->vals + w->n_vals * w->nw, w->good + net * w->nw,
               w->nw * sizeof *w->vals);
        w->slot[net] = (int32_t)++w->n_vals;
    }
    return w->vals + (int64_t)(w->slot[net] - 1) * w->nw;
}

/* net changed: mark the steps that read it (but the step computing
   skip: the root's own, which stays flipped) */
static void changed(walk_t *w, int32_t net, int32_t skip)
{
    for (int32_t r = w->t.rd_off[net]; r < w->t.rd_off[net + 1]; r++) {
        int32_t k = w->t.rd[r];
        if (w->t.out[k] != skip)
            w->pend[k >> 6] |= (uint64_t)1 << (k & 63);
    }
}

/* XOR diff into the tail ends of net; -1: out of memory */
static int spread(walk_t *w, int32_t net, const uint64_t *diff)
{
    for (int32_t e = w->t.end_off[net]; e < w->t.end_off[net + 1]; e++) {
        uint64_t *v = own(w, w->t.end[e]);
        if (!v)
            return -1;
        for (int64_t i = 0; i < w->nw; i++)
            v[i] ^= diff[i];
        changed(w, w->t.end[e], -1);
    }
    return 0;
}

/* net o's gate over its inputs' words in w, except that every pin
   reading net x reads word instead (x -1: none) */
static void eval(const walk_t *w, int32_t o, int32_t x, const uint64_t *word,
                 uint64_t *acc)
{
    int32_t op = w->t.gop[o], lo = w->t.gin_off[o], hi = w->t.gin_off[o + 1];
    if (lo == hi)
        memset(acc, op == CONST1 ? 0xff : 0, w->nw * sizeof *acc);
    for (int32_t j = lo; j < hi; j++) {
        int32_t n = w->t.gin[j];
        const uint64_t *v = n == x ? word : value(w, n);
        if (j == lo)
            memcpy(acc, v, w->nw * sizeof *acc);
        else if (op == AND || op == NAND)
            for (int64_t i = 0; i < w->nw; i++)
                acc[i] &= v[i];
        else if (op == OR || op == NOR)
            for (int64_t i = 0; i < w->nw; i++)
                acc[i] |= v[i];
        else
            for (int64_t i = 0; i < w->nw; i++)
                acc[i] ^= v[i];
    }
    if (op == NAND || op == NOR || op == XNOR || op == NOT)
        for (int64_t i = 0; i < w->nw; i++)
            acc[i] = ~acc[i];
    acc[w->nw - 1] &= w->last;
}

static int64_t walk(const int32_t *tab, const uint64_t *good, int64_t nw,
                    uint64_t last, int64_t root, uint64_t *det,
                    uint64_t *rows)
{
    walk_t w = {0};
    int64_t evaluated = -1, n_pend;
    uint64_t *acc, *diff, *r;
    parse(tab, &w.t);
    w.good = good;
    w.nw = nw;
    w.last = last;
    n_pend = (w.t.n_steps + 63) / 64;
    w.slot = calloc(w.t.n_nets, sizeof *w.slot);
    w.pend = calloc(n_pend + 1, sizeof *w.pend);
    acc = malloc(2 * nw * sizeof *acc);
    if (!w.slot || !w.pend || !acc || !(r = own(&w, (int32_t)root)))
        goto done;
    diff = acc + nw;
    /* the root flips in every pattern */
    for (int64_t i = 0; i < nw; i++) {
        r[i] = ~r[i];
        diff[i] = ~(uint64_t)0;
    }
    r[nw - 1] &= last;
    diff[nw - 1] = last;
    if (spread(&w, (int32_t)root, diff))
        goto done;
    changed(&w, (int32_t)root, (int32_t)root);
    evaluated = 0;
    for (int64_t b = 0; b < n_pend; b++)
        while (w.pend[b]) {
            int32_t k = (int32_t)(b * 64 + __builtin_ctzll(w.pend[b]));
            int32_t o = w.t.out[k];
            const uint64_t *g = good + o * nw;
            uint64_t any = 0;
            w.pend[b] &= w.pend[b] - 1;
            if (w.t.gop[o] < XOR) {  /* non-linear: evaluated */
                uint64_t *v;
                eval(&w, o, -1, NULL, acc);
                evaluated++;
                for (int64_t i = 0; i < nw; i++)
                    any |= diff[i] = acc[i] ^ g[i];
                if (!any)
                    continue;
                if (!(v = own(&w, o))) {
                    evaluated = -1;
                    goto done;
                }
                memcpy(v, acc, nw * sizeof *v);
                changed(&w, o, -1);
            } else {  /* a tail end: its differences are summed in */
                const uint64_t *v = value(&w, o);
                for (int64_t i = 0; i < nw; i++)
                    any |= diff[i] = v[i] ^ g[i];
                if (!any)
                    continue;
            }
            if (spread(&w, o, diff)) {
                evaluated = -1;
                goto done;
            }
        }
    if (det)
        memset(det, 0, nw * sizeof *det);
    for (int32_t j = 0; j < w.t.n_obs; j++) {
        int32_t n = w.t.obs[j];
        uint64_t *row = rows ? rows + (int64_t)j * nw : NULL;
        if (w.slot[n]) {
            const uint64_t *v = value(&w, n), *g = good + n * nw;
            for (int64_t i = 0; i < nw; i++) {
                uint64_t d = v[i] ^ g[i];
                if (det)
                    det[i] |= d;
                if (row)
                    row[i] = d;
            }
        } else if (row)
            memset(row, 0, nw * sizeof *row);
    }
done:
    free(w.slot);
    free(w.pend);
    free(w.vals);
    free(acc);
    return evaluated;
}

static uint64_t any_set(const uint64_t *v, int64_t nw)
{
    uint64_t any = 0;
    for (int64_t i = 0; i < nw; i++)
        any |= v[i];
    return any;
}

/* the good-vs-faulty XOR at net o's gate when every pin of it that
   reads net x reads word instead (_output_diff); every net of g is
   good */
static void gate_diff(const walk_t *g, int32_t o, int32_t x,
                      const uint64_t *word, uint64_t *out)
{
    const uint64_t *v = g->good + (int64_t)o * g->nw;
    eval(g, o, x, word, out);
    for (int64_t i = 0; i < g->nw; i++)
        out[i] ^= v[i];
}

/* a memo row is published by its known flag: the row is written whole,
   then the flag set with a release store; a reader loads the flag with
   acquire before it reads the row */
static int is_known(const uint8_t *known, int32_t net)
{
    return __atomic_load_n(known + net, __ATOMIC_ACQUIRE);
}

static void publish(uint64_t *memo, uint8_t *known, int64_t nw, int32_t net,
                    const uint64_t *word)
{
    memcpy(memo + (int64_t)net * nw, word, nw * sizeof *word);
    __atomic_store_n(known + net, 1, __ATOMIC_RELEASE);
}

/* memo row of net, filled (_observability): climb the fan-out-free
   links to the first known net or the region's root, walk the root if
   it is not known, then restrict the word link by link on the way back
   down, memoising every net.  Returns 1 when it walked, 0 when it did
   not, -1 out of memory; adds the gates the walk evaluated to
   *evaluated.  chain holds n_nets nets, scratch 3 * nw words. */
static int64_t observe(const int32_t *tab, const walk_t *g, uint64_t *memo,
                       uint8_t *known, int32_t net, int32_t *chain,
                       uint64_t *scratch, int64_t *evaluated)
{
    int64_t nw = g->nw;
    uint64_t *word = scratch, *flip = scratch + nw, *diff = flip + nw;
    int32_t top = net, depth = 0;
    int64_t walked = 0;
    while (g->t.link[top] >= 0) {
        chain[depth++] = top;
        top = g->t.link[top];
        if (is_known(known, top))
            break;
    }
    if (is_known(known, top))
        memcpy(word, memo + (int64_t)top * nw, nw * sizeof *word);
    else {
        int64_t e = walk(tab, g->good, nw, g->last, top, word, NULL);
        if (e < 0)
            return -1;
        *evaluated += e;
        publish(memo, known, nw, top, word);
        walked = 1;
    }
    while (depth--) {
        int32_t inner = chain[depth];
        if (any_set(word, nw)) {
            const uint64_t *v = g->good + (int64_t)inner * nw;
            for (int64_t i = 0; i < nw; i++)
                flip[i] = ~v[i];
            flip[nw - 1] &= g->last;
            gate_diff(g, g->t.link[inner], inner, flip, diff);
            for (int64_t i = 0; i < nw; i++)
                word[i] &= diff[i];
        }
        publish(memo, known, nw, inner, word);
    }
    return walked;
}

/* keep only the batch [bounds[b], bounds[b + 1]) holding d's lowest
   set bit (d is not zero) */
static void first_batch(uint64_t *d, int64_t nw, int64_t n_bounds,
                        const int64_t *bounds)
{
    int64_t i = 0, low, lo, hi, b = 0;
    while (!d[i])
        i++;
    low = i * 64 + __builtin_ctzll(d[i]);
    while (b + 2 < n_bounds && bounds[b + 1] <= low)
        b++;
    lo = bounds[b];
    hi = bounds[b + 1];
    for (i = 0; i < nw; i++) {
        int64_t first = i * 64;
        uint64_t keep = ~(uint64_t)0;
        if (first + 64 <= lo || first >= hi)
            keep = 0;
        else {
            if (lo > first)
                keep &= ~(uint64_t)0 << (lo - first);
            if (hi < first + 64)
                keep &= ((uint64_t)1 << (hi - first)) - 1;
        }
        d[i] &= keep;
    }
}

static int64_t sweep(const int32_t *tab, const uint64_t *good, int64_t nw,
                     uint64_t last, uint64_t *memo, uint8_t *known,
                     int64_t n, const int32_t *site, const int32_t *at,
                     const int32_t *value, int64_t n_bounds,
                     const int64_t *bounds, uint64_t *det,
                     int64_t *evaluated)
{
    walk_t g = {0};  /* the good machine: no net owned */
    int64_t walks = -1;
    int32_t *chain;
    uint64_t *forced;
    parse(tab, &g.t);
    g.good = good;
    g.nw = nw;
    g.last = last;
    g.slot = calloc(g.t.n_nets, sizeof *g.slot);
    chain = malloc((g.t.n_nets + 1) * sizeof *chain);
    forced = malloc(4 * nw * sizeof *forced);
    *evaluated = 0;
    if (!g.slot || !chain || !forced)
        goto done;
    walks = 0;
    for (int64_t f = 0; f < n; f++) {
        int32_t s = site[f], a = at[f];
        const uint64_t *v = good + (int64_t)s * nw, *obs;
        uint64_t *d = det + f * nw, any = 0;
        for (int64_t i = 0; i < nw; i++) {
            forced[i] = value[f] ? ~(uint64_t)0 : 0;
            if (i == nw - 1)
                forced[i] &= last;
            any |= v[i] ^ forced[i];
        }
        if (!any) {  /* never activated in this window */
            memset(d, 0, nw * sizeof *d);
            continue;
        }
        if (a == s)
            for (int64_t i = 0; i < nw; i++)
                d[i] = v[i] ^ forced[i];
        else
            gate_diff(&g, a, s, forced, d);
        if (!any_set(d, nw))
            continue;
        if (!is_known(known, a)) {
            int64_t walked = observe(tab, &g, memo, known, a, chain,
                                     forced + nw, evaluated);
            if (walked < 0) {
                walks = -1;
                goto done;
            }
            walks += walked;
        }
        obs = memo + (int64_t)a * nw;
        any = 0;
        for (int64_t i = 0; i < nw; i++)
            any |= d[i] &= obs[i];
        if (any && n_bounds > 2)
            first_batch(d, nw, n_bounds, bounds);
    }
done:
    free(g.slot);
    free(chain);
    free(forced);
    return walks;
}

/* per-net flags of table: observed, a primary output, and the parity
   of a tail end's hits while one net's ends are counted */
enum { OBSERVED = 1, OUTPUT = 2, ODD = 4 };

/* every one of the m ids names one of n nets */
static int ids_ok(const int32_t *ids, int64_t m, int64_t n)
{
    for (int64_t j = 0; j < m; j++)
        if (ids[j] < 0 || ids[j] >= n)
            return 0;
    return 1;
}

/* the flat table of _native_table from the circuit's structure; out
   has room for 9 + 7 n + 3 n_gin + n_obs ints.  Returns the ints
   written, -1 out of memory, -2 a net id out of range or offsets that
   do not rise from 0. */
static int64_t table(int64_t n, const int32_t *gop, const int32_t *gin_off,
                     const int32_t *gin, int64_t n_obs, const int32_t *obs,
                     int64_t n_po, const int32_t *po, int64_t n_fd,
                     const int32_t *fd, int32_t *out)
{
    int64_t n_gin = gin_off[n], n_steps = 0, size = -1;
    int32_t *mem = calloc(11 * n + 3 * n_gin + 4, sizeof *mem);
    int32_t *sinks, *one, *next, *tail, *stamp, *cur, *hit_off, *hit,
        *end_off, *end, *step, *rd_off, *rd, *p = mem;
    uint8_t *flag = calloc(n + 1, 1);
    if (!mem || !flag)
        goto done;
    size = -2;
    for (int64_t o = 0; o < n; o++)
        if (gin_off[o + 1] < gin_off[o])
            goto done;
    if (gin_off[0] || !ids_ok(gin, n_gin, n) || !ids_ok(obs, n_obs, n)
        || !ids_ok(po, n_po, n) || !ids_ok(fd, n_fd, n))
        goto done;
    sinks = p;   p += n;
    one = p;     p += n;
    next = p;    p += n;
    tail = p;    p += n;
    stamp = p;   p += n;
    cur = p;     p += n;
    step = p;    p += n;
    hit_off = p; p += n + 1;
    end_off = p; p += n + 1;
    rd_off = p;  p += n + 1;
    hit = p;     p += n_gin;
    end = p;     p += n_gin;
    rd = p;
    /* consumers as fanout_map counts them, a gate once per pin and a
       flop once per D, and the one consumer's net when there is one
       (-1: a flop) */
    for (int64_t o = 0; o < n; o++)
        one[o] = -1;
    for (int64_t o = 0; o < n; o++)
        for (int32_t j = gin_off[o]; j < gin_off[o + 1]; j++) {
            sinks[gin[j]]++;
            one[gin[j]] = (int32_t)o;
        }
    for (int64_t j = 0; j < n_fd; j++) {
        sinks[fd[j]]++;
        one[fd[j]] = -1;
    }
    for (int64_t j = 0; j < n_obs; j++)
        flag[obs[j]] |= OBSERVED;
    for (int64_t j = 0; j < n_po; j++)
        flag[po[j]] |= OUTPUT;
    /* a linear link: read by one pin, of a linear gate, and not
       observed; its tail end is the first net down the links that is
       not one (a link's reader is numbered later) */
    for (int64_t o = n - 1; o >= 0; o--) {
        int32_t r = one[o];
        next[o] = sinks[o] == 1 && r >= 0 && !(flag[o] & OBSERVED)
            && gop[r] >= XOR ? r : -1;
        tail[o] = next[o] < 0 ? (int32_t)o : tail[next[o]];
    }
    /* per net the tail ends its linear pins feed, in gate and pin
       order; its ends are those hit an odd number of times, in the
       order of their first hit */
    for (int64_t o = 0; o < n; o++)
        if (gop[o] >= XOR)
            for (int32_t j = gin_off[o]; j < gin_off[o + 1]; j++)
                hit_off[gin[j] + 1]++;
    for (int64_t o = 0; o < n; o++) {
        hit_off[o + 1] += hit_off[o];
        cur[o] = hit_off[o];
        stamp[o] = -1;
    }
    for (int64_t o = 0; o < n; o++)
        if (gop[o] >= XOR)
            for (int32_t j = gin_off[o]; j < gin_off[o + 1]; j++)
                hit[cur[gin[j]]++] = tail[o];
    for (int64_t s = 0; s < n; s++) {
        int32_t m = end_off[s];
        for (int32_t h = hit_off[s]; h < hit_off[s + 1]; h++)
            flag[hit[h]] ^= ODD;
        for (int32_t h = hit_off[s]; h < hit_off[s + 1]; h++)
            if (stamp[hit[h]] != s) {
                stamp[hit[h]] = (int32_t)s;
                if (flag[hit[h]] & ODD) {
                    end[m++] = hit[h];
                    flag[hit[h]] &= ~ODD;
                }
            }
        end_off[s + 1] = m;
    }
    /* the kept steps: every non-linear gate, and a linear one that is
       a tail end passing its difference on */
    for (int64_t o = 0; o < n; o++)
        if (gop[o] >= 0 && (gop[o] < XOR
                            || (next[o] < 0 && end_off[o + 1] > end_off[o])))
            step[n_steps++] = (int32_t)o;
    /* per net the steps to mark when it changes: the non-linear steps
       reading it (once however many pins), a tail end's own step */
    for (int pass = 0; pass < 2; pass++) {
        for (int64_t o = 0; o < n; o++) {
            stamp[o] = -1;
            if (pass)
                cur[o] = rd_off[o];
        }
        for (int32_t k = 0; k < n_steps; k++) {
            int32_t o = step[k], linear = gop[o] >= XOR;
            int32_t lo = linear ? 0 : gin_off[o];
            int32_t hi = linear ? 1 : gin_off[o + 1];
            for (int32_t j = lo; j < hi; j++) {
                int32_t src = linear ? o : gin[j];
                if (stamp[src] == k)
                    continue;
                stamp[src] = k;
                if (pass)
                    rd[cur[src]++] = k;
                else
                    rd_off[src + 1]++;
            }
        }
        if (!pass)
            for (int64_t o = 0; o < n; o++)
                rd_off[o + 1] += rd_off[o];
    }
    /* the layout _native_table documents */
    p = out;
    *p++ = (int32_t)n;
    *p++ = (int32_t)n_steps;
    *p++ = (int32_t)n_obs;
    *p++ = end_off[n];
    *p++ = rd_off[n];
    *p++ = (int32_t)n_gin;
    memcpy(p, step, n_steps * sizeof *p);       p += n_steps;
    memcpy(p, end_off, (n + 1) * sizeof *p);    p += n + 1;
    memcpy(p, end, end_off[n] * sizeof *p);     p += end_off[n];
    memcpy(p, rd_off, (n + 1) * sizeof *p);     p += n + 1;
    memcpy(p, rd, rd_off[n] * sizeof *p);       p += rd_off[n];
    memcpy(p, obs, n_obs * sizeof *p);          p += n_obs;
    memcpy(p, gop, n * sizeof *p);              p += n;
    memcpy(p, gin_off, (n + 1) * sizeof *p);    p += n + 1;
    memcpy(p, gin, n_gin * sizeof *p);          p += n_gin;
    /* the fan-out-free link: the one consuming gate's net, unless the
       net is a primary output or a flop reads it */
    for (int64_t o = 0; o < n; o++)
        *p++ = sinks[o] == 1 && one[o] >= 0 && !(flag[o] & OUTPUT)
            ? one[o] : -1;
    size = p - out;
done:
    free(mem);
    free(flag);
    return size;
}

typedef struct {
    int64_t (*walk)(const int32_t *, const uint64_t *, int64_t, uint64_t,
                    int64_t, uint64_t *, uint64_t *);
    int64_t (*sweep)(const int32_t *, const uint64_t *, int64_t, uint64_t,
                     uint64_t *, uint8_t *, int64_t, const int32_t *,
                     const int32_t *, const int32_t *, int64_t,
                     const int64_t *, uint64_t *, int64_t *);
    int64_t (*table)(int64_t, const int32_t *, const int32_t *,
                     const int32_t *, int64_t, const int32_t *, int64_t,
                     const int32_t *, int64_t, const int32_t *, int32_t *);
} exports_t;

const exports_t rescue_kernel = { walk, sweep, table };
"""


def _observability(
    circuit: Circuit,
    walks: _RootWalks,
    good: Mapping[str, int],
    mask: int,
    obs: dict[str, int],
    net: str,
) -> tuple[int, bool]:
    """Resolve a miss of one window's observability memo ``obs``.

    Returns ``net``'s word and whether a cone was walked for it.  The
    climb follows the fan-out-free links up to the first net already in
    the memo, or to the region's root, whose word is one walk of its
    cone (observed at the sweep's observe nets) with the root forced to
    the complement of its good word (``walks``: :func:`_root_walk`,
    which sums linear tails instead of evaluating them).
    Coming back down, a net's word is its consumer's, restricted to the
    patterns in which flipping the net flips the consumer.  Every net on
    the way is memoised.
    """
    chain, top, word = _climb(circuit, obs, net)
    walked = word is None
    if walked:
        word = obs[top] = walks(top)
    for inner, gate in reversed(chain):
        if word:
            word &= _output_diff(gate, good, inner, good[inner] ^ mask, mask)
        obs[inner] = word
    return word, walked


def _climb(circuit: Circuit, memo: Mapping[str, object], net: str
           ) -> tuple[list[tuple[str, Gate]], str, object]:
    """Follow the fan-out-free links up from ``net`` to the first net
    already in ``memo`` or to its region's root.  Returns the links
    passed as ``(net, its one consuming gate)`` from ``net`` up, the net
    the climb stopped at and its memo entry (``None`` at a root not in
    ``memo``).  Inside a region a net reaches anything only through its
    consumer, so a flip of it shows wherever a flip of the consumer's
    output does, in the patterns where it flips that output: coming
    back down, a caller restricts the top's entry link by link
    (:func:`_observability`, and the slicing backend's per-observed-net
    effects)."""
    links = _ffr_links(circuit)
    chain: list[tuple[str, Gate]] = []
    entry = None
    gate = links.get(net)
    while gate is not None:
        chain.append((net, gate))
        net = gate.output
        entry = memo.get(net)
        if entry is not None:
            break
        gate = links.get(net)
    return chain, net, entry


def _batched_detection(
    circuit: Circuit,
    fault: StuckAtFault,
    windows: PatternWindows,
    drop_detected: bool,
) -> int:
    """Detection bits of one fault across windows, in global numbering.

    In each window the detection word is ``diff & obs``: ``diff`` is the
    good-vs-faulty XOR where the fault first shows — on the net itself
    for a stem, at the output of the one gate that reads the forced pin
    for a branch (a gate reading the net on two pins sees it forced on
    both) — and ``obs`` is that net's entry in the window's
    observability memo.  The product is exact per bit column: the faulty
    machine differs from the good one only through that net's word,
    each pattern is its own column, and in the columns where the word
    does differ it is the flipped good value.  So a fault costs one gate
    evaluation and a memo read, and a cone is walked once per
    fan-out-free region and window (:func:`_observability`), not once
    per fault.  A branch into a flop D pin has no combinational cone and
    stays on the interpreter.  A window in which the site's good word
    already equals the forced word never activates the fault and is
    skipped.

    With ``drop_detected`` the fault stops at the first detecting batch
    — the classic fault-dropping acceleration.  Batches inside a window
    are independent bit columns, so the window's mask restricted to the
    batch holding its lowest set bit is exactly what per-batch dropping
    reports; later windows are not evaluated at all, nor is their memo
    asked.
    """
    spans = windows.windows
    line = fault.line
    site = line.net
    value = fault.value
    # the net the difference first shows on, and the gate computing it
    at = site if line.is_stem else line.sink
    gate = None if line.is_stem else circuit.gates.get(at)
    coneless = gate is None and not line.is_stem  # branch into a flop D
    acc = 0
    for good, mask, offset, starts, batch_masks, walks, obs in spans:
        forced = mask if value else 0
        if good.get(site) == forced:
            continue  # never activated in this window
        if coneless:
            det = _detection_mask_interp(circuit, line, forced, good, mask,
                                         windows.observe)
        else:
            if gate is None:
                det = good.get(site, 0) ^ forced
            else:
                det = _output_diff(gate, good, site, forced, mask)
            if det:
                word = obs.get(at)
                if word is None:
                    word, walked = _observability(
                        circuit, walks, good, mask, obs, at)
                    windows.root_walks += walked
                det &= word
        if det:
            if drop_detected:
                if len(starts) > 1:
                    first = (det & -det).bit_length() - 1
                    det &= batch_masks[bisect_right(starts, first) - 1]
                acc = det << offset
                break
            acc |= det << offset
    return acc


def _sweep(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    windows: PatternWindows,
    drop_detected: bool,
) -> list[int]:
    """:func:`_batched_detection` of every fault of ``faults``, in order.

    Where the C kernel loaded, a window is one call for the whole list
    (``sweep`` of :data:`_C_ROOT_WALK`): the faults go in as three int32
    columns — site, the net the difference first shows on, stuck value —
    and the detection words come back per fault, on the window's own
    memo (:class:`_RootWalks`).  Under ``drop_detected`` a fault
    detected in a window is not handed to the later ones, and a window
    is resolved (its good words packed, its memo allocated) only when a
    fault is left for it.  A branch into a flop D has no combinational
    cone and stays on :func:`_batched_detection`, as does every fault
    when the first window resolved without the kernel (no compiler, or
    compilation off when it first swept): it is the reference the C
    sweep is tested against.  A later window that resolved without the
    kernel hands it the faults still open, for the windows from there
    on.  ``windows.root_walks`` counts the walks either way.
    """
    spans = windows.windows
    native = spans[0][5]._kernel() if spans else ()
    if not native:
        return [_batched_detection(circuit, fault, windows, drop_detected)
                for fault in faults]
    index, _, targets = _native_table(circuit, windows.observe, native[0])
    lines = list(map(attrgetter("line"), faults))
    sites = list(map(index.__getitem__, map(attrgetter("net"), lines)))
    ats = list(map(targets.__getitem__, map(attrgetter("sink"), lines)))
    values = list(map(attrgetter("value"), faults))
    acc = [0] * len(faults)
    todo = []
    for i, at in enumerate(ats):
        if at == _AT_FLOP_D:
            acc[i] = _batched_detection(circuit, faults[i], windows,
                                        drop_detected)
        else:
            if at == _AT_STEM:
                ats[i] = sites[i]
            todo.append(i)
    for w, (_, mask, offset, starts, _, walks, _) in enumerate(spans):
        if not todo:
            break
        if not walks._kernel():
            rest = PatternWindows(spans[w:], windows.n_patterns,
                                  windows.observe)
            for i in todo:
                acc[i] |= _batched_detection(circuit, faults[i], rest,
                                             drop_detected)
            windows.root_walks += rest.root_walks
            break
        bounds = (array("q", (*starts, mask.bit_length()))
                  if drop_detected and len(starts) > 1 else array("q"))
        found, walked, _ = walks.sweep(
            *(array("i", map(column.__getitem__, todo))
              for column in (sites, ats, values)), bounds)
        windows.root_walks += walked
        if drop_detected:
            left = []
            for i, word in zip(todo, found):
                if word:
                    acc[i] = word << offset
                else:
                    left.append(i)
            todo = left
        else:
            for i, word in zip(todo, found):
                if word:
                    acc[i] |= word << offset
    return acc


#: Faults :func:`fault_simulate_batched` hands :func:`_sweep` at once,
#: as the campaign engine hands ``PpsfpBackend`` a chunk: the call's
#: output words and their ints exist for one chunk at a time, and a
#: fault's word across windows is whole before the next chunk starts.
_SWEEP_CHUNK = 1024


def fault_simulate_batched(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    batches: Sequence[tuple[Mapping[str, int], int]],
    state: Mapping[str, int] | None = None,
    full_scan: bool = True,
    drop_detected: bool = True,
) -> FaultSimResult:
    """PPSFP over a sequence of pattern batches with fault dropping.

    ``batches`` is a list of ``(pi_values, n_patterns)`` pairs; detection
    bits are reported in the global pattern numbering (batch 0 first).
    Batches are concatenated into windows of up to :data:`WINDOW_BITS`
    patterns; a fault is one gate evaluation per window and a cone is
    walked once per fan-out-free region and window, all of it in one C
    call per window where the kernel loads (:func:`_sweep`).
    The detected/undetected split (and hence coverage) is identical to
    simulating all patterns in one pass; only the detection masks of
    batches after the first detecting one are forgone for dropped
    faults, exactly as if every batch had been simulated on its own.
    """
    windows = _pattern_windows(circuit, batches, state, full_scan)
    result = FaultSimResult(windows.n_patterns)
    for lo in range(0, len(faults), _SWEEP_CHUNK):
        chunk = faults[lo:lo + _SWEEP_CHUNK]
        for fault, acc in zip(chunk, _sweep(circuit, chunk, windows,
                                            drop_detected)):
            if acc:
                result.detected[fault] = acc
            else:
                result.undetected.append(fault)
    return result


def sequential_fault_simulate(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    stimuli: Sequence[Mapping[str, int]],
) -> FaultSimResult:
    """Serial sequential fault simulation (one faulty machine at a time).

    A fault is detected when any primary output differs from the good
    machine in any cycle.  Used for non-scan designs (e.g. the s27-style
    cores and SBST evaluation).

    The machines advance cycle by cycle, the golden one first.  A faulty
    machine whose state still equals the golden state evaluates the
    golden values (its fault not yet latched, or washed out), so only
    a machine that has diverged re-simulates its own good values.
    """
    outputs = circuit.outputs
    flops = circuit.flops
    golden_state = {q: (1 if f.init else 0) for q, f in flops.items()}
    # each faulty machine's state, or None while it equals the golden one
    states: list[dict[str, int] | None] = [None] * len(faults)
    det = [0] * len(faults)
    for cyc, stim in enumerate(stimuli):
        golden = simulate(circuit, stim, 1, golden_state)
        golden_pos = [golden.get(po, 0) for po in outputs]
        golden_state = {q: golden[f.d] for q, f in flops.items()}
        for i, fault in enumerate(faults):
            state = states[i]
            good = (golden if state is None
                    else simulate(circuit, stim, 1, state))
            values = faulty_values(circuit, fault, good, 1)
            if any(values.get(po, 0) != g
                   for po, g in zip(outputs, golden_pos)):
                det[i] |= 1 << cyc
            sink = None if fault.line.is_stem else fault.line.sink
            nxt = {q: values[f.d] for q, f in flops.items()}
            if sink in flops:  # a branch fault on a flop's D pin
                nxt[sink] = values.get(f"__flopD__{sink}", nxt[sink])
            states[i] = None if nxt == golden_state else nxt
    result = FaultSimResult(len(stimuli))
    for fault, bits in zip(faults, det):
        if bits:
            result.detected[fault] = bits
        else:
            result.undetected.append(fault)
    return result
