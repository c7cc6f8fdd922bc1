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

The batched sweep's root walks run in C where they can: one fixed
translation unit for every design (:data:`_C_ROOT_WALK`), built once per
host by :mod:`repro.sim.native` and called through :mod:`ctypes`,
interprets flat tables of the walk (:func:`_native_table`) over each
window's good words, packed once per window (:class:`_RootWalks`).  It
is event-driven: of a root's cone it evaluates only the gates an input
of which changed.  With no C compiler, or with compilation off
(``RESCUE_NO_COMPILE``, :func:`repro.sim.compiled.disabled`), the
interpreter walks (:func:`_root_walk`), with identical results: it is
the reference the C walk is tested against.  Everything else here
interprets (``GATE_EVAL``): the per-fault reference walks, the region
climb, and every good-machine simulation
(:func:`repro.sim.logic.simulate`, run once per pattern window or cycle
and kept).  Neither :mod:`ctypes` nor :mod:`repro.sim.native` is
imported before the first root walk.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import compress
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

    def essential_patterns(self) -> set[int]:
        """Patterns that are the sole detector of at least one fault."""
        essential = set()
        for mask in self.detected.values():
            if mask and mask & (mask - 1) == 0:
                essential.add(mask.bit_length() - 1)
        return essential


#: Keys of the reachability table, of the fan-out-free-region links and
#: (paired with an observe tuple) of the linear-tail walk table and its
#: flat form for the C walk inside ``Circuit._cone_cache`` (cone keys are
#: tuples of net names, so none can collide with one).
_REACH_KEY = None
_FFR_KEY = "ffr"
_TAILS_KEY = "tails"
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
) -> tuple[dict[str, int], list, dict[str, tuple[str, ...]]]:
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
    evaluated.  ``bits`` is :func:`_reach_table` over those kept gates,
    reachability passing through the rest, and ``steps[i]`` is kept gate
    *i* as ``(gate, or None for a linear one, its output, the output's
    ends)``.  Cached per observe tuple beside the other structural
    tables: mutation and pickling drop it.
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
    keep = {gate.output for gate in order
            if gate.gtype not in _LINEAR
            or (gate.output not in reader and gate.output in ends)}
    bits, kept = _reach_table(circuit, keep)
    steps = [(None if gate.gtype in _LINEAR else gate, gate.output,
              ends.get(gate.output, ())) for gate in kept]
    table = cache[key] = (bits, steps, ends)
    return table


#: Opcodes of the C walk's steps: a summed tail end (``SUMMED``) or one
#: of the non-linear gates, which are the only ones a walk evaluates.
_OPCODES = {None: 0, GateType.AND: 1, GateType.NAND: 2, GateType.OR: 3,
            GateType.NOR: 4, GateType.CONST0: 5, GateType.CONST1: 6}


def _native_table(
    circuit: Circuit,
    observe: Sequence[str],
) -> tuple[dict[str, int], bytes]:
    """:func:`_tail_table` flattened for :data:`_C_ROOT_WALK`.

    Nets are numbered inputs, flops, then gate outputs in topological
    order; the returned index maps each net to its number, which is also
    its row in a window's packed good words (:class:`_RootWalks`).  The
    table is one run of int32: the header ``n_nets, n_steps, n_obs,
    n_in, n_end, n_rd``, then per kept step its opcode and output, its
    inputs as a CSR (offsets, then nets; none for a summed tail end),
    per net its tail ends as a CSR, per net the kept steps to mark when
    it changes as a CSR — the non-linear steps reading it, and the tail
    end's own step — and the observed nets.  Cached per observe tuple
    beside the tail table: mutation and pickling drop it.
    """
    key = (_NATIVE_KEY, tuple(observe))
    cache = circuit._cone_cache
    table = cache.get(key)
    if table is not None:
        return table
    _, steps, ends = _tail_table(circuit, observe)
    index: dict[str, int] = {}
    for net in (*circuit.inputs, *circuit.flops,
                *(gate.output for gate in circuit.topo_order())):
        index.setdefault(net, len(index))
    ops, outs, in_off, ins, end_off, end_nets, rd_off, rd = (
        array("i") for _ in range(8))
    readers: list[list[int]] = [[] for _ in index]
    for k, (gate, out, _) in enumerate(steps):
        ops.append(_OPCODES[None if gate is None else gate.gtype])
        outs.append(index[out])
        in_off.append(len(ins))
        if gate is None:
            readers[index[out]].append(k)
        else:
            ins.extend(index[src] for src in gate.inputs)
            for src in dict.fromkeys(gate.inputs):
                readers[index[src]].append(k)
    in_off.append(len(ins))
    for net, i in index.items():
        end_off.append(len(end_nets))
        end_nets.extend(index[end] for end in ends.get(net, ()))
        rd_off.append(len(rd))
        rd.extend(readers[i])
    end_off.append(len(end_nets))
    rd_off.append(len(rd))
    obs = array("i", (index[net] for net in observe))
    header = array("i", (len(index), len(steps), len(obs), len(ins),
                         len(end_nets), len(rd)))
    table = cache[key] = (index, b"".join(
        part.tobytes() for part in (header, ops, outs, in_off, ins, end_off,
                                    end_nets, rd_off, rd, obs)))
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
    (:class:`_RootWalks`) and its observability memo — per net, the
    patterns in which a *flip* of that net reaches one of ``observe``
    (:func:`_observability` fills it on demand).  A memo entry is a pure
    function of the window and the net, so a chunk abandoned past
    ``chunk_timeout`` that is still sweeping on its daemon thread can
    only write the value the live sweep would; the walks share nothing
    writable between calls, in Python or in C.  ``root_walks`` counts
    the cone walks the detection sweeps paid for (at most one per
    fan-out-free region and window); it never influences an outcome.
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
) -> int:
    """Patterns in which flipping ``net`` reaches one of ``observe``.

    :func:`_detection_mask_interp` of the stem forced to its complement,
    walked over :func:`_tail_table`'s kept gates only: whenever a walked
    net differs, its difference is XORed into the value of each tail end
    it feeds linearly, so by the time the walk reaches a tail end in
    topological order that value is already the faulty one.
    """
    bits, steps, ends = _tail_table(circuit, observe)
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
    :func:`_root_walk` of ``net`` over the window's good words.

    On the first call the kernel is resolved (:func:`native_kernel`) and,
    when it loaded, the window's good words are packed for it once —
    one row of ``ceil(width / 64)`` little-endian ``uint64_t`` per net
    of :func:`_native_table` — and kept; every call then walks in C.
    The C walk allocates its scratch per call and releases the GIL, so
    threads may share a window (a second thread that resolves at the
    same time packs the same words).  Without the kernel every call is
    :func:`_root_walk`.
    """

    __slots__ = ("circuit", "observe", "good", "mask", "native")

    def __init__(self, circuit: Circuit, observe: Sequence[str],
                 good: Mapping[str, int], mask: int) -> None:
        self.circuit = circuit
        self.observe = observe
        self.good = good
        self.mask = mask
        self.native = None  # resolved on the first walk: () for Python

    def _resolve(self) -> tuple:
        kernel = native_kernel()
        if kernel is None:
            return ()
        index, table = _native_table(self.circuit, self.observe)
        n_words = max(1, (self.mask.bit_length() + 63) >> 6)
        good = self.good
        words = b"".join(good.get(net, 0).to_bytes(8 * n_words, "little")
                         for net in index)
        last = self.mask >> 64 * (n_words - 1)
        return kernel, index, table, words, n_words, last

    def __call__(self, net: str) -> int:
        native = self.native
        if native is None:
            native = self.native = self._resolve()
        if not native:
            return _root_walk(self.circuit, self.observe, self.good,
                              self.mask, net)
        kernel, index, table, words, n_words, last = native
        return kernel.walk(table, words, n_words, last, index[net])[0]


#: The C root walk, one translation unit for every design: the tables of
#: :func:`_native_table` and a window's good words (``n_nets`` rows of
#: ``nw`` words, the last word of a row holding ``last``'s bits) in, the
#: detection words of one flipped net out.  ``rescue_kernel.walk(tab,
#: good, nw, last, root, det)`` returns the gates it evaluated (-1: out
#: of memory).  :func:`_root_walk` event by event: a pending bitmap over
#: the kept steps in topological order holds the steps an input of
#: which changed; a step that changes its net XORs the difference into
#: the net's tail ends and marks their readers.  A net's words are
#: copied out of ``good`` into the call's own scratch when it first
#: changes (``slot`` maps a net to its scratch row), so ``good`` is read
#: only and nothing outlives the call.
_C_ROOT_WALK = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { SUMMED, AND, NAND, OR, NOR, CONST0, CONST1 };

typedef struct {
    int32_t n_nets, n_steps, n_obs;
    const int32_t *op, *out, *in_off, *in, *end_off, *end, *rd_off, *rd,
        *obs;
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
    t->op = p;      p += h[1];
    t->out = p;     p += h[1];
    t->in_off = p;  p += h[1] + 1;
    t->in = p;      p += h[3];
    t->end_off = p; p += h[0] + 1;
    t->end = p;     p += h[4];
    t->rd_off = p;  p += h[0] + 1;
    t->rd = p;      p += h[5];
    t->obs = p;
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

static void eval(const walk_t *w, int32_t k, uint64_t *acc)
{
    int32_t op = w->t.op[k], lo = w->t.in_off[k], hi = w->t.in_off[k + 1];
    if (op == CONST0 || op == CONST1) {
        for (int64_t i = 0; i < w->nw; i++)
            acc[i] = op == CONST1 ? ~(uint64_t)0 : 0;
    } else {
        memcpy(acc, value(w, w->t.in[lo]), w->nw * sizeof *acc);
        for (int32_t j = lo + 1; j < hi; j++) {
            const uint64_t *v = value(w, w->t.in[j]);
            if (op == AND || op == NAND)
                for (int64_t i = 0; i < w->nw; i++)
                    acc[i] &= v[i];
            else
                for (int64_t i = 0; i < w->nw; i++)
                    acc[i] |= v[i];
        }
        if (op == NAND || op == NOR)
            for (int64_t i = 0; i < w->nw; i++)
                acc[i] = ~acc[i];
    }
    acc[w->nw - 1] &= w->last;
}

static int64_t walk(const int32_t *tab, const uint64_t *good, int64_t nw,
                    uint64_t last, int64_t root, uint64_t *det)
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
            if (w.t.op[k] != SUMMED) {
                uint64_t *v;
                eval(&w, k, acc);
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
            } else {
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
    memset(det, 0, nw * sizeof *det);
    for (int32_t j = 0; j < w.t.n_obs; j++) {
        int32_t n = w.t.obs[j];
        if (w.slot[n]) {
            const uint64_t *v = value(&w, n), *g = good + n * nw;
            for (int64_t i = 0; i < nw; i++)
                det[i] |= v[i] ^ g[i];
        }
    }
done:
    free(w.slot);
    free(w.pend);
    free(w.vals);
    free(acc);
    return evaluated;
}

typedef struct {
    int64_t (*walk)(const int32_t *, const uint64_t *, int64_t, uint64_t,
                    int64_t, uint64_t *);
} exports_t;

const exports_t rescue_kernel = { walk };
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
    the complement of its good word (``walks``: :func:`_root_walk`, in C
    where it can, which sums linear tails instead of evaluating them).
    Coming back down, a net's word is its consumer's, restricted to the
    patterns in which flipping the net flips the consumer.  Every net on
    the way is memoised.
    """
    links = _ffr_links(circuit)
    chain: list[tuple[str, Gate]] = []
    word = None
    gate = links.get(net)
    while gate is not None:
        chain.append((net, gate))
        net = gate.output
        word = obs.get(net)
        if word is not None:
            break
        gate = links.get(net)
    walked = word is None
    if walked:
        word = obs[net] = walks(net)
    for inner, gate in reversed(chain):
        if word:
            word &= _output_diff(gate, good, inner, good[inner] ^ mask, mask)
        obs[inner] = word
    return word, walked


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
    walked once per fan-out-free region and window.
    The detected/undetected split (and hence coverage) is identical to
    simulating all patterns in one pass; only the detection masks of
    batches after the first detecting one are forgone for dropped
    faults, exactly as if every batch had been simulated on its own.
    """
    windows = _pattern_windows(circuit, batches, state, full_scan)
    result = FaultSimResult(windows.n_patterns)
    for fault in faults:
        acc = _batched_detection(circuit, fault, windows, drop_detected)
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


def fault_coverage(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    pi_values: Mapping[str, int],
    n_patterns: int,
    full_scan: bool = True,
) -> float:
    """Convenience wrapper returning just the coverage fraction."""
    return fault_simulate(circuit, faults, pi_values, n_patterns,
                          full_scan=full_scan).coverage
