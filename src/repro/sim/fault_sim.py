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

Every cone walk here is the interpreter's (``GATE_EVAL`` over the
cone's gates); only the good-machine simulations run on the circuit's
compiled program.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import compress
from typing import Collection, Mapping, Sequence

from ..circuit.netlist import Circuit, Gate, GateType
from ..faults.models import Line, StuckAtFault
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
#: (paired with an observe tuple) of the linear-tail walk table inside
#: ``Circuit._cone_cache`` (cone keys are tuples of net names, so none
#: can collide with one).
_REACH_KEY = None
_FFR_KEY = "ffr"
_TAILS_KEY = "tails"

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

    Each window is ``(good, mask, offset, starts, batch_masks, obs)``:
    the good values of its batches side by side in one word per net, the
    window's width mask, its first pattern's global number, per batch
    the bit position it starts at inside the window and its own mask
    already shifted there, and the window's observability memo — per
    net, the patterns in which a *flip* of that net reaches one of
    ``observe`` (:func:`_observability` fills it on demand).  A memo
    entry is a pure function of the window and the net, so a chunk
    abandoned past ``chunk_timeout`` that is still sweeping on its
    daemon thread can only write the value the live sweep would.
    ``root_walks`` counts the cone walks the detection sweeps paid for
    (at most one per fan-out-free region and window); it never
    influences an outcome.
    """

    windows: list[tuple[dict[str, int], int, int, list[int], list[int],
                        dict[str, int]]]
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
        windows.append((simulate(circuit, pis, width, flops), mask_of(width),
                        total, starts, batch_masks, {}))
        total += width
    return PatternWindows(windows, total, _observe_nets(circuit, full_scan))


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


def _observability(
    circuit: Circuit,
    observe: Sequence[str],
    good: Mapping[str, int],
    mask: int,
    obs: dict[str, int],
    net: str,
) -> tuple[int, bool]:
    """Resolve a miss of one window's observability memo ``obs``.

    Returns ``net``'s word and whether a cone was walked for it.  The
    climb follows the fan-out-free links up to the first net already in
    the memo, or to the region's root, whose word is one walk of its
    cone (observed at ``observe``) with the root forced to the
    complement of its good word (:func:`_root_walk`, which sums linear
    tails instead of evaluating them).  Coming back down, a net's word
    is its consumer's, restricted to the patterns in which flipping the
    net flips the consumer.  Every net on the way is memoised.
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
        word = obs[net] = _root_walk(circuit, observe, good, mask, net)
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
    for good, mask, offset, starts, batch_masks, obs in spans:
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
                        circuit, windows.observe, good, mask, obs, at)
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
    """
    good_trace = _seq_trace(circuit, None, stimuli)
    result = FaultSimResult(len(stimuli))
    for fault in faults:
        bad_trace = _seq_trace(circuit, fault, stimuli)
        det = 0
        for cyc, (g, b) in enumerate(zip(good_trace, bad_trace)):
            if g != b:
                det |= 1 << cyc
        if det:
            result.detected[fault] = det
        else:
            result.undetected.append(fault)
    return result


def _seq_trace(
    circuit: Circuit,
    fault: StuckAtFault | None,
    stimuli: Sequence[Mapping[str, int]],
) -> list[tuple[int, ...]]:
    state = {q: (1 if f.init else 0) for q, f in circuit.flops.items()}
    trace: list[tuple[int, ...]] = []
    for stim in stimuli:
        good = simulate(circuit, stim, 1, state)
        values = good if fault is None else faulty_values(circuit, fault,
                                                          good, 1)
        trace.append(tuple(values.get(po, 0) for po in circuit.outputs))
        next_state = {}
        for q, flop in circuit.flops.items():
            if (fault is not None and not fault.line.is_stem
                    and fault.line.sink == q):
                next_state[q] = values.get(f"__flopD__{q}", values[flop.d])
            else:
                next_state[q] = values[flop.d]
        state = next_state
    return trace


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
