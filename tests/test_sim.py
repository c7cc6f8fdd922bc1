"""Tests for the simulation engines: bit-parallel, 3-valued, sequential,
event-driven, fault simulation."""

import pickle
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder, GateType, load
from repro.circuit.levelize import fanout_cone
from repro.circuit.library import random_combinational, random_sequential
from repro.faults import Line, StuckAtFault, all_stuck_at, collapse
from repro.sim import compiled, fault_sim, native
from repro.sim.fault_sim import (WINDOW_BITS, _FFR_KEY, _INDEX_KEY,
                                 _NATIVE_KEY, _REACH_KEY, _TAILS_KEY,
                                 FaultSimResult, _batched_detection,
                                 _cone_gates, _ffr_links, _native_table,
                                 _net_index, _observe_nets, _pattern_windows,
                                 _root_walk, _tail_table, detection_mask)
from repro.sim.logic import GATE_EVAL
from repro.sim import (
    EventSim,
    SequentialSim,
    X,
    eval_gate_3v,
    exhaustive_patterns,
    fault_simulate,
    fault_simulate_batched,
    mask_of,
    output_trace,
    pack_patterns,
    random_patterns,
    sequential_fault_simulate,
    simulate,
    simulate_3v,
    unpack_patterns,
)


class TestBitParallel:
    def test_pack_unpack_roundtrip(self):
        pats = [{"a": 1, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 1}]
        packed = pack_patterns(pats)
        assert unpack_patterns(packed, 3) == pats

    def test_exhaustive_patterns_cover_space(self):
        packed, n = exhaustive_patterns(["x", "y", "z"])
        assert n == 8
        seen = {tuple((packed[k] >> i) & 1 for k in "xyz") for i in range(8)}
        assert len(seen) == 8

    def test_simulation_matches_python_semantics(self):
        bld = CircuitBuilder("mix")
        a, b, c = bld.input("a"), bld.input("b"), bld.input("c")
        bld.output(bld.and_(a, b, name="and_o"))
        bld.output(bld.nor(b, c, name="nor_o"))
        bld.output(bld.xnor(a, c, name="xnor_o"))
        circuit = bld.done()
        packed, n = exhaustive_patterns(circuit.inputs)
        vals = simulate(circuit, packed, n)
        for i in range(n):
            av = (packed["a"] >> i) & 1
            bv = (packed["b"] >> i) & 1
            cv = (packed["c"] >> i) & 1
            assert (vals["and_o"] >> i) & 1 == (av & bv)
            assert (vals["nor_o"] >> i) & 1 == (1 - (bv | cv))
            assert (vals["xnor_o"] >> i) & 1 == (1 - (av ^ cv))

    def test_random_patterns_deterministic(self):
        assert random_patterns(["a", "b"], 64, seed=9) == \
            random_patterns(["a", "b"], 64, seed=9)

    def test_mask_of(self):
        assert mask_of(1) == 1
        assert mask_of(64) == (1 << 64) - 1


class TestThreeValued:
    def test_controlling_value_dominates_x(self):
        bld = CircuitBuilder("t")
        a, b = bld.input("a"), bld.input("b")
        bld.output(bld.and_(a, b, name="y"))
        bld.output(bld.or_(a, b, name="z"))
        c = bld.done()
        vals = simulate_3v(c, {"a": 0})
        assert vals["y"] == 0          # AND with a 0 input
        assert vals["z"] is X          # OR needs the other input
        vals = simulate_3v(c, {"a": 1})
        assert vals["y"] is X
        assert vals["z"] == 1

    def test_xor_with_x_is_x(self):
        bld = CircuitBuilder("t")
        a, b = bld.input("a"), bld.input("b")
        bld.output(bld.xor(a, b, name="y"))
        c = bld.done()
        assert simulate_3v(c, {"a": 1})["y"] is X
        assert simulate_3v(c, {"a": 1, "b": 1})["y"] == 0

    def test_3v_agrees_with_binary_when_fully_assigned(self):
        c = load("c17")
        rng = random.Random(4)
        for _ in range(10):
            assign = {pi: rng.randint(0, 1) for pi in c.inputs}
            v3 = simulate_3v(c, assign)
            v2 = simulate(c, pack_patterns([assign]), 1)
            for net in c.nets:
                assert v3[net] == (v2[net] & 1)


class TestSequentialSim:
    def test_counter_counts(self):
        sim = SequentialSim(load("cnt8"))
        for _ in range(10):
            sim.step({"en": 1})
        # outputs reflect pre-edge state; internal state is the count
        count = sum((sim.state[f"q{i}"] & 1) << i for i in range(8))
        assert count == 10

    def test_counter_hold(self):
        sim = SequentialSim(load("cnt8"))
        sim.step({"en": 1})
        sim.step({"en": 0})
        count = sum((sim.state[f"q{i}"] & 1) << i for i in range(8))
        assert count == 1

    def test_lfsr_full_period(self):
        sim = SequentialSim(load("lfsr8"))
        seen = set()
        for _ in range(255):
            state = tuple(sim.state[f"q{i}"] & 1 for i in range(8))
            seen.add(state)
            sim.step({})
        assert len(seen) == 255  # maximal-length sequence, zero excluded

    def test_shift_register_delay(self):
        c = load("sr16")
        stimuli = [{"si": 1}] + [{"si": 0}] * 20
        trace = output_trace(c, stimuli)
        arrivals = [i for i, out in enumerate(trace) if out["so"] & 1]
        assert arrivals and arrivals[0] == 16

    def test_flip_state_injects(self):
        sim = SequentialSim(load("cnt8"))
        sim.step({"en": 1})
        sim.flip_state("q7")
        count = sum((sim.state[f"q{i}"] & 1) << i for i in range(8))
        assert count == 1 + 128

    def test_parallel_universes_independent(self):
        sim = SequentialSim(load("cnt8"), n_patterns=2)
        sim.flip_state("q0", pattern_mask=0b10)  # corrupt universe 1 only
        sim.step({"en": mask_of(2)})
        assert (sim.state["q1"] & 1) != ((sim.state["q1"] >> 1) & 1)


class TestFaultSim:
    def test_c17_exhaustive_full_coverage(self):
        c = load("c17")
        packed, n = exhaustive_patterns(c.inputs)
        reps, _ = collapse(c)
        result = fault_simulate(c, reps, packed, n)
        assert result.coverage == 1.0

    def test_detection_masks_are_sound(self):
        """Every claimed detecting pattern must actually detect the fault
        when simulated alone."""
        c = load("c17")
        packed, n = exhaustive_patterns(c.inputs)
        reps, _ = collapse(c)
        result = fault_simulate(c, reps, packed, n)
        singles = unpack_patterns(packed, n)
        for fault, det in list(result.detected.items())[:8]:
            idx = result.detecting_patterns(fault)[0]
            single = pack_patterns([singles[idx]])
            again = fault_simulate(c, [fault], single, 1)
            assert fault in again.detected

    def test_detecting_patterns_lists_the_set_bits(self):
        fault = StuckAtFault(Line("n"), 0)
        sparse = [0, 63, 64, 1000, 4095]
        result = FaultSimResult(4096, {fault: sum(1 << i for i in sparse)})
        assert result.detecting_patterns(fault) == sparse
        assert result.detecting_patterns(StuckAtFault(Line("n"), 1)) == []
        result.detected[fault] = (1 << 4096) - 1
        assert result.detecting_patterns(fault) == list(range(4096))

    def test_equivalent_faults_same_detection(self):
        """Faults collapsed into a class must have identical detection sets."""
        c = load("c17")
        packed, n = exhaustive_patterns(c.inputs)
        _reps, classes = collapse(c)
        for rep, members in classes.items():
            if len(members) < 2:
                continue
            results = fault_simulate(c, members, packed, n)
            masks = {results.detected.get(m, 0) for m in members}
            assert len(masks) == 1, f"class of {rep.describe()} diverges"

    def test_undetectable_without_observation(self):
        bld = CircuitBuilder("dead")
        a = bld.input("a")
        bld.not_(a, name="dangling")
        bld.output(bld.buf(a, name="y"))
        c = bld.done()
        fault = StuckAtFault(Line("dangling"), 0)
        packed, n = exhaustive_patterns(c.inputs)
        result = fault_simulate(c, [fault], packed, n)
        assert fault in set(result.undetected)

    def test_sequential_fault_sim_detects(self):
        c = load("cnt8")
        fault = StuckAtFault(Line("c0"), 0)  # counter LSB output stuck
        stimuli = [{"en": 1}] * 4
        result = sequential_fault_simulate(c, [fault], stimuli)
        assert fault in result.detected

    def test_full_scan_flag_changes_observability(self):
        c = load("s27")
        reps, _ = collapse(c)
        packed = random_patterns(c.inputs + list(c.flops), 32, seed=3)
        state = {q: packed[q] for q in c.flops}
        with_scan = fault_simulate(c, reps, packed, 32, state=state,
                                   full_scan=True)
        without = fault_simulate(c, reps, packed, 32, state=state,
                                 full_scan=False)
        assert with_scan.coverage >= without.coverage


class TestEventSim:
    def test_wide_pulse_reaches_output(self):
        c17 = load("c17")
        sim = EventSim(c17, delays=1.0)
        pattern = {"N1": 1, "N2": 1, "N3": 1, "N6": 1, "N7": 1}
        outcome = sim.inject_set(pattern, "N11", width=3.0)
        assert outcome.reached_outputs

    def test_narrow_pulse_filtered_by_inertia(self):
        c17 = load("c17")
        sim = EventSim(c17, delays=1.0, inertial=2.0)
        pattern = {"N1": 1, "N2": 1, "N3": 1, "N6": 1, "N7": 1}
        outcome = sim.inject_set(pattern, "N11", width=0.5)
        assert not outcome.reached_outputs

    def test_logical_masking_blocks_pulse(self):
        bld = CircuitBuilder("m")
        a, b = bld.input("a"), bld.input("b")
        mid = bld.buf(a, name="mid")
        bld.output(bld.and_(mid, b, name="y"))
        c = bld.done()
        sim = EventSim(c, delays=1.0)
        blocked = sim.inject_set({"a": 1, "b": 0}, "mid", width=2.0)
        assert "y" not in blocked.reached_outputs
        passed = sim.inject_set({"a": 1, "b": 1}, "mid", width=2.0)
        assert "y" in passed.reached_outputs

    def test_flop_capture_window(self):
        bld = CircuitBuilder("f")
        a = bld.input("a")
        mid = bld.buf(a, name="mid")
        bld.circuit.add_flop("q", mid)
        bld.output(bld.buf("q", name="y"))
        c = bld.done()
        sim = EventSim(c, delays=1.0)
        # capture right when the pulse is live at the flop D
        hit = sim.inject_set({"a": 0}, "mid", width=2.0, capture_time=1.5)
        assert "q" in hit.captured_flops
        # capture long after the pulse has passed
        miss = sim.inject_set({"a": 0}, "mid", width=2.0, capture_time=50.0)
        assert "q" not in miss.captured_flops

    def test_waveform_pulse_widths(self):
        from repro.sim import Waveform
        w = Waveform(0, [(1.0, 1), (3.0, 0), (7.0, 1), (7.5, 0)])
        assert w.pulse_widths() == [2.0, 0.5]
        assert w.value_at(2.0) == 1
        assert w.value_at(5.0) == 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_ppsfp_agrees_with_serial(seed):
    """Property: bit-parallel fault sim matches per-pattern simulation."""
    c = random_combinational(6, 25, 3, seed=seed)
    rng = random.Random(seed)
    faults = all_stuck_at(c)
    sample = rng.sample(faults, min(6, len(faults)))
    pats = [{pi: rng.randint(0, 1) for pi in c.inputs} for _ in range(8)]
    packed = pack_patterns(pats)
    batch = fault_simulate(c, sample, packed, 8)
    for i, pat in enumerate(pats):
        single = fault_simulate(c, sample, pack_patterns([pat]), 1)
        for fault in sample:
            batch_bit = bool((batch.detected.get(fault, 0) >> i) & 1)
            single_bit = fault in single.detected
            assert batch_bit == single_bit


# ----------------------------------------------------------------------
# fan-out cones from the reachability table
# ----------------------------------------------------------------------
class TestConeGates:
    @staticmethod
    def _check(circuit, starts):
        cone = _cone_gates(circuit, starts)
        # one BFS per start: the reference shares no multi-seed logic
        reference = {net for start in starts
                     for net in fanout_cone(circuit, [start],
                                            through_flops=False)
                     if net in circuit.gates}
        assert {gate.output for gate in cone} == reference, starts
        index = circuit.topo_index()
        positions = [index[gate.output] for gate in cone]
        assert positions == sorted(set(positions)), starts

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bfs_cone_in_topo_order(self, seed):
        circuit = random_sequential(5, 60, 6, 3, seed=seed)
        nets = circuit.nets
        fmap = circuit.fanout_map()
        # single starts: every PI, flop Q and gate output, which includes
        # nets nothing consumes and nets consumed only by a flop D
        assert any(not fmap.get(net) for net in nets)
        assert any(fmap.get(net) and all(d in circuit.flops
                                         for d in fmap[net])
                   for net in nets)
        for net in nets:
            self._check(circuit, [net])
        rng = random.Random(seed)
        for _ in range(40):
            self._check(circuit, rng.sample(nets, rng.randint(2, 4)))
        self._check(circuit, [])
        self._check(circuit, ["no_such_net"])

    def test_table_dropped_on_mutation(self):
        circuit = random_combinational(4, 20, 2, seed=1)
        pi = circuit.inputs[0]
        before = _cone_gates(circuit, [pi])
        assert _REACH_KEY in circuit._cone_cache
        circuit.add_gate("tap", GateType.NOT, [pi])
        assert circuit._cone_cache == {}
        after = _cone_gates(circuit, [pi])
        assert {g.output for g in after} \
            == {g.output for g in before} | {"tap"}
        self._check(circuit, [pi])


# ----------------------------------------------------------------------
# pattern windows: one walk per window == one walk per batch
# ----------------------------------------------------------------------
def _partition(tokens, rng):
    """Batch widths from tokens: an int is a width, ``fill`` ends the
    current window exactly on ``WINDOW_BITS``, ``wide`` overflows it."""
    widths, used = [], 0
    for token in tokens:
        if token == "fill":
            n = WINDOW_BITS - used if used < WINDOW_BITS else WINDOW_BITS
        elif token == "wide":
            n = WINDOW_BITS + rng.randint(1, 70)
        else:
            n = token
        used = n if used + n > WINDOW_BITS else used + n
        widths.append(n)
    return widths


def test_windows_never_split_a_batch():
    circuit = load("c17")
    widths = [WINDOW_BITS - 64, 64, 1, WINDOW_BITS + 5, 7, WINDOW_BITS - 7,
              3]
    batches = [(random_patterns(circuit.inputs, n, seed=n), n)
               for n in widths]
    windows = _pattern_windows(circuit, batches, None)
    assert windows.n_patterns == sum(widths)
    shape = [(offset, starts, mask.bit_length())
             for _, mask, offset, starts, *_ in windows.windows]
    assert shape == [
        (0, [0, WINDOW_BITS - 64], WINDOW_BITS),  # boundary lands exactly
        (WINDOW_BITS, [0], 1),                    # the next would overflow
        (WINDOW_BITS + 1, [0], WINDOW_BITS + 5),  # wider than a window
        (2 * WINDOW_BITS + 6, [0, 7], WINDOW_BITS),
        (3 * WINDOW_BITS + 6, [0], 3),
    ]
    assert _pattern_windows(circuit, [], None).windows == []


def _with_ffr_corner_cases(circuit, rng):
    """Graft onto ``circuit`` the structures a fan-out-free-region sweep
    can get wrong: reconvergent fan-out through an XOR (differences
    cancel), a primary output that also feeds a gate, a gate reading one
    net on two pins, a dangling net, and — when there are flops — a net
    whose only consumer is a flop.

    Then the ones a linear-tail walk can get wrong: a stem feeding an XOR
    chain directly and again through an AND, a 3-input XOR reading one
    net on two pins, an XNOR -> NOT -> BUF tail ending in a primary
    output that also feeds a gate, a tail whose end feeds a non-linear
    gate, and — when there are flops — a tail ending at a flop D."""
    a, b, c, d = rng.sample(list(circuit.gates), 4)
    circuit.add_gate("rc_l", "AND", [a, b])
    circuit.add_gate("rc_r", "OR", [a, c])
    circuit.add_gate("rc", "XOR", ["rc_l", "rc_r"])
    circuit.add_output("rc")
    circuit.add_gate("after_po", "NAND", ["rc", d])
    circuit.add_gate("pre", "NOT", [d])
    circuit.add_gate("twice", rng.choice(["AND", "NOR", "XOR", "XNOR"]),
                     ["pre", "pre"])
    circuit.add_gate("mix", "XOR", ["twice", "after_po"])
    circuit.add_gate("dangling", "NOT", ["mix"])

    circuit.add_gate("lt_1", "XOR", [b, c])
    circuit.add_gate("lt_and", "AND", [b, d])
    circuit.add_gate("lt_2", "XNOR", ["lt_1", a])
    circuit.add_gate("lt_3", "XOR", ["lt_2", "lt_and"])
    circuit.add_gate("lt_3x", "XOR", ["lt_3", c, "lt_3"])  # lt_3 cancels
    circuit.add_gate("lt_4", "XOR", ["lt_3x", "lt_3", "mix"])
    circuit.add_gate("lt_xn", "XNOR", ["lt_4", d])
    circuit.add_gate("lt_not", "NOT", ["lt_xn"])
    circuit.add_gate("lt_po", "BUF", ["lt_not"])
    circuit.add_output("lt_po")
    circuit.add_gate("lt_after", "XOR", ["lt_po", a])
    circuit.add_gate("lt_y", "XNOR", [c, "lt_after"])
    circuit.add_gate("lt_nl", rng.choice(["AND", "NOR"]), ["lt_y", b])
    circuit.add_output("lt_nl")
    if circuit.flops:
        circuit.add_gate("flop_only", "OR", ["mix", b])
        circuit.add_flop("q_extra", "flop_only")
        circuit.add_output(next(iter(circuit.flops)))
        circuit.add_gate("lt_d", "XOR", ["lt_after", d])
        circuit.add_gate("lt_dn", "NOT", ["lt_d"])
        circuit.add_flop("q_tail", "lt_dn")
    else:
        circuit.add_output("mix")
    circuit.validate()
    return circuit


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 5_000), sequential=st.booleans(),
       tokens=st.lists(st.one_of(st.integers(1, 40),
                                 st.sampled_from(["fill", "wide"])),
                       max_size=6),
       with_state=st.booleans(), drop=st.booleans(),
       full_scan=st.booleans())
def test_windowed_detection_matches_per_batch_reference(
        seed, sequential, tokens, with_state, drop, full_scan):
    """Property: over the whole stuck-at universe,
    ``fault_simulate_batched`` reports exactly what simulating every
    batch on its own, one cone walk per fault, would — the first
    detecting batch's bits under dropping, the OR of all batches
    without."""
    rng = random.Random(seed)
    circuit = _with_ffr_corner_cases(
        random_sequential(5, 30, 4, 3, seed=seed) if sequential
        else random_combinational(6, 25, 3, seed=seed), rng)
    faults = all_stuck_at(circuit)
    # PI words carry garbage above the batch width; the state word is
    # wider than some batches and narrower than others
    batches = [({pi: rng.getrandbits(n + 9) for pi in circuit.inputs}, n)
               for n in _partition(tokens, rng)]
    state = ({q: rng.getrandbits(50) for q in list(circuit.flops)[1:]}
             if with_state else None)

    expected, offset = {}, 0
    reference = circuit.copy()
    with compiled.disabled():
        for pi_values, n in batches:
            single = fault_simulate(reference, faults, pi_values, n,
                                    state=state, full_scan=full_scan)
            for fault, det in single.detected.items():
                if not (drop and fault in expected):
                    expected[fault] = expected.get(fault, 0) | det << offset
            offset += n

    result = fault_simulate_batched(circuit, faults, batches, state=state,
                                    full_scan=full_scan, drop_detected=drop)
    assert result.n_patterns == offset
    assert result.detected == expected
    assert result.undetected == [f for f in faults if f not in expected]


def test_each_window_has_its_own_observability_memo():
    circuit = load("c17")
    first, second = ((random_patterns(circuit.inputs, WINDOW_BITS, seed=s),
                      WINDOW_BITS) for s in (1, 2))
    both = _pattern_windows(circuit, [first, second], None)
    alone = _pattern_windows(circuit, [second], None)
    for fault in all_stuck_at(circuit):
        shifted = _batched_detection(circuit, fault, alone, False)
        assert (_batched_detection(circuit, fault, both, False)
                >> WINDOW_BITS) == shifted
    memos = [window[-1] for window in both.windows]
    assert memos[0] != memos[1] == alone.windows[0][-1]
    assert both.root_walks == 2 * alone.root_walks > 0


def test_mutation_and_pickling_drop_the_ffr_links():
    circuit = load("c17")
    observe = _observe_nets(circuit, True)
    tails_key = (_TAILS_KEY, observe)
    links = _ffr_links(circuit)
    assert _ffr_links(circuit) is links is circuit._cone_cache[_FFR_KEY]
    table = _tail_table(circuit, observe)
    assert _tail_table(circuit, observe) is table \
        is circuit._cone_cache[tails_key]
    index = _net_index(circuit)
    assert _net_index(circuit) is index is circuit._cone_cache[_INDEX_KEY]
    native_key = (_NATIVE_KEY, observe)
    kernel = fault_sim.native_kernel()
    if kernel is not None:
        flat = _native_table(circuit, observe, kernel)
        assert _native_table(circuit, observe, kernel) is flat \
            is circuit._cone_cache[native_key]
    inner = next(iter(links))  # read by one gate only
    circuit.add_gate("tap", "NOT", [inner])
    assert _FFR_KEY not in circuit._cone_cache
    assert tails_key not in circuit._cone_cache
    assert _INDEX_KEY not in circuit._cone_cache
    assert native_key not in circuit._cone_cache
    assert "tap" in _net_index(circuit)
    assert inner not in _ffr_links(circuit)  # fan-out 2: a root now
    steps, ends = _tail_table(circuit, observe)
    assert "tap" not in {out for _, out, _ in steps}  # reaches no output
    assert ends[inner] == ("tap",)  # its one linear pin ends there
    clone = pickle.loads(pickle.dumps(circuit))
    assert _FFR_KEY not in clone._cone_cache
    assert tails_key not in clone._cone_cache
    assert _INDEX_KEY not in clone._cone_cache
    assert native_key not in clone._cone_cache


def _root_walkers():
    """The root walks the sweep can run here: in C where the kernel can
    be had, and in Python."""
    if fault_sim.native_kernel() is None:
        return ("python",)
    return ("native", "python")


def _force(monkeypatch, walker):
    """Make the sweep walk in Python (the loader loading nothing), or
    leave it in C."""
    if walker == "python":
        monkeypatch.setattr(native, "load", lambda source: None)
        assert fault_sim.native_kernel() is None


def _benchmark_sweep():
    """The ``ppsfp_stat`` circuit, its collapsed faults and 16 x 64
    patterns (one window)."""
    circuit = random_combinational(32, 2400, seed=13)
    faults, _ = collapse(circuit)
    batches = [(random_patterns(circuit.inputs, 64, seed=7000 + i), 64)
               for i in range(16)]
    return circuit, faults, batches


def test_root_walks_sum_linear_tails_instead_of_evaluating_them():
    """On the ``ppsfp_stat`` circuit, whose outputs are XOR trees, the
    root walks together evaluate at most 0.35x the gates of their cones,
    on either sweep: tail gates are summed, never evaluated.  The C
    sweep reports the gates its walks evaluated, and its walked roots
    are the region roots its memo knows; the Python loop's are counted
    at ``GATE_EVAL``."""
    circuit, faults, batches = _benchmark_sweep()
    index = _net_index(circuit)
    links = _ffr_links(circuit)
    for walker in _root_walkers():
        roots, evaluations, walking = [], [0], [False]
        with pytest.MonkeyPatch.context() as monkeypatch:
            _force(monkeypatch, walker)
            if walker == "native":
                native_sweep = native.RootWalker.sweep

                def counted_sweep(self, *args):
                    words, walks, evaluated = native_sweep(self, *args)
                    evaluations[0] += evaluated
                    return words, walks, evaluated

                monkeypatch.setattr(native.RootWalker, "sweep",
                                    counted_sweep)
                windows = _pattern_windows(circuit, batches, None)
                fault_sim._sweep(circuit, faults, windows, True)
                (*_, walks, _), = windows.windows
                known = walks.memo[1].raw
                roots = [net for net, i in index.items()
                         if net not in links and known[i]]
            else:
                def counting(evaluate):
                    def wrapper(gate, values, mask):
                        evaluations[0] += walking[0]
                        return evaluate(gate, values, mask)
                    return wrapper

                for gtype, evaluate in list(GATE_EVAL.items()):
                    monkeypatch.setitem(GATE_EVAL, gtype,
                                        counting(evaluate))
                walk = fault_sim._root_walk

                def counted_walk(circuit, observe, good, mask, net):
                    roots.append(net)
                    walking[0] = True
                    try:
                        return walk(circuit, observe, good, mask, net)
                    finally:
                        walking[0] = False

                monkeypatch.setattr(fault_sim, "_root_walk", counted_walk)
                windows = _pattern_windows(circuit, batches, None)
                for fault in faults:
                    _batched_detection(circuit, fault, windows, True)
        assert len(roots) == windows.root_walks > 900, walker
        cone_gates = sum(len(_cone_gates(circuit, [net])) for net in roots)
        assert 0 < evaluations[0] <= 0.35 * cone_gates, walker


def test_native_root_walk_is_the_python_walk_from_every_net():
    """The C walk of every net of a circuit grafted with the tail and
    region corner cases, over a window whose width is not a multiple of
    64, read per observed net: the words :func:`_root_walk` returns."""
    kernel = fault_sim.native_kernel()
    if kernel is None:
        pytest.skip("no native root walk")
    rng = random.Random(3)
    for circuit in (_with_ffr_corner_cases(
                        random_sequential(5, 30, 4, 3, seed=3), rng),
                    _with_ffr_corner_cases(
                        random_combinational(6, 25, 3, seed=4), rng)):
        for full_scan in (True, False):
            windows = _pattern_windows(
                circuit, [({pi: rng.getrandbits(100)
                            for pi in circuit.inputs}, 100)],
                None, full_scan)
            (good, mask, _, _, _, walks, _), = windows.windows
            for net in good:
                assert walks.effects(net) == _root_walk(
                    circuit, windows.observe, good, mask, net,
                    rows=True), net
            assert walks.native  # it walked in C


def test_two_threads_sweeping_one_window_both_get_the_reference():
    """A chunk abandoned past ``chunk_timeout`` keeps sweeping on its
    daemon thread, and every C call releases the GIL: two threads
    walking and sweeping one window at once each get the reference
    words, on either walker."""
    circuit, faults, batches = _benchmark_sweep()
    with compiled.disabled():
        reference = fault_simulate_batched(circuit.copy(), faults, batches,
                                           drop_detected=False)
    detected = [reference.detected.get(fault, 0) for fault in faults]
    for walker in _root_walkers():
        with pytest.MonkeyPatch.context() as monkeypatch:
            _force(monkeypatch, walker)
            windows = _pattern_windows(circuit, batches, None)
            (good, mask, _, _, _, walks, _), = windows.windows
            roots = [net for net in good if net not in _ffr_links(circuit)]
            expected = [_root_walk(circuit, windows.observe, good, mask,
                                   net, rows=True) for net in roots]
            start = threading.Barrier(2)
            results = [None, None]

            def sweep(i):
                start.wait()
                results[i] = ([walks.effects(net) for net in roots],
                              fault_sim._sweep(circuit, faults, windows,
                                               False))

            threads = [threading.Thread(target=sweep, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert results[0] == results[1] == (expected, detected), walker


def test_ffr_sweep_matches_per_fault_walks_on_the_benchmark_circuit():
    """Every collapsed fault of the ``ppsfp_stat`` circuit: the
    region-wise sweep's mask equals the fault's own cone walk, on either
    walker."""
    circuit, faults, batches = _benchmark_sweep()
    (good, mask, *_), = _pattern_windows(circuit, batches, None).windows
    observe = _observe_nets(circuit, True)
    for walker in _root_walkers():
        with pytest.MonkeyPatch.context() as monkeypatch:
            _force(monkeypatch, walker)
            result = fault_simulate_batched(circuit, faults, batches,
                                            drop_detected=False)
        for fault in faults:
            assert (detection_mask(circuit, fault, good, mask, observe)
                    == result.detected.get(fault, 0)), (walker,
                                                        fault.describe())
