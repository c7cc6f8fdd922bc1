"""The PPSFP sweep in C (``fault_sim._sweep``: one kernel call per chunk
and pattern window) against its references: the Python
``_batched_detection`` loop it replaces where the kernel loads, and
per-batch ``fault_simulate``, one cone walk per fault.  Where no C
compiler is on ``PATH`` the sweep is the Python loop, and the identity
property checks that fallback instead."""

import pickle
import random
import threading
from array import array
from itertools import accumulate, chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, load
from repro.circuit.library import random_combinational, random_sequential
from repro.engine import EngineConfig, PpsfpBackend, run_campaign
from repro.faults import all_stuck_at
from repro.sim import compiled, fault_sim, native
from repro.sim.fault_sim import (_AT_FLOP_D, _AT_STEM, _FFR_KEY, _OPCODES,
                                 _TAILS_KEY, PatternWindows,
                                 _batched_detection, _ffr_links,
                                 _native_table, _net_index, _observe_nets,
                                 _pattern_windows, _sweep, _tail_table,
                                 fault_simulate)
from repro.sim.logic import exhaustive_patterns, random_patterns

_TYPES = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "BUF", "NOT",
          "CONST0", "CONST1")


def _circuit(rng: random.Random, n_in: int, n_gates: int,
             n_flops: int) -> Circuit:
    """A random netlist over every gate type, with repeated pins, plus
    the structures the sweep's columns treat apart: a branch into a gate
    that reads its net twice, a branch into a flop D, primary-input and
    flop-Q stems read by gates, and a primary output that is also
    read."""
    circuit = Circuit("sweep")
    nets = [circuit.add_input(f"i{k}") for k in range(n_in)]
    qs = [f"q{k}" for k in range(n_flops)]
    nets += qs
    for k in range(n_gates):
        gtype = rng.choice(_TYPES)
        if gtype.startswith("CONST"):
            ins = []
        elif gtype in ("BUF", "NOT"):
            ins = [rng.choice(nets)]
        else:
            ins = [rng.choice(nets) for _ in range(rng.randint(2, 3))]
            if rng.random() < 0.3:
                ins.append(rng.choice(ins))  # a repeated pin
        nets.append(circuit.add_gate(f"g{k}", gtype, ins).output)
    a, b = rng.sample(nets[n_in + n_flops:], 2)
    circuit.add_gate("twice", rng.choice(["AND", "NOR", "XOR", "XNOR"]),
                     [a, a, b])  # a branch of a read on two pins
    circuit.add_gate("po_read", rng.choice(["OR", "NAND"]), ["twice", b])
    circuit.add_output("twice")  # an output that a gate also reads
    circuit.add_output("po_read")
    circuit.add_gate("pi_stem", "XOR", [nets[0], nets[0 if n_in < 2 else 1]])
    circuit.add_output("pi_stem")
    for q in qs:
        d = rng.choice(nets[n_in + n_flops:])
        circuit.add_flop(q, d, init=rng.randint(0, 1))
    if qs:
        circuit.add_flop("q_branch", b)  # b feeds gates and this flop D
        circuit.add_gate("q_stem", "AND", [qs[0], a])
        circuit.add_output("q_stem")
    for net in rng.sample(nets[n_in + n_flops:], 2):
        circuit.add_output(net)
    circuit.validate()
    return circuit


def _python(monkeypatch) -> None:
    """The loader loads nothing: every walk and sweep in Python."""
    monkeypatch.setattr(native, "load", lambda source: None)


def _reference(circuit, faults, batches, state, full_scan, drop):
    """Per-batch ``fault_simulate``: the first detecting batch's bits
    under dropping, the OR of every batch's without."""
    expected, offset = {}, 0
    with compiled.disabled():
        for pi_values, n in batches:
            single = fault_simulate(circuit.copy(), faults, pi_values, n,
                                    state=state, full_scan=full_scan)
            for fault, det in single.detected.items():
                if not (drop and fault in expected):
                    expected[fault] = expected.get(fault, 0) | det << offset
            offset += n
    return [expected.get(fault, 0) for fault in faults]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), n_gates=st.integers(4, 40),
       n_flops=st.integers(0, 3), window=st.sampled_from([8, 16, 64, 100]),
       widths=st.lists(st.integers(1, 70), min_size=1, max_size=5),
       drop=st.booleans(), full_scan=st.booleans(),
       n_chunks=st.integers(1, 4))
@example(seed=1, n_gates=30, n_flops=2, window=16, widths=[5, 9, 40, 3],
         drop=True, full_scan=True, n_chunks=3)
@example(seed=2, n_gates=30, n_flops=2, window=64, widths=[64, 64],
         drop=False, full_scan=False, n_chunks=2)
def test_the_sweep_is_the_python_loop_and_the_per_batch_reference(
        seed, n_gates, n_flops, window, widths, drop, full_scan, n_chunks):
    """Every stuck-at fault, split into chunks in shuffled order so that
    a window's memo serves several calls, over several windows: the
    sweep (in C where the kernel loads), ``_batched_detection`` on the
    Python walk and per-batch ``fault_simulate`` agree bit for bit, and
    both sweeps pay the same root walks."""
    rng = random.Random(seed)
    circuit = _circuit(rng, rng.randint(2, 6), n_gates, n_flops)
    faults = all_stuck_at(circuit)
    rng.shuffle(faults)
    cuts = sorted(rng.sample(range(1, len(faults)), n_chunks - 1))
    chunks = [faults[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, None])]
    batches = [({pi: rng.getrandbits(n + 5) for pi in circuit.inputs}, n)
               for n in widths]
    state = ({q: rng.getrandbits(80) for q in circuit.flops}
             if circuit.flops and rng.random() < 0.7 else None)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(fault_sim, "WINDOW_BITS", window)
        swept_windows = _pattern_windows(circuit, batches, state, full_scan)
        swept = [word for chunk in chunks
                 for word in _sweep(circuit, chunk, swept_windows, drop)]
        _python(monkeypatch)
        loop_windows = _pattern_windows(circuit, batches, state, full_scan)
        loop = [_batched_detection(circuit, fault, loop_windows, drop)
                for fault in faults]
    assert len(swept_windows.windows) == len(loop_windows.windows) >= 1
    assert swept == loop == _reference(circuit, faults, batches, state,
                                       full_scan, drop)
    assert swept_windows.root_walks == loop_windows.root_walks


def _kernel_or_skip():
    kernel = fault_sim.native_kernel()
    if kernel is None:
        pytest.skip("no native kernel on this host")
    return kernel


def _counting(monkeypatch):
    """Count the kernel's sweep calls and refuse ``_batched_detection``
    (which the C path must never fall back to)."""
    calls = []
    sweep = native.RootWalker.sweep

    def counted(self, *args):
        calls.append(len(args[5]))  # the faults in this call
        return sweep(self, *args)

    def refused(*args, **kwargs):
        raise AssertionError("the C sweep ran the Python loop")

    monkeypatch.setattr(native.RootWalker, "sweep", counted)
    monkeypatch.setattr(fault_sim, "_batched_detection", refused)
    return calls


def _known_roots(circuit, windows) -> int:
    """Region roots whose word a window's C memo holds, summed over the
    windows: each C root walk fills one, and only a walk does."""
    links = _ffr_links(circuit)
    roots = [i for net, i in _net_index(circuit).items() if net not in links]
    total = 0
    for *_, walks, _ in windows.windows:
        if walks.memo is not None:
            known = walks.memo[1].raw
            total += sum(known[i] for i in roots)
    return total


@pytest.mark.parametrize("drop", (True, False))
def test_a_chunk_is_one_sweep_call_per_window(drop, monkeypatch):
    _kernel_or_skip()
    circuit = random_combinational(10, 150, 4, seed=8)
    faults = all_stuck_at(circuit)
    batches = [(random_patterns(circuit.inputs, 32, seed=s), 32)
               for s in range(6)]
    monkeypatch.setattr(fault_sim, "WINDOW_BITS", 64)  # three windows
    calls = _counting(monkeypatch)
    backend = PpsfpBackend(circuit, faults, batches, drop_detected=drop)
    report = run_campaign(backend, EngineConfig(batch_size=100,
                                                executor="serial"))
    windows = backend._windows
    n_chunks = -(-len(faults) // 100)
    assert len(windows.windows) == 3
    if drop:  # a window sees only what the earlier ones left undetected
        assert n_chunks <= len(calls) <= 3 * n_chunks
    else:
        assert len(calls) == 3 * n_chunks
        assert calls == [len(chunk) for chunk in
                         (faults[lo:lo + 100]
                          for lo in range(0, len(faults), 100))
                         for _ in range(3)]
    # every walk fills a distinct (window, root) memo entry
    n_roots = len(_net_index(circuit)) - len(_ffr_links(circuit))
    assert 0 < windows.root_walks == _known_roots(circuit, windows) \
        <= 3 * n_roots
    assert [inj.detail for inj in report.injections] == _reference(
        circuit, faults, batches, None, True, drop)


def test_no_path_walks_a_region_twice_per_window():
    """The Python loop walks each (window, root) at most once, and the
    C sweep walks exactly as many roots as it (the identity property
    checks that count on random circuits)."""
    circuit = random_combinational(12, 300, 4, seed=3)
    faults = all_stuck_at(circuit)
    batches = [(random_patterns(circuit.inputs, 40, seed=s), 40)
               for s in range(5)]
    walked = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(fault_sim, "WINDOW_BITS", 80)
        _python(monkeypatch)
        call = fault_sim._RootWalks.__call__

        def counted(self, net):
            walked.append((id(self), net))
            return call(self, net)

        monkeypatch.setattr(fault_sim._RootWalks, "__call__", counted)
        windows = _pattern_windows(circuit, batches, None)
        for fault in faults:
            _batched_detection(circuit, fault, windows, False)
        assert len(windows.windows) == 3
    assert len(walked) == len(set(walked)) == windows.root_walks > 0
    roots = {net for _, net in walked}
    assert not roots & set(_ffr_links(circuit))  # roots only
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(fault_sim, "WINDOW_BITS", 80)
        swept = _pattern_windows(circuit, batches, None)
        _sweep(circuit, faults, swept, False)
    assert swept.root_walks == windows.root_walks
    if fault_sim.native_kernel() is not None:
        assert _known_roots(circuit, swept) == swept.root_walks


def test_a_window_resolved_without_the_kernel_sweeps_in_python(
        monkeypatch):
    """A window whose walks resolved with compilation off hands the
    faults still open to the Python loop, for the windows from there
    on: the first window, the whole call; a later one, the rest.  The
    words are the reference's and the walks the Python loop's."""
    _kernel_or_skip()
    circuit = random_combinational(8, 80, 3, seed=5)
    faults = all_stuck_at(circuit)
    batches = [(random_patterns(circuit.inputs, 16, seed=s), 16)
               for s in range(4)]
    monkeypatch.setattr(fault_sim, "WINDOW_BITS", 32)
    for drop in (True, False):
        with pytest.MonkeyPatch.context() as python:
            _python(python)
            loop = _pattern_windows(circuit, batches, None)
            for fault in faults:
                _batched_detection(circuit, fault, loop, drop)
        for off in (0, 1):
            windows = _pattern_windows(circuit, batches, None)
            with compiled.disabled():
                windows.windows[off][5]._kernel()  # resolves to ()
            assert _sweep(circuit, faults, windows, drop) == _reference(
                circuit, faults, batches, None, True, drop)
            assert windows.root_walks == loop.root_walks
            memos = [span[5].memo is not None for span in windows.windows]
            assert memos == [off == 1, False], (drop, off)


def test_dropping_leaves_windows_without_faults_unresolved():
    """Under dropping a window no fault is left for is never resolved:
    its good words are not packed and it gets no memo."""
    _kernel_or_skip()
    circuit = load("c17")
    faults = all_stuck_at(circuit)
    every, n = exhaustive_patterns(circuit.inputs)  # detects every fault
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(fault_sim, "WINDOW_BITS", n)
        windows = _pattern_windows(circuit, [(every, n)] * 3, None)
    assert all(_sweep(circuit, faults, windows, True))
    assert [span[5].native is not None for span in windows.windows] \
        == [True, False, False]
    assert [span[5].memo is not None for span in windows.windows] \
        == [True, False, False]
    assert all(_sweep(circuit, faults, windows, False))
    assert all(span[5].memo is not None for span in windows.windows)


def test_two_threads_sweeping_one_window_both_get_the_reference():
    """A chunk abandoned past ``chunk_timeout`` keeps sweeping on its
    daemon thread while the chunk re-runs: two threads sweeping one
    window's memo at once each get the reference words (the C sweep
    releases the GIL and publishes a memo row before its flag)."""
    circuit = random_combinational(16, 600, 6, seed=13)
    faults = all_stuck_at(circuit)
    batches = [(random_patterns(circuit.inputs, 64, seed=s), 64)
               for s in range(3)]
    reference = _reference(circuit, faults, batches, None, True, False)
    windows = _pattern_windows(circuit, batches, None)
    halves = [faults[::2], faults[1::2]]
    start = threading.Barrier(2)
    results = [None, None]

    def sweep(i):
        start.wait()
        results[i] = [_sweep(circuit, faults, windows, False),
                      _sweep(circuit, halves[i], windows, False)]

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert results[0][0] == results[1][0] == reference
    assert results[0][1] == reference[::2]
    assert results[1][1] == reference[1::2]


def test_pickling_a_window_drops_its_packed_words_and_memo():
    circuit = random_combinational(6, 40, 2, seed=1)
    faults = all_stuck_at(circuit)
    windows = _pattern_windows(
        circuit, [(random_patterns(circuit.inputs, 8, seed=1), 8)], None)
    first = _sweep(circuit, faults, windows, False)
    walks = windows.windows[0][5]
    assert walks.native is not None
    clone = pickle.loads(pickle.dumps(walks))
    assert clone.native is clone.memo is None and clone.good == walks.good
    again = PatternWindows([(*windows.windows[0][:5], clone, {})],
                           windows.n_patterns, windows.observe)
    assert _sweep(circuit, faults, again, False) == first


def _reference_native_table(circuit, observe):
    """The C walk table as Python flattened it before the kernel built
    it: :func:`_tail_table` (linear links, tail ends with pairs
    cancelled, the kept steps) and :func:`_ffr_links`, numbered and
    chained into one int32 run.  The reference ``table`` is checked
    against."""
    steps, ends = _tail_table(circuit, observe)
    gates = circuit.gates
    nets = list(dict.fromkeys((*circuit.inputs, *circuit.flops,
                               *(gate.output for gate in
                                 circuit.topo_order()))))
    index = dict(zip(nets, range(len(nets))))
    number = index.__getitem__
    readers: list[list[int]] = [[] for _ in nets]
    for k, (gate, out, _) in enumerate(steps):
        if gate is None:
            readers[number(out)].append(k)
        else:
            for src in dict.fromkeys(map(number, gate.inputs)):
                readers[src].append(k)
    net_ends = [ends.get(net, ()) for net in nets]
    drivers = list(map(gates.get, nets))
    driven = [() if gate is None else gate.inputs for gate in drivers]
    links = _ffr_links(circuit)
    header = (len(nets), len(steps), len(observe),
              sum(map(len, net_ends)), sum(map(len, readers)),
              sum(map(len, driven)))
    flat = array("i", chain(
        header, (number(out) for _, out, _ in steps),
        (0, *accumulate(map(len, net_ends))),
        map(number, chain.from_iterable(net_ends)),
        (0, *accumulate(map(len, readers))), chain.from_iterable(readers),
        map(number, observe),
        (-1 if gate is None else _OPCODES[gate.gtype] for gate in drivers),
        (0, *accumulate(map(len, driven))),
        map(number, chain.from_iterable(driven)),
        (-1 if gate is None else number(gate.output)
         for gate in map(links.get, nets))))
    targets = dict(index)
    targets.update(dict.fromkeys(circuit.flops, _AT_FLOP_D))
    targets[None] = _AT_STEM
    return index, flat.tobytes(), targets


def _chain_circuit(rng: random.Random, n_in: int, n_gates: int,
                   n_flops: int, linear: float) -> Circuit:
    """A netlist whose gates are XOR / XNOR / BUF / NOT with probability
    ``linear``, mostly reading the last few nets so that linear chains
    and trees form, with repeated pins (an even count cancels on a
    linear gate), CONST gates, a primary output that feeds one gate, and
    flops whose Ds are gate outputs, inputs or other flops."""
    circuit = Circuit("chains")
    nets = [circuit.add_input(f"i{k}") for k in range(n_in)]
    qs = [f"q{k}" for k in range(n_flops)]
    nets += qs

    def pick():
        return rng.choice(nets[-3:] if rng.random() < 0.6 else nets)

    for k in range(n_gates):
        if rng.random() < 0.08:
            gtype, ins = rng.choice(["CONST0", "CONST1"]), []
        elif rng.random() < linear:
            gtype = rng.choice(["XOR", "XNOR", "BUF", "NOT"])
            ins = ([pick()] if gtype in ("BUF", "NOT")
                   else [pick() for _ in range(rng.randint(2, 4))])
        else:
            gtype = rng.choice(["AND", "NAND", "OR", "NOR"])
            ins = [pick() for _ in range(rng.randint(2, 3))]
        if len(ins) > 1 and rng.random() < 0.3:
            ins.append(rng.choice(ins))  # a repeated pin
        nets.append(circuit.add_gate(f"g{k}", gtype, ins).output)
    po = nets[-1]
    circuit.add_output(po)
    circuit.add_gate("po_reader", "XOR", [po, nets[0]])  # a PO feeding one
    circuit.add_output("po_reader")                      # gate
    for q in qs:
        circuit.add_flop(q, rng.choice(nets), init=rng.randint(0, 1))
    for net in rng.sample(nets, min(2, len(nets))):
        if net not in circuit.outputs:
            circuit.add_output(net)
    circuit.validate()
    return circuit


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), n_gates=st.integers(1, 60),
       n_flops=st.integers(0, 4), linear=st.sampled_from([0.4, 0.8, 1.0]),
       full_scan=st.booleans(), mixed=st.booleans())
def test_the_c_table_is_the_python_flattening(seed, n_gates, n_flops, linear,
                                              full_scan, mixed):
    """``_native_table`` (numbering in Python, the rest in C) returns
    the same index, the byte-identical table and the same targets as the
    Python flattening, with and without scan, on linear-chain designs
    and on the sweep property's designs."""
    kernel = _kernel_or_skip()
    rng = random.Random(seed)
    n_in = rng.randint(1, 6)
    circuit = (_circuit(rng, max(n_in, 2), n_gates + 2, n_flops) if mixed
               else _chain_circuit(rng, n_in, n_gates, n_flops, linear))
    observe = _observe_nets(circuit, full_scan)
    expected = _reference_native_table(circuit.copy(), observe)
    assert _native_table(circuit, observe, kernel) == expected


@pytest.mark.parametrize("design", ["ppsfp_stat", "slicing_filtered"])
def test_the_benchmark_designs_build_the_reference_table(design):
    kernel = _kernel_or_skip()
    circuit = (random_combinational(32, 2400, seed=13)
               if design == "ppsfp_stat"
               else random_sequential(10, 400, 40, seed=14))
    for full_scan in (True, False):
        observe = _observe_nets(circuit, full_scan)
        assert _native_table(circuit.copy(), observe, kernel) \
            == _reference_native_table(circuit.copy(), observe)


def test_the_table_refuses_columns_outside_the_nets():
    kernel = _kernel_or_skip()
    ok = (array("i", [-1, -1, 1]), array("i", [0, 0, 0, 2]),
          array("i", [0, 1]), array("i", [2]), array("i", [2]),
          array("i"))
    assert kernel.table(*ok)[:4] == array("i", [3]).tobytes()
    for at, bad in ((2, array("i", [0, 3])),  # a net past the last
                    (1, array("i", [0, 2, 0, 2])),  # falling offsets
                    (5, array("i", [-1])),  # a flop D before the first
                    (1, array("i", [0, 0, 2]))):  # one offset short
        with pytest.raises(ValueError):
            kernel.table(*ok[:at], bad, *ok[at + 1:])


def test_a_c_campaign_builds_no_python_walk_table():
    """A C-path PPSFP campaign on a fresh copy leaves the Python walk
    tables unbuilt: no tail table, no fan-out-free links, no fan-out
    map (the kernel derives all three from the numbered structure)."""
    _kernel_or_skip()
    design = random_combinational(12, 300, 4, seed=3)
    faults = all_stuck_at(design)
    batches = [(random_patterns(design.inputs, 64, seed=s), 64)
               for s in range(3)]
    circuit = design.copy()
    report = run_campaign(PpsfpBackend(circuit, faults, batches),
                          EngineConfig(executor="serial"))
    assert report.executed == len(faults)
    assert not [key for key in circuit._cone_cache
                if key == _FFR_KEY
                or isinstance(key, tuple) and key[0] == _TAILS_KEY]
    assert circuit._fanout_cache is None
