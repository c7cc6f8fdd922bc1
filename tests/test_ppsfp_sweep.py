"""The PPSFP sweep in C (``fault_sim._sweep``: one kernel call per chunk
and pattern window) against its references: the Python
``_batched_detection`` loop it replaces where the kernel loads, and
per-batch ``fault_simulate``, one cone walk per fault.  Where no C
compiler is on ``PATH`` the sweep is the Python loop, and the identity
property checks that fallback instead."""

import pickle
import random
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, load
from repro.circuit.library import random_combinational
from repro.engine import EngineConfig, PpsfpBackend, run_campaign
from repro.faults import all_stuck_at
from repro.sim import compiled, fault_sim, native
from repro.sim.fault_sim import (PatternWindows, _batched_detection,
                                 _ffr_links, _native_table, _pattern_windows,
                                 _sweep, fault_simulate)
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
    if fault_sim.native_kernel() is None:
        pytest.skip("no native kernel on this host")


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
    index = _native_table(circuit, windows.observe)[0]
    links = _ffr_links(circuit)
    roots = [i for net, i in index.items() if net not in links]
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
    n_roots = len(_native_table(circuit, windows.observe)[0]) \
        - len(_ffr_links(circuit))
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
