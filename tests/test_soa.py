"""Tests for the SoA compiled tier (`repro.sim.compiled` SoA section).

The contract under test: the SoA kernel of the step program is
byte-identical to its int kernel and to the reference interpreter at
any lane width (the whole point of the tier is perf, so identity must
hold unconditionally); it lives on the circuit's one step program, so
circuit mutation and pickling drop it with the rest of the program
cache; and the tier degrades to the packed-int path (never crashes,
never diverges) when numpy or compilation is unavailable.  Campaigns
on the SoA carrier are held to the reference by
``tests/test_oracle.py``; the ones here pin named configurations.
"""

import logging
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import needs_compiled
from repro.circuit import load
from repro.circuit.library import random_sequential
from repro.engine import EngineConfig, SeuBackend, run_campaign
from repro.engine import lanes
from repro.sim import compiled, vector
from repro.sim.logic import mask_of, random_patterns
from repro.sim.sequential import SequentialSim
from repro.soft_error import random_workload
from test_oracle import Config, check

# program-level identity runs the full ISSUE width ladder; campaign
# tests stop at 1024 (4096-lane campaigns are all setup, no new code)
SOA_WIDTHS = (1, 64, 65, 192, 1024, 4096)

needs_numpy = pytest.mark.skipif(not vector.HAVE_NUMPY,
                                 reason="numpy not installed")


def _random_circuit(seed: int, observe_all: bool = False):
    """A small sequential circuit; with ``observe_all`` every gate
    output is also a primary output, so the step program's readout
    covers every net the kernel computes (no cone-of-influence pruning,
    every folded alias observed)."""
    circuit = random_sequential(n_inputs=5, n_gates=40, n_flops=6,
                                n_outputs=4, seed=seed)
    if observe_all:
        for net in list(circuit.gates):
            if net not in circuit.outputs:
                circuit.add_output(net)
    return circuit


def _every_gate_kind():
    """Every gate type, arities 1 to 4, and BUF/NOT/CONST chains that
    fold into row aliases — all of it observed."""
    from repro.circuit.netlist import Circuit

    circuit = Circuit("soa_zoo")
    for pi in "abcd":
        circuit.add_input(pi)
    circuit.add_flop("q", "x3")
    circuit.add_gate("k0", "CONST0", [])
    circuit.add_gate("k1", "CONST1", [])
    circuit.add_gate("nk0", "NOT", ["k0"])          # folded constant
    circuit.add_gate("bq", "BUF", ["q"])
    circuit.add_gate("nbq", "NOT", ["bq"])          # NOT of BUF of source
    circuit.add_gate("nnbq", "NOT", ["nbq"])        # double inversion
    for kind in ("AND", "NAND", "OR", "NOR", "XOR", "XNOR"):
        low = kind.lower()
        circuit.add_gate(f"{low}2", kind, ["a", "nbq"])
        circuit.add_gate(f"{low}3", kind, ["a", "b", f"{low}2"])
        circuit.add_gate(f"{low}4", kind, ["k1", "c", "d", f"{low}3"])
    circuit.add_gate("x3", "XOR", ["and4", "nor3", "nk0"])
    circuit.add_gate("tail", "BUF", ["xnor4"])      # alias of a gate row
    for net in list(circuit.gates):
        circuit.add_output(net)
    circuit.validate()
    return circuit


def _soa_step(circuit, width, pis, state):
    """One clock on the step program's SoA kernel, ``width`` lanes wide:
    load the PI and flop rows, ``bind`` + ``execute_bound``, read the PO
    and D rows back as packed ints (dead lanes masked off)."""
    np = vector.np
    program = compiled.step_program(circuit)
    kernel = program.soa
    blocks = vector.blocks_for(width)
    n = kernel.n_slots
    S = np.zeros((2 * n, blocks), dtype=np.uint64)
    S[n] = ~np.uint64(0)  # mirror of the constant-zero row
    for (first, _), nets, words in ((kernel.pi_slice, program.inputs, pis),
                                    (kernel.q_slice, program.flop_qs, state)):
        for row, net in enumerate(nets, first):
            S[row] = np.frombuffer(words[net].to_bytes(8 * blocks, "little"),
                                   dtype="<u8")
    lo, hi = kernel.src_span
    np.invert(S[lo:hi], out=S[n + lo:n + hi])
    kernel.execute_bound(S, kernel.bind(S))
    mask = mask_of(width)

    def read(nets, rows):
        return {net: vector.from_blocks(S[row]) & mask
                for net, row in zip(nets, rows)}

    return (read(program.outputs, kernel.po_rows),
            read(program.flop_qs, kernel.d_rows))


def _check_step(circuit, width, seed):
    """SoA kernel == int kernel == reference interpreter, on every
    observed net and the next state."""
    scalar = compiled.step_program(circuit)
    pis = random_patterns(circuit.inputs, width, seed=seed + 3)
    state = random_patterns(circuit.flops, width, seed=seed + 4)
    pos_s, nxt_s = scalar.run(pis, state, mask_of(width))
    assert _soa_step(circuit, width, pis, state) == (pos_s, nxt_s)
    sim = SequentialSim(circuit, width)
    sim.state = dict(state)
    with compiled.disabled():
        assert sim.step(pis) == pos_s
    assert sim.state == nxt_s


# ----------------------------------------------------------------------
# property: SoA kernel == interpreter / int kernel, all widths
# ----------------------------------------------------------------------
@needs_numpy
@needs_compiled
class TestSoaPrograms:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), width=st.sampled_from(SOA_WIDTHS),
           observe_all=st.booleans())
    def test_step_program_matches_scalar(self, seed, width, observe_all):
        _check_step(_random_circuit(seed, observe_all), width, seed)

    @pytest.mark.parametrize("width", SOA_WIDTHS)
    def test_step_covers_every_gate_kind_arity_and_fold(self, width):
        _check_step(_every_gate_kind(), width, seed=width)

    def test_stats_describe_the_schedule(self):
        kernel = compiled.step_program(load("rand_seq")).soa
        assert kernel.n_gates > 0 and kernel.n_levels > 0
        # fusion is the point: far fewer numpy calls than gates, and at
        # least the two mandatory calls (gather + invert) per level
        assert kernel.n_levels < kernel.n_calls < (
            6 * kernel.n_levels + kernel.n_gates // 2)

    def test_fusion_amortises_on_wide_levels(self):
        # the retired smoke bench's fusion floor, on its circuit: wide
        # levels (~130 live gates each) must cost at most one numpy call
        # per four gates, or the kernel has stopped batching by level
        circuit = random_sequential(n_inputs=80, n_gates=12800, n_flops=320,
                                    seed=3)
        kernel = compiled.step_program(circuit).soa
        assert kernel.n_calls * 4 <= kernel.n_gates


# ----------------------------------------------------------------------
# engine lanes on the SoA backing
# ----------------------------------------------------------------------
@needs_numpy
class TestSoaLanes:
    # the default batch (64) is raised to one chunk per lane width
    @pytest.mark.parametrize("width", (65, 192, 1000, 1024))
    def test_seu_identical_to_per_point(self, width):
        check(Config(lane_width=width, backing="soa", batch_size=64,
                     long=True))

    def test_transient_dispatch_identical_to_per_point(self):
        # SlicingBackend's packed path goes through transient_outcomes:
        # per-lane state deltas injected mid-stream, propagated shared.
        # SoA must honour the same flip schedule as the int backing.
        check(Config(backend="slicing-nofilter", lane_width=256,
                     backing="soa", batch_size=64, long=True))

    def test_soa_survives_process_pickling(self):
        check(Config(lane_width=192, backing="soa", batch_size=64,
                     long=True, executor="process"))

    def test_soa_falls_back_under_no_compile(self, seq_setup):
        circuit, workload = seq_setup
        with compiled.disabled():
            ctx = lanes.build_context(circuit, workload, 192, backing="soa")
            assert ctx.backing == "int"


# ----------------------------------------------------------------------
# the kernel lives on the step program: pickling and mutation drop it
# ----------------------------------------------------------------------
@needs_numpy
@needs_compiled
class TestSoaPickling:
    def test_circuit_pickle_drops_soa_cache(self):
        circuit = load("rand_seq")
        compiled.step_program(circuit).soa
        assert "soa" in vars(circuit._program_cache["step"])  # built
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._program_cache == {}


@needs_numpy
@needs_compiled
class TestSoaInvalidation:
    def test_mutation_invalidates_soa_programs(self):
        circuit = _random_circuit(4)
        width = 65
        before = compiled.step_program(circuit).soa
        circuit.add_gate("smut", "NOR",
                         [circuit.inputs[0], circuit.inputs[1]])
        circuit.add_output("smut")
        assert not circuit._program_cache  # invalidated with topo/cones
        program = compiled.step_program(circuit)
        assert "smut" in program.outputs and program.soa is not before
        _check_step(circuit, width, seed=1)


# ----------------------------------------------------------------------
# degradation: no numpy, no crash, no divergence
# ----------------------------------------------------------------------
class TestSoaDegradation:
    @needs_compiled
    def test_soa_kernel_never_built_without_numpy(self, monkeypatch):
        # the int kernel needs no numpy, and a campaign that asks for
        # the SoA carrier by name runs on it instead of building the SoA
        # kernel (numpy is blanked: any use of vector.np would raise)
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        monkeypatch.setattr(vector, "_warned_no_numpy", True)
        monkeypatch.setitem(vars(vector), "np", None)
        circuit = load("rand_seq")
        workload = random_workload(circuit, 8, seed=2)
        run_campaign(SeuBackend(circuit, workload, lane_width=256,
                                lane_backing="soa"),
                     EngineConfig(executor="serial"))
        assert set(circuit._program_cache) == {"step"}
        assert "fn" in vars(circuit._program_cache["step"])
        assert "soa" not in vars(circuit._program_cache["step"])

    def test_backing_degrades_with_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        monkeypatch.setattr(vector, "_warned_no_numpy", False)
        circuit = load("rand_seq")
        with caplog.at_level(logging.WARNING, logger="repro.sim.vector"):
            assert lanes.resolve_backing("soa", circuit, 4096) == "int"
            assert lanes.resolve_backing("soa", circuit, 4096) == "int"
        assert ["numpy unavailable" in rec.message
                for rec in caplog.records] == [True]  # warned once

    def test_campaign_without_numpy_matches_packed_64(self, seq_setup,
                                                      monkeypatch):
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        monkeypatch.setattr(vector, "_warned_no_numpy", True)
        circuit, workload = seq_setup
        backend = SeuBackend(circuit.copy(), workload, lane_width=2048,
                             lane_backing="soa")
        assert backend.lane_width == 64  # degraded, not crashed
        check(Config(lane_width=2048, backing="soa", batch_size=64,
                     long=True))


# ----------------------------------------------------------------------
# vector helpers grown alongside the tier
# ----------------------------------------------------------------------
@needs_numpy
class TestVectorHelpers:
    def test_outcome_list_wide_matches_probe(self):
        rng = __import__("random").Random(3)
        for count in (65, 200, 1024):
            fail = rng.getrandbits(count)
            latent = rng.getrandbits(count) & ~fail
            wide = lanes._outcome_list(fail, latent, count)
            probe = [lanes.FAILURE if (fail >> i) & 1 else
                     lanes.LATENT if (latent >> i) & 1 else lanes.MASKED
                     for i in range(count)]
            assert wide == probe
