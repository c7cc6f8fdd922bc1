"""Tests for the SoA compiled tier (`repro.sim.compiled` SoA section).

The contract under test: the SoA step program is byte-identical to the
scalar compiled step and the reference interpreter at any lane width
(the whole point of the tier is perf, so identity must hold
unconditionally); it pickles as pure index arrays; circuit mutation
invalidates it like every other program cache; and the tier degrades
to the packed-int path (never crashes, never diverges) when numpy or
compilation is unavailable.
"""

import logging
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import needs_compiled
from repro.circuit import load
from repro.circuit.library import random_sequential
from repro.engine import (
    EngineConfig,
    SeuBackend,
    SlicingBackend,
    run_campaign,
    shutdown_pools,
)
from repro.engine import lanes
from repro.faults import collapse
from repro.sim import compiled, vector
from repro.sim.logic import mask_of, random_patterns
from repro.sim.sequential import SequentialSim
from repro.soft_error import random_workload

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


def _as_int(value) -> int:
    return value if isinstance(value, int) else vector.from_blocks(value)


def _check_step(circuit, width, seed):
    """SoA step == compiled scalar step == reference interpreter, on
    every observed net and the next state."""
    soa = compiled.soa_step_program(circuit, width)
    scalar = compiled.step_program(circuit)
    pis = random_patterns(circuit.inputs, width, seed=seed + 3)
    state = random_patterns(circuit.flops, width, seed=seed + 4)
    pos_s, nxt_s = scalar.run(pis, state, mask_of(width))
    pos_v, nxt_v = soa.run(pis, state)
    assert {po: _as_int(v) for po, v in pos_v.items()} == pos_s
    assert {q: _as_int(v) for q, v in nxt_v.items()} == nxt_s
    sim = SequentialSim(circuit, width)
    sim.state = dict(state)
    with compiled.disabled():
        assert sim.step(pis) == pos_s
    assert sim.state == nxt_s


# ----------------------------------------------------------------------
# property: SoA programs == interpreter / scalar tier, all widths
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

    def test_step_partial_state_falls_back_to_flop_init(self):
        circuit = _random_circuit(77)
        width = 192
        soa = compiled.soa_step_program(circuit, width)
        scalar = compiled.step_program(circuit)
        pis = random_patterns(circuit.inputs, width, seed=1)
        state = random_patterns(circuit.flops, width, seed=2)
        del state[next(iter(circuit.flops))]
        pos_s, nxt_s = scalar.run(pis, state, mask_of(width))
        pos_v, nxt_v = soa.run(pis, state)
        assert {po: _as_int(v) for po, v in pos_v.items()} == pos_s
        assert {q: _as_int(v) for q, v in nxt_v.items()} == nxt_s

    def test_stats_describe_the_schedule(self):
        kernel = compiled.soa_step_program(load("rand_seq"), 1024).kernel
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
        kernel = compiled.soa_step_program(circuit, 1024).kernel
        assert kernel.n_calls * 4 <= kernel.n_gates


# ----------------------------------------------------------------------
# engine lanes on the SoA backing
# ----------------------------------------------------------------------
@needs_numpy
class TestSoaLanes:
    @pytest.fixture(scope="class")
    def seq_setup(self):
        circuit = load("rand_seq")
        return circuit, random_workload(circuit, 20, seed=7)

    def _rows(self, report):
        return [(i.location, i.cycle, i.outcome)
                for i in report.injections + report.skipped]

    @needs_compiled
    @pytest.mark.parametrize("width", (65, 192, 1000, 1024))
    def test_seu_identical_to_per_point(self, seq_setup, width):
        circuit, workload = seq_setup
        ref = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=1),
            EngineConfig(executor="serial"))
        backend = SeuBackend(circuit.copy(), workload, lane_width=width,
                             lane_backing="soa")
        report = run_campaign(backend, EngineConfig(executor="serial"))
        assert self._rows(report) == self._rows(ref)
        backend.prepare()
        assert backend._lane_ctx.backing == "soa"

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000),
           width=st.sampled_from((65, 192, 1000)))
    def test_property_soa_equals_packed_equals_interpreter(self, seed,
                                                           width):
        circuit = random_sequential(n_inputs=5, n_gates=40, n_flops=6,
                                    n_outputs=4, seed=seed)
        workload = random_workload(circuit, 10, seed=seed + 1)

        def rows(width_, backing_=None):
            backend = SeuBackend(circuit.copy(), workload,
                                 lane_width=width_, lane_backing=backing_)
            return self._rows(run_campaign(
                backend, EngineConfig(executor="serial")))

        packed = rows(64)
        assert rows(width, "soa") == packed
        with compiled.disabled():
            assert rows(width, "soa") == packed  # interpreter reference

    def test_slicing_identical_to_64(self):
        circuit = load("rand_seq")
        faults, _ = collapse(circuit)
        workload = random_workload(circuit, 12, seed=3)
        ref = run_campaign(
            SlicingBackend(circuit.copy(), faults[:30], workload,
                           lane_width=64),
            EngineConfig(batch_size=32, executor="serial"))
        wide = run_campaign(
            SlicingBackend(circuit.copy(), faults[:30], workload,
                           lane_width=192, lane_backing="soa"),
            EngineConfig(batch_size=32, executor="serial"))
        assert sorted(self._rows(wide)) == sorted(self._rows(ref))

    def test_transient_dispatch_identical_to_per_point(self):
        # SlicingBackend's packed path goes through transient_outcomes:
        # per-lane state deltas injected mid-stream, propagated shared.
        # SoA must honour the same flip schedule as the int backing.
        circuit = load("rand_seq")
        faults, _ = collapse(circuit)
        workload = random_workload(circuit, 12, seed=3)
        ref = run_campaign(
            SlicingBackend(circuit.copy(), faults[:40], workload,
                           use_filter=False, lane_width=1),
            EngineConfig(executor="serial"))
        soa = run_campaign(
            SlicingBackend(circuit.copy(), faults[:40], workload,
                           use_filter=False, lane_width=256,
                           lane_backing="soa"),
            EngineConfig(executor="serial"))
        assert sorted(self._rows(soa)) == sorted(self._rows(ref))

    def test_soa_survives_process_pickling(self, seq_setup):
        circuit, workload = seq_setup
        serial = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=1),
            EngineConfig(executor="serial"))
        shipped = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=192,
                       lane_backing="soa"),
            EngineConfig(batch_size=64, workers=2, executor="process"))
        assert self._rows(shipped) == self._rows(serial)
        shutdown_pools()

    def test_soa_falls_back_under_no_compile(self, seq_setup):
        circuit, workload = seq_setup
        with compiled.disabled():
            ctx = lanes.build_context(circuit, workload, 192, backing="soa")
            assert ctx.backing == "int"


# ----------------------------------------------------------------------
# pickling: the schedule ships as index arrays
# ----------------------------------------------------------------------
@needs_numpy
@needs_compiled
class TestSoaPickling:
    def test_step_program_roundtrip(self):
        circuit = load("rand_seq")
        width = 256
        prog = compiled.soa_step_program(circuit, width)
        pis = random_patterns(circuit.inputs, width, seed=6)
        state = random_patterns(circuit.flops, width, seed=7)
        prog.run(pis, state)
        blob = pickle.dumps(prog)
        assert b"def _run" not in blob  # index arrays, no source
        clone = pickle.loads(blob)
        assert clone.n_blocks == prog.n_blocks
        pos_c, nxt_c = clone.run(pis, state)
        pos_p, nxt_p = prog.run(pis, state)
        assert {k: _as_int(v) for k, v in pos_c.items()} \
            == {k: _as_int(v) for k, v in pos_p.items()}
        assert {k: _as_int(v) for k, v in nxt_c.items()} \
            == {k: _as_int(v) for k, v in nxt_p.items()}

    def test_circuit_pickle_drops_soa_cache(self):
        circuit = load("rand_seq")
        compiled.soa_step_program(circuit, 128)
        assert ("soa_step", 128) in circuit._program_cache
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._program_cache == {}


# ----------------------------------------------------------------------
# invalidation: mutation drops SoA programs with the other caches
# ----------------------------------------------------------------------
@needs_numpy
@needs_compiled
class TestSoaInvalidation:
    def test_mutation_invalidates_soa_programs(self):
        circuit = _random_circuit(4)
        width = 65
        compiled.soa_step_program(circuit, width)
        assert ("soa_step", width) in circuit._program_cache
        circuit.add_gate("smut", "NOR",
                         [circuit.inputs[0], circuit.inputs[1]])
        circuit.add_output("smut")
        assert not circuit._program_cache  # invalidated with topo/cones
        after = compiled.soa_step_program(circuit, width)
        assert "smut" in after.outputs
        _check_step(circuit, width, seed=1)

    def test_width_wrappers_share_one_meta(self):
        circuit = load("rand_seq")
        a = compiled.soa_step_program(circuit, 128)
        b = compiled.soa_step_program(circuit, 1024)
        assert a.kernel is b.kernel  # schedule built once per circuit
        assert a.po_rows is b.po_rows and a.d_rows is b.d_rows
        assert a.n_blocks != b.n_blocks
        assert compiled.soa_step_program(circuit, 128) is a  # cached


# ----------------------------------------------------------------------
# degradation: no numpy, no crash, no divergence
# ----------------------------------------------------------------------
class TestSoaDegradation:
    def test_factories_return_none_without_numpy(self, monkeypatch):
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        circuit = load("rand_seq")
        assert compiled.soa_step_program(circuit, 256) is None

    def test_backing_degrades_with_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        monkeypatch.setattr(vector, "_warned_no_numpy", False)
        circuit = load("rand_seq")
        with caplog.at_level(logging.WARNING, logger="repro.sim.vector"):
            assert lanes.resolve_backing("soa", circuit, 4096) == "int"
            assert lanes.resolve_backing("soa", circuit, 4096) == "int"
        assert ["numpy unavailable" in rec.message
                for rec in caplog.records] == [True]  # warned once

    def test_campaign_without_numpy_matches_packed_64(self, monkeypatch):
        circuit = load("rand_seq")
        workload = random_workload(circuit, 12, seed=9)
        ref = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=64),
            EngineConfig(executor="serial"))
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        monkeypatch.setattr(vector, "_warned_no_numpy", True)
        backend = SeuBackend(circuit.copy(), workload, lane_width=2048,
                             lane_backing="soa")
        assert backend.lane_width == 64  # degraded, not crashed
        report = run_campaign(backend, EngineConfig(executor="serial"))
        rows = [(i.location, i.cycle, i.outcome) for i in report.injections]
        assert rows == [(i.location, i.cycle, i.outcome)
                        for i in ref.injections]


# ----------------------------------------------------------------------
# vector helpers grown alongside the tier
# ----------------------------------------------------------------------
@needs_numpy
class TestVectorHelpers:
    def test_mask_array_matches_bigint_path(self):
        for width in (1, 63, 64, 65, 192, 1000, 1024, 4096):
            arr = vector.mask_array(width)
            assert vector.from_blocks(arr) == (1 << width) - 1
            explicit = vector.mask_array(width, vector.blocks_for(width) + 2)
            assert vector.from_blocks(explicit) == (1 << width) - 1

    def test_to_blocks_zero_fast_path(self):
        arr = vector.to_blocks(0, 16)
        assert arr.shape == (16,) and not arr.any()
        arr[0] = 1  # writable (frombuffer views are not)

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
