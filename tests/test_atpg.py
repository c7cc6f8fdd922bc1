"""Tests for PODEM, random TPG, compaction, untestability and CPU SBST."""

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder, load
from repro.circuit.library import random_combinational, random_sequential
from repro.faults import Line, StuckAtFault, all_stuck_at, collapse
from repro.atpg import (
    compact_greedy,
    compact_reverse,
    cpu_fault_universe,
    functionally_untestable_delta,
    generate_tests,
    identify_untestable,
    podem,
    random_tpg,
    run_cpu_sbst,
    unobservable_nets,
)
from repro.safety.tool_confidence import fi_classifier
from repro.sim import (compiled, exhaustive_patterns, fault_simulate,
                       pack_patterns)


def _redundant_circuit():
    """y = a AND (NOT a): constant 0, so y s-a-0 is untestable."""
    bld = CircuitBuilder("red")
    a = bld.input("a")
    na = bld.not_(a)
    bld.output(bld.and_(a, na, name="y"))
    return bld.done()


class TestPodem:
    def test_c17_all_faults_testable(self):
        c17 = load("c17")
        reps, _ = collapse(c17)
        patterns, untestable, aborted = generate_tests(c17, reps)
        assert not untestable and not aborted
        packed = pack_patterns(patterns)
        assert fault_simulate(c17, reps, packed, len(patterns)).coverage == 1.0

    def test_generated_pattern_detects_its_fault(self):
        c17 = load("c17")
        for fault in collapse(c17)[0][:10]:
            result = podem(c17, fault)
            assert result.detected
            packed = pack_patterns([result.pattern])
            sim = fault_simulate(c17, [fault], packed, 1)
            assert fault in sim.detected

    def test_redundant_fault_proved_untestable(self):
        red = _redundant_circuit()
        assert podem(red, StuckAtFault(Line("y"), 0)).status == "untestable"
        assert podem(red, StuckAtFault(Line("y"), 1)).status == "detected"

    def test_sequential_full_scan_view(self):
        s27 = load("s27")
        reps, _ = collapse(s27)
        patterns, untestable, aborted = generate_tests(s27, reps)
        assert not aborted and not untestable
        packed = pack_patterns(patterns)
        sim = fault_simulate(s27, reps, packed, len(patterns),
                             state=packed, full_scan=True)
        assert sim.coverage == 1.0

    def test_constraints_respected(self):
        """Patterns generated under pin constraints must honor them."""
        alu = load("alu4")
        constraints = {"op0": 1, "op1": 0}
        reps, _ = collapse(alu)
        for fault in reps[:20]:
            result = podem(alu, fault, constraints=constraints)
            if result.detected:
                assert result.pattern["op0"] == 1
                assert result.pattern["op1"] == 0


class TestRandomTpgAndCompaction:
    def test_random_tpg_coverage_rises(self):
        c = load("rca8")
        reps, _ = collapse(c)
        result = random_tpg(c, reps, max_patterns=128, seed=0)
        assert result.coverage > 0.95
        xs = [n for n, _ in result.curve]
        assert xs == sorted(xs)

    def test_compaction_preserves_coverage(self):
        c = load("rand200")
        reps, _ = collapse(c)
        rt = random_tpg(c, reps, max_patterns=128, seed=1)
        for compactor in (compact_greedy, compact_reverse):
            small = compactor(c, reps, rt.patterns)
            assert len(small) <= len(rt.patterns)
            packed_small = pack_patterns(small)
            packed_full = pack_patterns(rt.patterns)
            cov_small = fault_simulate(c, reps, packed_small, len(small)).coverage
            cov_full = fault_simulate(c, reps, packed_full,
                                      len(rt.patterns)).coverage
            assert cov_small == pytest.approx(cov_full)

    def test_compact_empty_patterns(self):
        c = load("c17")
        reps, _ = collapse(c)
        assert compact_greedy(c, reps, []) == []
        assert compact_reverse(c, reps, []) == []


def _per_fault_reference(circuit, faults, batches, state=None, full_scan=True,
                         drop_detected=True):
    """The single-batch sweep call, answered by one ``fault_simulate``
    on the reference interpreter instead."""
    (packed, n), = batches
    assert not drop_detected  # the callers read whole detection masks
    with compiled.disabled():
        return fault_simulate(circuit, list(faults), packed, n, state=state,
                              full_scan=full_scan)


_SWEEP_CALLERS = {
    "random_tpg": ("repro.atpg.random_tpg", lambda c, faults, patterns:
                   random_tpg(c, faults, max_patterns=160, seed=3)),
    "compact_greedy": ("repro.atpg.compaction", compact_greedy),
    "compact_reverse": ("repro.atpg.compaction", compact_reverse),
    "fi_classifier": ("repro.safety.tool_confidence",
                      lambda c, faults, patterns:
                      fi_classifier(c, faults, n_patterns=48, seed=2)),
}


@pytest.mark.parametrize("caller", _SWEEP_CALLERS)
@pytest.mark.parametrize("sequential", (False, True),
                         ids=("combinational", "full_scan"))
def test_sweep_callers_match_the_per_fault_reference(caller, sequential,
                                                     monkeypatch):
    # full-scan patterns drive the flops too: the callers pass the
    # packed patterns (or their flop words) as ``state``
    circuit = (random_sequential(6, 80, 8, 4, seed=21) if sequential
               else random_combinational(8, 90, 4, seed=21))
    faults, _ = collapse(circuit)
    rng = random.Random(5)
    pseudo = list(circuit.inputs) + list(circuit.flops)
    patterns = [{net: rng.getrandbits(1) for net in pseudo}
                for _ in range(96)]
    module, run = _SWEEP_CALLERS[caller]
    swept = run(circuit, faults, patterns)
    monkeypatch.setattr(importlib.import_module(module),
                        "fault_simulate_batched", _per_fault_reference)
    assert run(circuit.copy(), faults, patterns) == swept


class TestUntestable:
    def test_dead_logic_structurally_untestable(self):
        bld = CircuitBuilder("dead")
        a = bld.input("a")
        bld.not_(a, name="dangling")
        bld.output(bld.buf(a, name="y"))
        c = bld.done()
        assert "dangling" in unobservable_nets(c)
        report = identify_untestable(c, all_stuck_at(c))
        dead = [f for f in report.structurally_untestable
                if f.line.net == "dangling"]
        assert len(dead) == 2

    def test_report_consistent_with_exhaustive_sim(self):
        """PODEM's untestable set must equal the exhaustively-undetectable set."""
        c = load("mul4")
        reps, _ = collapse(c)
        report = identify_untestable(c, reps)
        packed, n = exhaustive_patterns(c.inputs)
        sim = fault_simulate(c, reps, packed, n)
        sim_undetectable = set(sim.undetected)
        assert set(report.untestable) == sim_undetectable
        assert not report.aborted

    def test_functional_constraints_create_untestables(self):
        alu = load("alu4")
        reps, _ = collapse(alu)
        delta = functionally_untestable_delta(alu, reps, {"op0": 0, "op1": 0})
        # the AND/OR/XOR paths are unreachable in ADD mode
        assert len(delta) > 20

    def test_effective_coverage_accounts_untestables(self):
        red = _redundant_circuit()
        report = identify_untestable(red, all_stuck_at(red))
        assert report.effective_coverage(len(report.testable)) == 1.0


class TestCpuSbst:
    def test_sbst_detects_most_faults(self):
        report = run_cpu_sbst()
        assert report.coverage > 0.8

    def test_fetch_and_decode_fully_covered(self):
        report = run_cpu_sbst()
        per_unit = report.per_unit()
        assert per_unit["fetch"] == 1.0
        assert per_unit["decode"] == 1.0

    def test_universe_covers_all_units(self):
        units = {f.unit for f in cpu_fault_universe()}
        assert units == {"fetch", "decode", "regfile", "alu", "lsu", "branch"}


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 3_000))
def test_podem_agrees_with_exhaustive(seed):
    """Property: on small random circuits PODEM's verdicts are exact."""
    c = random_combinational(5, 15, 3, seed=seed)
    reps, _ = collapse(c)
    packed, n = exhaustive_patterns(c.inputs)
    sim = fault_simulate(c, reps, packed, n)
    detectable = set(sim.detected)
    for fault in reps:
        result = podem(c, fault)
        assert result.status != "aborted"
        assert result.detected == (fault in detectable), fault.describe()
