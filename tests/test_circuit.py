"""Tests for the gate-level circuit substrate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    BENCHMARKS,
    Circuit,
    CircuitBuilder,
    CircuitError,
    GateType,
    compute_scoap,
    cone_of_influence,
    depth,
    emit_verilog,
    fanin_cone,
    fanout_cone,
    hard_to_test_nets,
    levels,
    load,
    observable_outputs,
    parse_verilog,
)
from repro.circuit.library import random_combinational, random_sequential
from repro.sim import exhaustive_patterns, pack_patterns, simulate


class TestNetlistConstruction:
    def test_duplicate_input_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitError):
            c.add_input("a")

    def test_double_driver_rejected(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("y", GateType.NOT, ["a"])
        with pytest.raises(CircuitError):
            c.add_gate("y", GateType.BUF, ["a"])

    def test_flop_cannot_shadow_gate(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("y", GateType.BUF, ["a"])
        with pytest.raises(CircuitError):
            c.add_flop("y", "a")

    def test_not_gate_arity_enforced(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        with pytest.raises(ValueError):
            c.add_gate("y", GateType.NOT, ["a", "b"])

    def test_and_gate_needs_two_inputs(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(ValueError):
            c.add_gate("y", GateType.AND, ["a"])

    def test_validate_catches_undriven(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("y", GateType.AND, ["a", "ghost"])
        with pytest.raises(CircuitError, match="undriven"):
            c.validate()

    def test_cycle_detection(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("x", GateType.AND, ["a", "y"])
        c.add_gate("y", GateType.AND, ["a", "x"])
        with pytest.raises(CircuitError, match="cycle"):
            c.topo_order()

    def test_flop_breaks_cycle(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("x", GateType.XOR, ["a", "q"])
        c.add_flop("q", "x")
        c.add_output("x")
        c.validate()  # no exception: the loop goes through a flop

    def test_stats_counts(self):
        c17 = load("c17")
        stats = c17.stats()
        assert stats["inputs"] == 5
        assert stats["outputs"] == 2
        assert stats["gates"] == 6
        assert stats["gates_nand"] == 6

    def test_copy_is_independent(self):
        c = load("c17")
        dup = c.copy("dup")
        dup.add_output("N10")
        assert "N10" not in c.outputs


def _kahn_reference(circuit):
    """The two-pass Kahn sort ``topo_order`` ran before it counted
    in-degrees and fan-out in one loop: the order it is held to."""
    gates = circuit.gates
    indeg = {}
    for gate in gates.values():
        indeg[gate.output] = sum(1 for src in gate.inputs if src in gates)
    ready = [g.output for g in gates.values() if indeg[g.output] == 0]
    ready.sort()
    order = []
    fanout_to_gates = {}
    for gate in gates.values():
        for src in gate.inputs:
            if src in gates:
                fanout_to_gates.setdefault(src, []).append(gate.output)
    while ready:
        net = ready.pop()
        order.append(gates[net])
        for dst in fanout_to_gates.get(net, ()):
            indeg[dst] -= 1
            if indeg[dst] == 0:
                ready.append(dst)
    if len(order) != len(gates):
        cyclic = sorted(set(gates) - {g.output for g in order})
        raise CircuitError(f"combinational cycle through nets {cyclic[:5]}")
    return order


def _reshuffled(circuit, seed):
    """``circuit`` with its gates declared in a random order, plus gates
    that read one net twice: the sort's output depends on both."""
    rng = random.Random(seed)
    dup = Circuit(circuit.name)
    for pi in circuit.inputs:
        dup.add_input(pi)
    gates = list(circuit.gates.values())
    rng.shuffle(gates)
    for gate in gates:
        dup.add_gate(gate.output, gate.gtype, gate.inputs)
    for flop in circuit.flops.values():
        dup.add_flop(flop.q, flop.d, flop.init)
    nets = list(circuit.gates)
    for i in range(4):
        src = rng.choice(nets)
        dup.add_gate(f"twice{i}", rng.choice(["AND", "XOR", "NOR"]),
                     [src, src])
        nets.append(f"twice{i}")
    for po in circuit.outputs:
        dup.add_output(po)
    return dup


class TestTopoOrderIdentity:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_library_circuits(self, name):
        circuit = load(name)
        assert circuit.topo_order() == _kahn_reference(circuit)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), sequential=st.booleans())
    def test_random_circuits(self, seed, sequential):
        circuit = (random_sequential(5, 40, 6, 4, seed=seed) if sequential
                   else random_combinational(6, 50, 4, seed=seed))
        circuit = _reshuffled(circuit, seed)
        assert circuit.topo_order() == _kahn_reference(circuit)

    def test_cycle_message_unchanged(self):
        c = Circuit()
        c.add_input("a")
        for i in range(7):  # a ring of seven, more than the message names
            c.add_gate(f"r{i}", GateType.AND, ["a", f"r{(i + 1) % 7}"])
        c.add_gate("tail", GateType.NOT, ["r0"])
        with pytest.raises(CircuitError) as expected:
            _kahn_reference(c)
        with pytest.raises(CircuitError) as got:
            c.topo_order()
        assert str(got.value) == str(expected.value)
        assert "cycle through nets" in str(got.value)


class TestBenchmarkLibrary:
    def test_all_benchmarks_validate(self):
        for name in BENCHMARKS:
            circuit = load(name)
            circuit.validate()

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            load("nonexistent")

    @pytest.mark.parametrize("a,b,cin", [(0, 0, 0), (255, 255, 1), (123, 45, 1)])
    def test_ripple_adder_math(self, a, b, cin):
        c = load("rca8")
        pat = {f"a{i}": (a >> i) & 1 for i in range(8)}
        pat |= {f"b{i}": (b >> i) & 1 for i in range(8)}
        pat["cin"] = cin
        vals = simulate(c, pack_patterns([pat]), 1)
        total = sum((vals[f"s{i}"] & 1) << i for i in range(8))
        total += (vals["cout"] & 1) << 8
        assert total == a + b + cin

    @pytest.mark.parametrize("a,b", [(0, 0), (15, 15), (7, 9), (12, 3)])
    def test_multiplier_math(self, a, b):
        c = load("mul4")
        pat = {f"a{i}": (a >> i) & 1 for i in range(4)}
        pat |= {f"b{i}": (b >> i) & 1 for i in range(4)}
        vals = simulate(c, pack_patterns([pat]), 1)
        product = sum((vals[f"p{i}"] & 1) << i for i in range(8))
        assert product == a * b

    def test_decoder_one_hot(self):
        c = load("dec4")
        packed, n = exhaustive_patterns(c.inputs)
        vals = simulate(c, packed, n)
        for i in range(n):
            lines = [(vals[f"w{k}"] >> i) & 1 for k in range(16)]
            assert sum(lines) == 1
            addr = sum(((packed[f"a{b}"] >> i) & 1) << b for b in range(4))
            assert lines[addr] == 1

    def test_parity_tree(self):
        c = load("par8")
        packed, n = exhaustive_patterns(c.inputs)
        vals = simulate(c, packed, n)
        for i in range(n):
            bits = [(packed[f"d{k}"] >> i) & 1 for k in range(8)]
            assert (vals["p"] >> i) & 1 == sum(bits) % 2

    def test_comparator_equality(self):
        c = load("cmp8")
        cases = [(5, 5, 1), (5, 6, 0), (255, 255, 1), (0, 128, 0)]
        pats = []
        for a, b, _eq in cases:
            pat = {f"a{i}": (a >> i) & 1 for i in range(8)}
            pat |= {f"b{i}": (b >> i) & 1 for i in range(8)}
            pats.append(pat)
        vals = simulate(c, pack_patterns(pats), len(pats))
        for i, (_a, _b, eq) in enumerate(cases):
            assert (vals["eq"] >> i) & 1 == eq

    def test_majority_voter(self):
        c = load("maj8")
        pat = {}
        for i in range(8):
            pat[f"a{i}"] = 1
            pat[f"b{i}"] = i % 2
            pat[f"c{i}"] = 1 if i < 4 else 0
        vals = simulate(c, pack_patterns([pat]), 1)
        for i in range(8):
            votes = pat[f"a{i}"] + pat[f"b{i}"] + pat[f"c{i}"]
            assert vals[f"v{i}"] & 1 == (1 if votes >= 2 else 0)

    def test_random_combinational_deterministic(self):
        a = random_combinational(seed=5)
        b = random_combinational(seed=5)
        assert emit_verilog(a) == emit_verilog(b)

    def test_random_combinational_no_dead_logic(self):
        c = random_combinational(10, 80, 6, seed=2)
        observables = set(c.outputs)
        for gate in c.gates.values():
            cone = fanout_cone(c, [gate.output])
            assert cone & observables, f"{gate.output} unobservable"


class TestLevelizeAndCones:
    def test_levels_monotone(self):
        c = load("c17")
        lvl = levels(c)
        for gate in c.gates.values():
            assert lvl[gate.output] == 1 + max(lvl[i] for i in gate.inputs)

    def test_depth_positive(self):
        assert depth(load("rca8")) > 8  # carry chain dominates

    def test_fanin_fanout_inverse_relation(self):
        c = load("c17")
        assert "N11" in fanin_cone(c, ["N22"]) or "N11" in fanin_cone(c, ["N23"])
        assert "N22" in fanout_cone(c, ["N10"])

    @staticmethod
    def _check_seed_pairs(circuit):
        # seeds [a, q] with a feeding q.d: reaching q's D must not stop
        # q's own expansion when q is a seed too
        for q, flop in circuit.flops.items():
            union = fanout_cone(circuit, [flop.d]) | fanout_cone(circuit, [q])
            assert fanout_cone(circuit, [flop.d, q]) == union, q
            assert fanout_cone(circuit, [q, flop.d]) == union, q

    def test_multi_seed_cone_is_union_of_single_seed_cones_s27(self):
        self._check_seed_pairs(load("s27"))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n_flops=st.integers(1, 6))
    def test_multi_seed_cone_is_union_of_single_seed_cones(self, seed,
                                                           n_flops):
        circuit = random_sequential(4, 30, n_flops, 3, seed=seed)
        self._check_seed_pairs(circuit)
        seeds = list(circuit.flops) + [f.d for f in circuit.flops.values()]
        assert fanout_cone(circuit, seeds) == set().union(
            *(fanout_cone(circuit, [net]) for net in seeds))

    def test_observable_outputs(self):
        c = load("c17")
        outs = observable_outputs(c, "N11")
        assert outs  # N11 reaches both outputs through N16/N19

    def test_cone_of_influence_slices(self):
        c = load("rca8")
        sliced = cone_of_influence(c, ["s0"])
        # s0 depends only on a0, b0, cin
        assert set(sliced.inputs) == {"a0", "b0", "cin"}
        assert len(sliced.gates) < len(c.gates)
        sliced.validate()

    def test_coi_preserves_function(self):
        c = load("rca8")
        sliced = cone_of_influence(c, ["s3"])
        packed, n = exhaustive_patterns(sliced.inputs)
        full_packed = dict(packed)
        for pi in c.inputs:
            full_packed.setdefault(pi, 0)
        assert (simulate(sliced, packed, n)["s3"]
                == simulate(c, full_packed, n)["s3"])


class TestScoap:
    def test_pi_controllability(self):
        sc = compute_scoap(load("c17"))
        for pi in ("N1", "N2", "N3", "N6", "N7"):
            assert sc[pi].cc0 == 1.0 and sc[pi].cc1 == 1.0

    def test_po_observability_zero(self):
        sc = compute_scoap(load("c17"))
        assert sc["N22"].co == 0.0
        assert sc["N23"].co == 0.0

    def test_constant_gate_uncontrollable(self):
        bld = CircuitBuilder("k")
        a = bld.input("a")
        k = bld.const0()
        bld.output(bld.and_(a, k, name="y"))
        sc = compute_scoap(bld.done())
        assert sc[k].cc1 == float("inf")

    def test_hard_to_test_nets_subset(self):
        c = load("mul4")
        hard = hard_to_test_nets(c, percentile=0.9)
        assert 0 < len(hard) < len(c.nets)


class TestVerilogRoundtrip:
    @pytest.mark.parametrize("name", ["c17", "s27", "rca8", "dec4", "cnt8"])
    def test_roundtrip_structure(self, name):
        c = load(name)
        c2 = parse_verilog(emit_verilog(c))
        assert c2.stats() == c.stats()
        assert c2.inputs == c.inputs
        assert c2.outputs == c.outputs

    def test_roundtrip_function(self):
        c = load("c17")
        c2 = parse_verilog(emit_verilog(c))
        packed, n = exhaustive_patterns(c.inputs)
        v1 = simulate(c, packed, n)
        v2 = simulate(c2, packed, n)
        for po in c.outputs:
            assert v1[po] == v2[po]

    def test_parse_rejects_garbage(self):
        from repro.circuit import VerilogParseError
        with pytest.raises(VerilogParseError):
            parse_verilog("module m (input a); always @* x = a; endmodule")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_circuit_verilog_roundtrip_function(seed):
    """Property: any generated circuit survives a Verilog round trip."""
    c = random_combinational(6, 20, 3, seed=seed)
    c2 = parse_verilog(emit_verilog(c))
    packed, n = exhaustive_patterns(c.inputs)
    v1 = simulate(c, packed, n)
    v2 = simulate(c2, packed, n)
    assert all(v1[po] == v2[po] for po in c.outputs)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_levels_bound_depth(seed):
    """Property: every net level is within [0, depth]."""
    c = random_combinational(8, 40, 4, seed=seed)
    lvl = levels(c)
    d = depth(c)
    assert all(0 <= v <= d for v in lvl.values())
