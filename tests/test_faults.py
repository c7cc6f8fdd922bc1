"""Tests for fault models, universes, collapsing and sampling."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder, load
from repro.circuit.library import (
    BENCHMARKS,
    random_combinational,
    random_sequential,
)
from repro.circuit.netlist import Circuit, GateType
from repro.faults import (
    DelayFault,
    DelayFaultKind,
    Line,
    SETFault,
    SEUFault,
    StuckAtFault,
    all_stuck_at,
    collapse,
    draw_sample,
    lines_of,
    sample_size,
    stratified_sample,
)
from repro.sim.fault_sim import detection_mask
from repro.sim.logic import exhaustive_patterns, simulate


class TestModels:
    def test_stuck_at_value_validated(self):
        with pytest.raises(ValueError):
            StuckAtFault(Line("n"), 2)

    def test_line_describe(self):
        assert Line("n").describe() == "n"
        assert Line("n", "g", 1).describe() == "n->g.1"
        assert StuckAtFault(Line("n"), 1).describe() == "n s-a-1"

    def test_ordering_stable(self):
        faults = [StuckAtFault(Line("b"), 0), StuckAtFault(Line("a"), 1),
                  StuckAtFault(Line("a", "g", 0), 0)]
        ordered = sorted(faults)
        assert ordered[0].line.net == "a"

    def test_hash_is_cached_with_the_generated_value(self):
        line = Line("n", "g", 1)
        fault = StuckAtFault(line, 1)
        # the values the dataclass-generated hashes gave: set and dict
        # iteration orders do not move
        assert hash(line) == hash(("n", "g", 1))
        assert hash(fault) == hash((line, 1))
        assert hash(fault) == hash(fault) and fault._hash is not None
        twin = StuckAtFault(Line("n", "g", 1), 1)
        assert twin == fault and hash(twin) == hash(fault)
        assert {fault: 1}[twin] == 1
        # the cache is no field of equality, order or repr
        assert StuckAtFault(Line("n", "g", 1), 1) == fault
        assert not fault < twin and not twin < fault
        assert "_hash" not in repr(fault)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fault.value = 0  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            line.net = "m"  # type: ignore[misc]
        other = StuckAtFault(Line("b"), 0)
        assert Line("n") < Line("n", "g", 0)
        assert sorted([fault, other]) == [other, fault]

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickled_fault_carries_no_hash(self, protocol):
        # a string's hash differs per process: the receiver rehashes
        fault = StuckAtFault(Line("n", "g", 1), 0)
        cached = hash(fault)
        blob = pickle.dumps(fault, protocol)
        assert str(cached).encode() not in blob
        assert cached.to_bytes(8, "little", signed=True) not in blob
        back = pickle.loads(blob)
        assert back._hash is None
        assert back == fault and hash(back) == cached
        assert copy.deepcopy(fault) == fault

    def test_other_fault_kinds(self):
        assert "SEU" in SEUFault("q1", 5).describe()
        assert "SET" in SETFault("n1", 2.0, 0.5).describe()
        assert "STR" in DelayFault("n1", DelayFaultKind.SLOW_TO_RISE).describe()


class TestUniverse:
    def test_c17_universe_size(self):
        c17 = load("c17")
        faults = all_stuck_at(c17)
        # 11 stems (5 PI + 6 gates) + branches at fanout stems
        sites = lines_of(c17)
        assert len(faults) == 2 * len(sites)
        branch_sites = [s for s in sites if not s.is_stem]
        assert branch_sites  # N3, N11, N16 all have fanout > 1

    def test_branches_only_on_fanout(self):
        c17 = load("c17")
        fmap = c17.fanout_map()
        for site in lines_of(c17):
            if not site.is_stem:
                assert len(fmap[site.net]) > 1

    def test_collapse_classes_partition_universe(self):
        c17 = load("c17")
        universe = set(all_stuck_at(c17))
        reps, classes = collapse(c17)
        members = [f for group in classes.values() for f in group]
        assert set(members) == universe
        assert len(members) == len(universe)  # no duplicates
        assert set(reps) == set(classes)

    def test_c17_collapse_ratio_textbook(self):
        # the classic figure for c17: 22 collapsed of 34 faults
        reps, classes = collapse(load("c17"))
        assert len(reps) == 22
        assert sum(len(group) for group in classes.values()) == 34

    def test_inverter_chain_collapses_fully(self):
        bld = CircuitBuilder("chain")
        net = bld.input("a")
        for _ in range(4):
            net = bld.not_(net)
        bld.output(net)
        c = bld.done()
        reps, _classes = collapse(c)
        # a pure inverter chain has exactly 2 equivalence classes
        assert len(reps) == 2


class TestSampling:
    def test_sample_size_bounds(self):
        n = sample_size(10_000, margin=0.01, confidence=0.95)
        assert 4000 < n < 5000  # classic ~4899 for 1%@95%
        assert sample_size(100, margin=0.01) == 100 or \
            sample_size(100, margin=0.01) < 100

    def test_sample_size_monotone_in_margin(self):
        n_tight = sample_size(100_000, margin=0.01)
        n_loose = sample_size(100_000, margin=0.05)
        assert n_tight > n_loose

    def test_sample_size_validates(self):
        with pytest.raises(ValueError):
            sample_size(100, margin=0.0)
        with pytest.raises(ValueError):
            sample_size(100, confidence=1.5)
        assert sample_size(0) == 0

    def test_draw_sample_deterministic(self):
        pop = list(range(100))
        assert draw_sample(pop, 10, seed=3) == draw_sample(pop, 10, seed=3)
        assert draw_sample(pop, 200, seed=3) == pop

    def test_stratified_sample_allocates_proportionally(self):
        groups = {"big": list(range(90)), "small": list(range(10))}
        alloc = stratified_sample(groups, 20, seed=1)
        assert len(alloc["big"]) > len(alloc["small"])
        assert len(alloc["small"]) >= 1
        assert len(alloc["big"]) + len(alloc["small"]) == 20

    def test_stratified_sample_empty_group(self):
        alloc = stratified_sample({"a": [1, 2, 3], "b": []}, 2, seed=0)
        assert alloc["b"] == []


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_collapse_is_partition(seed):
    """Property: collapsing any circuit yields a partition of the universe."""
    c = random_combinational(5, 20, 3, seed=seed)
    universe = all_stuck_at(c)
    reps, classes = collapse(c)
    members = [f for group in classes.values() for f in group]
    assert len(members) == len(universe)
    assert set(members) == set(universe)
    assert len(reps) <= len(universe)
    for rep, group in classes.items():
        assert rep in group


@settings(max_examples=15, deadline=None)
@given(population=st.integers(1, 10**7),
       margin=st.floats(0.005, 0.2),
       confidence=st.sampled_from([0.9, 0.95, 0.99]))
def test_sample_size_never_exceeds_population(population, margin, confidence):
    n = sample_size(population, margin, confidence)
    assert 0 < n <= population


# ----------------------------------------------------------------------
# collapse against the union-find over fault objects it replaced
# ----------------------------------------------------------------------

def _fanout(circuit: Circuit, net: str) -> int:
    """A net's consumers, a primary output counting as one."""
    return len(circuit.fanout_map().get(net, ())) + (net in circuit.outputs)


def _reference_lines_of(circuit: Circuit) -> list[Line]:
    """All fault sites: stems for every net, branches for fanout > 1."""
    sites: list[Line] = [Line(net) for net in circuit.nets]
    for gate in circuit.gates.values():
        for pin, src in enumerate(gate.inputs):
            if _fanout(circuit, src) > 1:
                sites.append(Line(src, gate.output, pin))
    for q, flop in circuit.flops.items():
        if _fanout(circuit, flop.d) > 1:
            sites.append(Line(flop.d, q, 0))
    return sites


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[StuckAtFault, StuckAtFault] = {}

    def find(self, item: StuckAtFault) -> StuckAtFault:
        parent = self.parent.setdefault(item, item)
        if parent is item:
            return item
        root = self.find(parent)
        self.parent[item] = root
        return root

    def union(self, a: StuckAtFault, b: StuckAtFault) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic representative: the smaller by ordering
            lo, hi = sorted((ra, rb))
            self.parent[hi] = lo


def _input_line(circuit: Circuit, gate_out: str, pin: int, src: str) -> Line:
    """Line of a gate input: the branch if the source has fanout, else the stem."""
    if _fanout(circuit, src) > 1:
        return Line(src, gate_out, pin)
    return Line(src)


def _reference_collapse(circuit: Circuit) -> tuple[list[StuckAtFault], dict[StuckAtFault, list[StuckAtFault]]]:
    """The union-find ``collapse`` replaced, kept as the identity
    reference, with the one change ``_sites`` made since: a primary
    output counts as a consumer of its net (:func:`_fanout`), so a pin
    reading an output is a branch and no rule merges the output's stem
    into the gate."""
    universe = all_stuck_at(circuit)
    uf = _UnionFind()
    for fault in universe:
        uf.find(fault)

    for gate in circuit.gates.values():
        out_stem = Line(gate.output)
        for pin, src in enumerate(gate.inputs):
            in_line = _input_line(circuit, gate.output, pin, src)
            if gate.gtype is GateType.AND:
                uf.union(StuckAtFault(in_line, 0), StuckAtFault(out_stem, 0))
            elif gate.gtype is GateType.NAND:
                uf.union(StuckAtFault(in_line, 0), StuckAtFault(out_stem, 1))
            elif gate.gtype is GateType.OR:
                uf.union(StuckAtFault(in_line, 1), StuckAtFault(out_stem, 1))
            elif gate.gtype is GateType.NOR:
                uf.union(StuckAtFault(in_line, 1), StuckAtFault(out_stem, 0))
            elif gate.gtype is GateType.BUF:
                uf.union(StuckAtFault(in_line, 0), StuckAtFault(out_stem, 0))
                uf.union(StuckAtFault(in_line, 1), StuckAtFault(out_stem, 1))
            elif gate.gtype is GateType.NOT:
                uf.union(StuckAtFault(in_line, 0), StuckAtFault(out_stem, 1))
                uf.union(StuckAtFault(in_line, 1), StuckAtFault(out_stem, 0))
            # XOR/XNOR/CONST have no local stuck-at equivalences

    classes: dict[StuckAtFault, list[StuckAtFault]] = {}
    for fault in universe:
        classes.setdefault(uf.find(fault), []).append(fault)
    reps = sorted(classes)
    for members in classes.values():
        members.sort()
    return reps, classes


def _assert_matches_reference(circuit: Circuit) -> None:
    assert lines_of(circuit) == _reference_lines_of(circuit)
    reps, classes = collapse(circuit)
    ref_reps, ref_classes = _reference_collapse(circuit)
    assert reps == ref_reps
    assert list(classes) == list(ref_classes)  # dict order too
    for rep, members in ref_classes.items():
        assert classes[rep] == members


class TestCollapseIdentity:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_every_benchmark_circuit(self, name):
        _assert_matches_reference(load(name))

    @settings(max_examples=30, deadline=None)
    @given(n_in=st.integers(2, 8), n_gates=st.integers(1, 60),
           n_out=st.integers(1, 4), seed=st.integers(0, 10_000))
    def test_random_combinational(self, n_in, n_gates, n_out, seed):
        _assert_matches_reference(
            random_combinational(n_in, n_gates, n_out, seed=seed))

    @settings(max_examples=30, deadline=None)
    @given(n_in=st.integers(2, 6), n_gates=st.integers(2, 60),
           n_flops=st.integers(1, 8), seed=st.integers(0, 10_000))
    def test_random_sequential(self, n_in, n_gates, n_flops, seed):
        # flops read gate outputs that also feed gates: flop-D branches
        _assert_matches_reference(
            random_sequential(n_in, n_gates, n_flops, 3, seed=seed))

    def test_repeated_gate_input(self):
        bld = CircuitBuilder("repeat")
        a, b = bld.input("a"), bld.input("b")
        bld.output(bld.and_(a, a, name="y"))
        bld.output(bld.nand(b, b, a, name="z"))
        c = bld.done()
        # a pin read twice fans out: each pin is its own branch
        assert Line("a", "y", 1) in lines_of(c)
        _assert_matches_reference(c)

    def test_buf_not_chains(self):
        bld = CircuitBuilder("chains")
        net = bld.input("a")
        for k in range(6):
            net = (bld.buf if k % 3 else bld.not_)(net, name=f"c{k}")
        side = bld.buf(bld.not_(net, name="d0"), name="d1")
        bld.output(bld.and_(net, side, name="y"))
        _assert_matches_reference(bld.done())

    def test_xor_xnor_const_gates_take_no_rule(self):
        bld = CircuitBuilder("linear")
        a, b = bld.input("a"), bld.input("b")
        one = bld.gate(GateType.CONST1, name="k1")
        zero = bld.const0(name="k0")
        x = bld.xor(a, b, name="x")
        bld.output(bld.xnor(x, one, name="y"))
        bld.output(bld.or_(zero, b, name="z"))
        c = bld.done()
        _assert_matches_reference(c)
        _reps, classes = collapse(c)
        for net in ("x", "y", "k1"):
            for value in (0, 1):
                fault = StuckAtFault(Line(net), value)
                assert classes[fault] == [fault]
        # a constant is an OR input like any other: k0 s-a-1 = z s-a-1
        assert classes[StuckAtFault(Line("b", "z", 1), 1)] == [
            StuckAtFault(Line("b", "z", 1), 1), StuckAtFault(Line("k0"), 1),
            StuckAtFault(Line("z"), 1)]

    def test_twenty_thousand_inverter_chain(self):
        # each output sorts below its input, so every union re-roots the
        # class and the reference's recursive find ran out of stack
        bld = CircuitBuilder("chain")
        net = bld.input("z")
        for k in range(20_000):
            net = bld.not_(net, name=f"n{20_000 - k:05d}")
        bld.output(net)
        c = bld.done()
        reps, classes = collapse(c)
        last = Line("n00001")
        assert reps == [StuckAtFault(last, 0), StuckAtFault(last, 1)]
        assert list(classes) == reps  # z s-a-0 comes first: even depth
        for rep, group in classes.items():
            assert len(group) == 20_001
            assert all(a < b for a, b in zip(group, group[1:]))
            # nK sits 20 001 - K inverters deep: odd K keeps z's polarity
            assert all((f.value == rep.value)
                       == (f.line.net == "z" or int(f.line.net[1:]) % 2 == 1)
                       for f in group)


def _exhaustive_masks(circuit: Circuit) -> dict[StuckAtFault, int]:
    """Each fault's detection mask at the outputs over all 2^n inputs."""
    packed, n = exhaustive_patterns(circuit.inputs)
    good = simulate(circuit, packed, n)
    mask = (1 << n) - 1
    return {fault: detection_mask(circuit, fault, good, mask, circuit.outputs)
            for fault in all_stuck_at(circuit)}


@st.composite
def _outputs_that_feed_gates(draw) -> Circuit:
    """A small combinational circuit whose outputs include nets that
    gates also read: primary inputs and gate outputs alike."""
    bld = CircuitBuilder("po_feeds")
    nets = [bld.input(f"i{k}") for k in range(draw(st.integers(1, 4)))]
    read: list[str] = []
    for k in range(draw(st.integers(1, 7))):
        gtype = draw(st.sampled_from(list(GateType)))
        arity = (0 if gtype in (GateType.CONST0, GateType.CONST1)
                 else 1 if gtype in (GateType.NOT, GateType.BUF)
                 else draw(st.integers(2, 3)))
        ins = [draw(st.sampled_from(nets)) for _ in range(arity)]
        read.extend(ins)
        nets.append(bld.gate(gtype, *ins, name=f"g{k}"))
    outputs = {nets[-1]} | draw(st.sets(st.sampled_from(nets), max_size=3))
    if read:
        outputs.add(draw(st.sampled_from(read)))
    for net in nets:
        if net in outputs:
            bld.output(net)
    return bld.done()


def _output_feeding_one_gate() -> Circuit:
    """``y = AND(a, x)`` with ``a`` a primary output as well."""
    bld = CircuitBuilder("po_feeds")
    a, x = bld.input("a"), bld.input("x")
    bld.output(a)
    bld.output(bld.and_(a, x, name="y"))
    return bld.done()


class TestCollapseSoundness:
    def test_output_stem_feeding_one_gate_keeps_its_own_class(self):
        # a is an output and feeds y alone: a s-a-0 shows at a on every
        # pattern with a = 1, y s-a-0 only when x = 1 as well
        c = _output_feeding_one_gate()
        masks = _exhaustive_masks(c)
        a0, y0 = StuckAtFault(Line("a"), 0), StuckAtFault(Line("y"), 0)
        assert masks[a0] != masks[y0]
        _reps, classes = collapse(c)
        assert classes[a0] == [a0]
        # the AND rule holds for both pins: the one reading the output a
        # is a branch of a (its class's smallest fault), the other x
        pin0 = StuckAtFault(Line("a", "y", 0), 0)
        assert classes[pin0] == [pin0, StuckAtFault(Line("x"), 0), y0]

    def test_output_feeding_one_gate_has_a_branch(self):
        # the output counts as a consumer of a: the pin of y that reads
        # it is a branch, stuck while the output still reads a good a
        c = _output_feeding_one_gate()
        branch = Line("a", "y", 0)
        assert branch in lines_of(c)
        masks = _exhaustive_masks(c)
        a0, pin0 = StuckAtFault(Line("a"), 0), StuckAtFault(branch, 0)
        assert masks[pin0] != masks[a0]
        _assert_matches_reference(c)

    def test_output_feeding_one_flop_has_a_branch(self):
        bld = CircuitBuilder("po_flop")
        a = bld.input("a")
        y = bld.not_(a, name="y")
        bld.output(y)
        bld.output(bld.flop(y, name="q"))
        c = bld.done()
        assert Line("y", "q", 0) in lines_of(c)
        _assert_matches_reference(c)

    @settings(max_examples=60, deadline=None)
    @given(circuit=_outputs_that_feed_gates())
    @example(circuit=_output_feeding_one_gate())
    def test_every_class_is_detected_alike(self, circuit):
        masks = _exhaustive_masks(circuit)
        _reps, classes = collapse(circuit)
        for rep, members in classes.items():
            assert {masks[fault] for fault in members} == {masks[rep]}, (
                rep.describe(), [fault.describe() for fault in members])
