"""Tests for the compiled simulation core (`repro.sim.compiled`).

The contract under test: the one compiled program per circuit — the
fused sequential step, whose int kernel is tested here (its SoA kernel
in ``tests/test_soa.py``) — is byte-identical to the reference
interpreter at any pattern width, is rebuilt by every process worker
from the circuit it unpickles, and is invalidated by circuit mutation
exactly like the structural caches.
``logic.simulate`` has no compiled form: it is the reference the step
programs are held to.  Whole campaigns on the compiled tier are held to
the interpreter by ``tests/test_oracle.py``; the ones here pin named
configurations of it.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import needs_compiled
from repro.circuit import load
from repro.circuit.library import random_combinational, random_sequential
from repro.engine import (
    EngineConfig,
    PpsfpBackend,
    SafetyBackend,
    SeuBackend,
    SlicingBackend,
    run_campaign,
)
from repro.faults import collapse
from repro.sim import compiled, vector
from repro.sim.fault_sim import sequential_fault_simulate
from repro.sim.logic import (
    GATE_EVAL_3V,
    X,
    eval_gate_3v,
    random_patterns,
    simulate,
)
from repro.sim.sequential import SequentialSim
from repro.soft_error import random_workload
from test_oracle import Config, check

WIDTHS = (1, 7, 64)


def _random_circuit(seed: int, sequential: bool):
    if sequential:
        return random_sequential(n_inputs=5, n_gates=40, n_flops=6,
                                 n_outputs=4, seed=seed)
    return random_combinational(n_inputs=6, n_gates=50, n_outputs=4,
                                seed=seed)


def _step_reference(circuit, pis, width, state):
    """One clock on the interpreter: ``simulate``, then capture."""
    values = simulate(circuit, pis, width, state)
    return ({po: values[po] for po in circuit.outputs},
            {q: values[f.d] for q, f in circuit.flops.items()})


# ----------------------------------------------------------------------
# property: the step program == one interpreted evaluation + capture
# ----------------------------------------------------------------------
class TestSimulateEquivalence:
    @needs_compiled
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), sequential=st.booleans(),
           width=st.sampled_from(WIDTHS), with_state=st.booleans())
    def test_simulate_matches_interpreter(self, seed, sequential, width,
                                          with_state):
        # combinational circuits (a step with no flops) and arbitrary
        # entering states, not only states a run from reset reaches
        circuit = _random_circuit(seed, sequential)
        pis = random_patterns(circuit.inputs, width, seed=seed + 1)
        state = (random_patterns(circuit.flops, width, seed=seed + 2)
                 if with_state else {})
        program = compiled.step_program(circuit)
        fast = program.run(pis, state, (1 << width) - 1)
        assert fast == _step_reference(circuit, pis, width, state)

    @needs_compiled
    def test_library_circuits_match(self):
        for name in ("c17", "s27", "rand200", "alu8", "mul6", "rand_seq"):
            circuit = load(name)
            for width in WIDTHS:
                pis = random_patterns(circuit.inputs, width, seed=3)
                state = random_patterns(circuit.flops, width, seed=4)
                program = compiled.step_program(circuit)
                assert program.run(pis, state, (1 << width) - 1) \
                    == _step_reference(circuit, pis, width, state), name

    @needs_compiled
    def test_constant_and_buffer_folding(self):
        from repro.circuit.netlist import Circuit

        circuit = Circuit("folds")
        circuit.add_input("a")
        circuit.add_gate("one", "CONST1", [])
        circuit.add_gate("zero", "CONST0", [])
        circuit.add_gate("b", "BUF", ["a"])
        circuit.add_gate("n", "NOT", ["one"])
        circuit.add_gate("x", "AND", ["b", "one"])
        circuit.add_gate("y", "OR", ["zero", "x"])
        circuit.add_flop("q", "y")
        circuit.add_output("y")
        circuit.add_output("n")
        program = compiled.step_program(circuit)
        # CONST0 / CONST1 / BUF become atoms of their consumers: only
        # the NOT, AND and OR are assigned
        assigned = [line for line in program.source.splitlines()
                    if line.lstrip().startswith("v") and " = " in line]
        assert len(assigned) == 3, program.source
        for width in WIDTHS:
            pis = {"a": random_patterns(["a"], width, seed=9)["a"]}
            assert program.run(pis, {}, (1 << width) - 1) \
                == _step_reference(circuit, pis, width, {})

    @needs_compiled
    def test_env_kill_switch(self):
        circuit = load("s27")
        assert compiled.step_program(circuit) is not None
        with compiled.disabled():
            assert not compiled.compilation_enabled()
            assert compiled.step_program(circuit) is None
        assert compiled.compilation_enabled()


# ----------------------------------------------------------------------
# sequential fault simulation against a reference that takes its golden
# trace from the compiled step and simulates every faulty machine afresh
# ----------------------------------------------------------------------
def _faulty_trace(circuit, fault, stimuli):
    """PO trace of one faulty machine, every cycle simulated afresh."""
    from repro.sim.fault_sim import faulty_values

    state = {q: (1 if f.init else 0) for q, f in circuit.flops.items()}
    trace = []
    for stim in stimuli:
        values = faulty_values(circuit, fault,
                               simulate(circuit, stim, 1, state), 1)
        trace.append(tuple(values.get(po, 0) for po in circuit.outputs))
        state = {q: values[f.d] for q, f in circuit.flops.items()}
        if not fault.line.is_stem and fault.line.sink in circuit.flops:
            q = fault.line.sink
            state[q] = values.get(f"__flopD__{q}", state[q])
    return trace


class TestFaultSimEquivalence:
    def test_sequential_fault_simulation_identical(self):
        # sequential_fault_simulate reuses the golden values while a
        # faulty machine's state equals the golden state; the reference
        # re-simulates every machine every cycle and takes its golden
        # trace from the compiled step
        for name in ("s27", "rand_seq"):
            circuit = load(name)
            faults, _ = collapse(circuit)
            stimuli = random_workload(circuit, 30, seed=2)
            golden = [tuple(out[po] for po in circuit.outputs)
                      for out in SequentialSim(circuit, 1).run(stimuli)]
            result = sequential_fault_simulate(circuit, faults, stimuli)
            assert result.detected and result.undetected  # not vacuous
            for fault in faults:
                bad = _faulty_trace(circuit, fault, stimuli)
                det = sum(1 << cyc
                          for cyc, (g, b) in enumerate(zip(golden, bad))
                          if g != b)
                assert result.detected.get(fault, 0) == det, (name, fault)
                assert (fault in result.undetected) == (det == 0)
            assert len(result.detected) + len(result.undetected) \
                == len(faults)


# ----------------------------------------------------------------------
# property: fused step == evaluate-then-capture, flip hook preserved
# ----------------------------------------------------------------------
class TestStepEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), width=st.sampled_from(WIDTHS))
    def test_step_matches_interpreter(self, seed, width):
        circuit = _random_circuit(seed, sequential=True)
        stimuli = [random_patterns(circuit.inputs, width, seed=seed + c)
                   for c in range(8)]
        fast = SequentialSim(circuit, width)
        ref = SequentialSim(circuit, width)
        flop = next(iter(circuit.flops))
        for cyc, stim in enumerate(stimuli):
            if cyc == 2:
                fast.flip_state(flop, 0b11)
                ref.flip_state(flop, 0b11)
            with compiled.disabled():
                expected = ref.step(stim)
            assert fast.step(stim) == expected
            assert fast.state == ref.state
            assert fast.cycle == ref.cycle

    def test_partial_state_falls_back_to_flop_init(self):
        # the interpreter's simulate() defaults a missing flop to its
        # init value; the fused step must not diverge (or KeyError)
        circuit = _random_circuit(77, sequential=True)
        stim = random_patterns(circuit.inputs, 4, seed=1)
        fast = SequentialSim(circuit, 4)
        ref = SequentialSim(circuit, 4)
        dropped = next(iter(circuit.flops))
        del fast.state[dropped]
        del ref.state[dropped]
        with compiled.disabled():
            expected = ref.step(stim)
        assert fast.step(stim) == expected
        assert fast.state == ref.state

    @needs_compiled
    def test_dead_logic_is_pruned_but_observables_match(self):
        from repro.circuit.netlist import Circuit

        circuit = Circuit("deadwood")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("live", "AND", ["a", "b"])
        circuit.add_gate("dead", "XOR", ["a", "b"])  # feeds nothing
        circuit.add_flop("q", "live")
        circuit.add_output("q")
        program = compiled.step_program(circuit)
        assert "^" not in program.source  # dead XOR pruned
        sim = SequentialSim(circuit, 4)
        ref = SequentialSim(circuit, 4)
        stim = {"a": 0b1010, "b": 0b0110}
        with compiled.disabled():
            expected = ref.step(stim)
        assert sim.step(stim) == expected
        assert sim.state == ref.state


# ----------------------------------------------------------------------
# invalidation: mutation recompiles alongside the structural caches
# ----------------------------------------------------------------------
@needs_compiled
class TestInvalidation:
    def test_mutation_invalidates_programs(self):
        circuit = random_combinational(6, 30, seed=4)
        pis = random_patterns(circuit.inputs, 8, seed=1)
        before = SequentialSim(circuit, 8).step(pis)
        assert "step" in circuit._program_cache  # built and cached
        new_out = circuit.add_gate("mut_new", "NAND",
                                   [circuit.inputs[0], circuit.inputs[1]])
        circuit.add_output("mut_new")
        assert not circuit._program_cache  # invalidated with topo/cones
        after = SequentialSim(circuit, 8).step(pis)
        with compiled.disabled():
            assert after == SequentialSim(circuit, 8).step(pis)
        assert "mut_new" in after and "mut_new" not in before
        assert new_out.output == "mut_new"


# ----------------------------------------------------------------------
# one program per circuit: fault simulation compiles nothing, and every
# lane width and carrier shares the one step program
# ----------------------------------------------------------------------
@needs_compiled
def test_stuck_at_campaigns_cache_only_per_circuit_programs():
    circuit = load("rand_seq")
    faults = collapse(circuit)[0][:40]
    pis = random_patterns(circuit.inputs, 16, seed=1)
    workload = random_workload(circuit, 8, seed=2)
    outputs = list(circuit.outputs)
    config = EngineConfig(batch_size=16, executor="serial")
    run_campaign(PpsfpBackend(circuit, faults, [(pis, 16)] * 3), config)
    run_campaign(SafetyBackend(circuit, faults, outputs[:1], outputs[1:],
                               pis, 16), config)
    run_campaign(SlicingBackend(circuit, faults, workload), config)
    sequential_fault_simulate(circuit, faults, workload)
    program = circuit._program_cache["step"]
    backings = ("int", "soa") if vector.HAVE_NUMPY else ("int",)
    for width in (1, 64, 192, 1024):
        for backing in backings:
            run_campaign(SeuBackend(circuit, workload, lane_width=width,
                                    lane_backing=backing), config)
            run_campaign(SlicingBackend(circuit, faults[:8], workload,
                                        lane_width=width,
                                        lane_backing=backing), config)
    assert set(circuit._program_cache) == {"step"}
    assert circuit._program_cache["step"] is program


# ----------------------------------------------------------------------
# pickling: programs never travel, workers rebuild them
# ----------------------------------------------------------------------
class TestPickling:
    @needs_compiled
    def test_circuit_pickle_drops_program_cache(self):
        circuit = load("rand_seq")
        SequentialSim(circuit, 4).step(
            random_patterns(circuit.inputs, 4, seed=1))
        assert circuit._program_cache
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._program_cache == {}
        stimuli = random_workload(circuit, 6, seed=3)
        assert SequentialSim(clone, 1).run(stimuli) \
            == SequentialSim(circuit, 1).run(stimuli)

    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_compiled_backends_under_process_executor(self, executor):
        check(Config(lane_width=64, long=True, executor=executor))

    def test_ppsfp_backend_process_identity(self):
        check(Config(backend="ppsfp", batch_size=32, executor="process"))


# ----------------------------------------------------------------------
# engine lanes on the compiled step path
# ----------------------------------------------------------------------
class TestLanesCompiled:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_packed_seu_campaign_identical(self, width):
        check(Config(lane_width=width, batch_size=64, long=True))


# ----------------------------------------------------------------------
# uint64 block array -> packed int
# ----------------------------------------------------------------------
VECTOR_WIDTHS = (1, 64, 65, 192, 1000)

needs_numpy = pytest.mark.skipif(not vector.HAVE_NUMPY,
                                 reason="numpy not installed")


@needs_numpy
class TestVectorPrograms:
    def test_block_conversions_roundtrip(self):
        np = vector.np
        for width in VECTOR_WIDTHS:
            blocks = vector.blocks_for(width)
            full = (1 << width) - 1
            for value in (0, 1, full, full >> 1, 0x5 << max(0, width - 4)):
                value &= full
                arr = np.array([(value >> (64 * i)) & (2**64 - 1)
                                for i in range(blocks)], dtype=np.uint64)
                assert vector.from_blocks(arr) == value


# ----------------------------------------------------------------------
# three-valued dispatch table (PODEM's inner loop)
# ----------------------------------------------------------------------
class TestThreeValuedDispatch:
    def _reference(self, gate, values):
        """The pre-dispatch if/elif semantics, restated."""
        from repro.circuit.netlist import GateType

        def and3(ins):
            if any(v == 0 for v in ins):
                return 0
            if all(v == 1 for v in ins):
                return 1
            return X

        def or3(ins):
            if any(v == 1 for v in ins):
                return 1
            if all(v == 0 for v in ins):
                return 0
            return X

        def xor3(ins):
            if any(v is X for v in ins):
                return X
            return sum(ins) & 1

        def not3(v):
            return X if v is X else 1 - v

        gtype = gate.gtype
        if gtype is GateType.CONST0:
            return 0
        if gtype is GateType.CONST1:
            return 1
        ins = [values.get(i, X) for i in gate.inputs]
        if gtype is GateType.BUF:
            return ins[0]
        if gtype is GateType.NOT:
            return not3(ins[0])
        if gtype is GateType.AND:
            return and3(ins)
        if gtype is GateType.NAND:
            return not3(and3(ins))
        if gtype is GateType.OR:
            return or3(ins)
        if gtype is GateType.NOR:
            return not3(or3(ins))
        if gtype is GateType.XOR:
            return xor3(ins)
        return not3(xor3(ins))

    def test_table_covers_every_gate_type(self):
        from repro.circuit.netlist import GateType

        assert set(GATE_EVAL_3V) == set(GateType)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dispatch_matches_reference(self, data):
        import itertools

        from repro.circuit.netlist import Gate, GateType

        gtype = data.draw(st.sampled_from(list(GateType)))
        if gtype in (GateType.CONST0, GateType.CONST1):
            arity = 0
        elif gtype in (GateType.NOT, GateType.BUF):
            arity = 1
        else:
            arity = data.draw(st.integers(2, 4))
        names = [f"i{k}" for k in range(arity)]
        gate = Gate("out", gtype, tuple(names))
        for combo in itertools.product((0, 1, X, "absent"), repeat=arity):
            values = {n: v for n, v in zip(names, combo) if v != "absent"}
            assert eval_gate_3v(gate, values) \
                == self._reference(gate, values), (gtype, combo)

    def test_simulate_3v_uses_table(self):
        from repro.sim.logic import simulate_3v

        circuit = load("c17")
        for assignment in ({}, {"n1": 1}, {"n1": 0, "n2": 1, "n3": X}):
            values = simulate_3v(circuit, assignment)
            for gate in circuit.topo_order():
                assert values[gate.output] == eval_gate_3v(gate, values)
