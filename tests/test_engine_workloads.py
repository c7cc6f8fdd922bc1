"""Tests for the full-port of RSN / security / GPGPU / slicing workloads
onto the campaign engine, and for the engine's point-filter stage.

Covers: filtered outcomes as first-class rows in CampaignDb, the
early-stop interaction with pre-skipped points, serial-vs-process
executor parity for every new backend, facades reproducing their
pre-port serial loops exactly, and the lossless dead-flop filter on
``SeuBackend``.
"""

import random
from functools import partial

import pytest

from repro.circuit import CircuitBuilder, load
from repro.core import CampaignDb
from repro.crypto import AesConstantTime, AesLeaky
from repro.engine import (
    SKIP_DEAD_FLOP,
    SKIP_NO_ACTIVATION,
    SKIP_NO_PATH,
    EarlyStop,
    EngineConfig,
    GpgpuSeuBackend,
    Injection,
    LaserFiBackend,
    PpsfpBackend,
    RsnDiagnosisBackend,
    SafetyBackend,
    ScaTraceBackend,
    SeuBackend,
    SlicingBackend,
    run_campaign,
)
from repro.faults import collapse
from repro.gpgpu import (
    PipeRegFault,
    seu_campaign_on_kernel,
    vector_add_kernel,
)
from repro.gpgpu.apps import _run as run_simt_kernel
from repro.rsn import (
    all_rsn_faults,
    apply_test,
    build_signature_table,
    compact_test,
    coverage,
    sib_tree,
    signature_campaign,
)
from repro.safety import (
    run_naive_campaign,
    run_safety_campaign,
    run_sliced_campaign,
    verify_equivalence,
)
from repro.security import (
    Floorplan,
    MIN_SPOT_UM,
    LaserShot,
    attack_campaign,
    collect_traces,
    fire,
    sensitivity_map,
    targeted_attack,
    trace_campaign,
    tvla,
    tvla_campaign,
)
from repro.soft_error import random_workload
from repro.soft_error.seu import inject_seu
from repro.soft_error.seu import run_campaign as run_seu_campaign

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

TREE = partial(sib_tree, depth=2, regs_per_leaf=1, reg_bits=4)


def _rows(report):
    return [(i.location, i.cycle, i.outcome) for i in report.injections]


def _db_rows(db):
    return [row[2:] for row in db.rows()]


# ----------------------------------------------------------------------
# backend factories for the parity sweep
# ----------------------------------------------------------------------
def _rsn_backend():
    return RsnDiagnosisBackend(TREE, all_rsn_faults(TREE()),
                               compact_test(TREE))


def _laser_backend():
    plan = Floorplan.grid("130nm", [f"sec{i}" for i in range(16)])
    shots = [LaserShot(plan.cells[5].x_um, plan.cells[5].y_um,
                       MIN_SPOT_UM, 1.5) for _ in range(40)]
    return LaserFiBackend(plan, shots, target="sec5", seed=3)


def _sca_backend():
    rng = random.Random(7)
    points = [(i, "collected", bytes(rng.randrange(256) for _ in range(16)))
              for i in range(32)]
    return ScaTraceBackend(AesConstantTime(KEY), points, seed=7)


def _gpgpu_backend():
    rng = random.Random(5)
    inputs = [rng.randrange(256) for _ in range(128)]
    _golden, issues = run_simt_kernel(vector_add_kernel(), inputs, [])
    faults = [PipeRegFault(warp=rng.randrange(2), lane=rng.randrange(8),
                           bit=rng.randrange(32),
                           at_issue=rng.randrange(issues))
              for _ in range(40)]
    return GpgpuSeuBackend(vector_add_kernel(), inputs, faults)


def _slicing_backend(use_filter=True):
    circuit = load("rand_seq")
    reps, _ = collapse(circuit)
    workload = random_workload(circuit, 5, seed=21)
    return SlicingBackend(circuit, reps[:25], workload,
                          use_filter=use_filter)


NEW_BACKENDS = {
    "rsn-diagnosis": _rsn_backend,
    "laser-fi": _laser_backend,
    "sca-trace": _sca_backend,
    "gpgpu-seu": _gpgpu_backend,
    "slicing": _slicing_backend,
}


# ----------------------------------------------------------------------
# the point-filter stage
# ----------------------------------------------------------------------
class TestPointFilterStage:
    def test_filtered_outcomes_are_first_class_in_report_and_db(self):
        db = CampaignDb()
        report = run_campaign(_slicing_backend(),
                              EngineConfig(batch_size=16), db=db)
        assert report.skipped  # the slicing rules fired
        assert report.total == report.executed + len(report.skipped)
        assert report.total == report.planned == report.population
        # every filtered point is a masked outcome with its rule tagged
        for inj in report.skipped:
            assert inj.outcome == "masked"
            assert inj.detail in (SKIP_NO_ACTIVATION, SKIP_NO_PATH)
        # DB rows cover executed AND filtered injections
        rows = _db_rows(db)
        assert len(rows) == report.total
        summary = db.summary(report.campaign_id)
        assert summary.outcomes == report.outcomes
        db.close()

    def test_filter_disabled_executes_everything(self):
        filtered = run_campaign(_slicing_backend(True),
                                EngineConfig(batch_size=16))
        naive = run_campaign(_slicing_backend(False),
                             EngineConfig(batch_size=16))
        assert not naive.skipped
        assert naive.executed == naive.planned
        assert filtered.executed < naive.executed
        # losslessness at the engine level: same outcome per point
        by_point = {inj.point: inj.outcome for inj in naive.injections}
        for inj in filtered.injections + filtered.skipped:
            assert by_point[inj.point] == inj.outcome

    def test_filter_must_account_every_point(self):
        class DroppingBackend:
            name = "dropper"
            circuit_name = "toy"
            fault_model = "none"
            workload = "toy"

            def enumerate_points(self):
                return list(range(10))

            def prepare(self):
                return None

            def filter_points(self, points):
                return points[:4], []  # silently loses six points

            def run_batch(self, points):
                return [Injection(p, f"p{p}", 0, "ok") for p in points]

        with pytest.raises(ValueError, match="dropped points"):
            run_campaign(DroppingBackend(), EngineConfig())

    def test_early_stop_pre_converges_on_filtered_outcomes(self):
        """A filter that resolves nearly all points converges the
        campaign before a single batch executes."""
        backend = _slicing_backend()
        points = backend.enumerate_points()
        executed = []

        class FullFilter:
            name = "prefiltered"
            circuit_name = "toy"
            fault_model = "stuck-at"
            workload = "toy"

            def enumerate_points(self):
                return list(points)

            def prepare(self):
                return None

            def filter_points(self, pts):
                return [], [Injection(p, "x", 0, "masked") for p in pts]

            def run_batch(self, pts):
                executed.append(len(pts))
                return []

        report = run_campaign(
            FullFilter(),
            EngineConfig(early_stop=EarlyStop(outcome="masked", margin=0.1,
                                              min_injections=10)))
        assert report.converged
        assert report.executed == 0 and not executed
        assert report.executor == "serial"
        assert report.total == len(points)

    def test_early_stop_census_tightens_with_filtered_points(self):
        """Filtered outcomes are a census (zero variance): the
        convergence check scales the executed sample's Wilson width by
        the kept stratum's share, so the filtered campaign converges on
        fewer executed injections than the unfiltered one — without
        recording any speculative batch."""
        db = CampaignDb()
        stop = EarlyStop(outcome="masked", margin=0.08, min_injections=40)
        filtered = run_campaign(
            _slicing_backend(True),
            EngineConfig(batch_size=8, early_stop=stop), db=db)
        naive = run_campaign(_slicing_backend(False),
                             EngineConfig(batch_size=8, early_stop=stop))
        assert filtered.converged
        assert filtered.total >= stop.min_injections
        assert filtered.executed < naive.executed
        # DB contains exactly the accounted injections, nothing more
        assert len(_db_rows(db)) == filtered.total
        db.close()

    def test_early_stop_not_fooled_by_a_skewed_census(self):
        """A filter that resolves a large all-masked stratum must not
        declare a tight failure-rate interval while the (different)
        kept stratum is still unsampled: convergence requires executed
        evidence whenever kept points remain."""
        half = 60

        class SkewedFilter:
            # points 0..59 filtered masked; 60..119 all "failure" when run
            name = "skewed"
            circuit_name = "toy"
            fault_model = "none"
            workload = "toy"

            def enumerate_points(self):
                return list(range(2 * half))

            def prepare(self):
                return None

            def filter_points(self, pts):
                kept = [p for p in pts if p >= half]
                skipped = [Injection(p, f"p{p}", 0, "masked")
                           for p in pts if p < half]
                return kept, skipped

            def run_batch(self, pts):
                return [Injection(p, f"p{p}", 0, "failure") for p in pts]

        report = run_campaign(
            SkewedFilter(),
            EngineConfig(batch_size=10,
                         early_stop=EarlyStop(outcome="failure", margin=0.02,
                                              min_injections=20)))
        # the census alone (60 masked, 0 failures) would have converged
        # under naive pooling with a failure rate of 0.0; the stratified
        # check forces execution, and the true rate is found
        assert report.executed > 0
        assert report.rate("failure") == pytest.approx(
            report.executed / report.total)
        assert report.count("failure") == report.executed

    def test_filter_stage_counts_in_outcome_statistics(self):
        report = run_campaign(_slicing_backend(), EngineConfig())
        # rates/counts/CI are over executed + skipped
        assert report.count("masked") >= len(report.skipped)
        assert sum(report.outcomes.values()) == report.total
        assert report.rate("masked") == \
            report.count("masked") / report.total
        assert 0.0 < report.skip_fraction < 1.0


# ----------------------------------------------------------------------
# executor parity for every new backend
# ----------------------------------------------------------------------
class TestNewBackendParity:
    @pytest.mark.parametrize("kind", sorted(NEW_BACKENDS))
    def test_serial_thread_process_identical(self, kind):
        results = {}
        for executor in ("serial", "process"):
            db = CampaignDb()
            report = run_campaign(
                NEW_BACKENDS[kind](),
                EngineConfig(batch_size=8, workers=2, executor=executor,
                             seed=13),
                db=db)
            assert report.executor == executor
            results[executor] = (report.outcomes, _rows(report),
                                 _db_rows(db))
            db.close()
        assert results["serial"] == results["process"]

    @pytest.mark.parametrize("kind", sorted(NEW_BACKENDS))
    def test_backends_pickle_and_roundtrip(self, kind):
        import pickle

        original = NEW_BACKENDS[kind]()
        clone = pickle.loads(pickle.dumps(original))
        original.prepare()
        clone.prepare()
        points = list(original.enumerate_points())[:6]
        assert [(i.location, i.cycle, i.outcome)
                for i in original.run_batch(points)] \
            == [(i.location, i.cycle, i.outcome)
                for i in clone.run_batch(points)]


# ----------------------------------------------------------------------
# facades reproduce the pre-port serial loops
# ----------------------------------------------------------------------
class TestFacadeEquivalence:
    def test_rsn_signature_table_matches_reference_loop(self):
        faults = all_rsn_faults(TREE())
        test = compact_test(TREE)
        # reference: the pre-engine per-fault loop
        golden = TREE()
        golden.reset()
        golden_sig = tuple(apply_test(golden, test))
        expected = {}
        for fault in faults:
            net = TREE()
            net.reset()
            net.inject(fault)
            expected[fault] = tuple(apply_test(net, test))
        table = build_signature_table(TREE, faults, test)
        assert table.golden_signature == golden_sig
        assert table.signatures == expected
        assert list(table.signatures) == list(faults)  # order preserved
        detected = sum(1 for sig in expected.values() if sig != golden_sig)
        assert coverage(TREE, faults, test) == detected / len(faults)

    def test_rsn_campaign_report_shape(self):
        faults = all_rsn_faults(TREE())
        table, report = signature_campaign(TREE, faults, compact_test(TREE))
        assert report.total == len(faults)
        assert report.count("detected") == \
            round(table.detected_fraction() * len(faults))

    def test_laser_attack_matches_reference_loop(self):
        plan = Floorplan.grid("130nm", [f"sec{i}" for i in range(16)])
        target, attempts, seed = "sec5", 40, 3
        cell = next(c for c in plan.cells if c.name == target)
        exact = collateral = misses = 0
        for i in range(attempts):  # the pre-engine loop, shot for shot
            shot = LaserShot(cell.x_um, cell.y_um, MIN_SPOT_UM, 1.5)
            outcome = fire(plan, shot, seed=seed * 100_003 + i)
            if not outcome.flipped or target not in outcome.flipped:
                misses += 1
            elif outcome.single_bit:
                exact += 1
            else:
                collateral += 1
        stats, report = attack_campaign(plan, target, attempts, seed=seed)
        assert (stats.exact_hits, stats.collateral, stats.misses) \
            == (exact, collateral, misses)
        assert report.total == attempts
        assert targeted_attack(plan, target, attempts, seed=seed,
                               workers=2).exact_hits == exact

    def test_laser_unknown_target_still_raises(self):
        plan = Floorplan.grid("250nm", ["r0"])
        with pytest.raises(ValueError):
            targeted_attack(plan, "ghost")

    def test_sensitivity_map_covers_grid(self):
        plan = Floorplan.grid("250nm", [f"r{i}" for i in range(8)],
                              columns=4)
        grid, report = sensitivity_map(plan, energy=1.5)
        assert len(grid) == report.total > 0
        assert set(report.outcomes) <= {"no_flip", "single_bit", "multi_bit"}

    def test_leaky_traces_byte_identical_to_reference_loop(self):
        # AesLeaky is stateless, so the engine port must reproduce the
        # old sequential collection exactly (same plaintext stream)
        rng = random.Random(3)
        cipher = AesLeaky(KEY)
        expected_pts, expected_rows = [], []
        for _ in range(20):
            pt = bytes(rng.randrange(256) for _ in range(16))
            _ct, trace = cipher.encrypt(pt)
            expected_pts.append(pt)
            expected_rows.append(list(trace.power))
        traces = collect_traces(AesLeaky(KEY), 20, seed=3)
        assert traces.plaintexts == expected_pts
        assert traces.power.tolist() == [
            [float(v) for v in row] for row in expected_rows]

    def test_masked_traces_vary_per_point_but_deterministically(self):
        a = collect_traces(AesConstantTime(KEY), 12, seed=3)
        b = collect_traces(AesConstantTime(KEY), 12, seed=3, workers=2,
                           executor="process")
        assert a.power.tolist() == b.power.tolist()
        # fresh masks per trace: rows are not all identical for the
        # fixed-plaintext TVLA population
        tvla_report, engine_report = tvla_campaign(AesConstantTime(KEY), 30,
                                                   seed=5)
        assert engine_report.outcomes == {"fixed": 30, "random": 30}
        assert not tvla_report.leaks

    def test_tvla_still_separates_implementations(self):
        assert tvla(AesLeaky(KEY), 60, seed=5).leaks
        assert not tvla(AesConstantTime(KEY), 60, seed=5).leaks

    def test_trace_campaign_report_counts(self):
        db = CampaignDb()
        traces, report = trace_campaign(AesLeaky(KEY), 16, seed=1, db=db)
        assert traces.n == 16
        assert report.outcomes == {"collected": 16}
        assert db.summary(report.campaign_id).total == 16
        db.close()

    def test_gpgpu_rates_match_reference_loop(self):
        # the pre-engine loop, draw for draw
        rng = random.Random(2)
        inputs = [rng.randrange(256) for _ in range(128)]
        kernel = vector_add_kernel()
        golden, golden_issues = run_simt_kernel(kernel, inputs, [])
        masked = sdc = 0
        for _ in range(40):
            fault = PipeRegFault(
                warp=rng.randrange(2), lane=rng.randrange(8),
                bit=rng.randrange(32), at_issue=rng.randrange(golden_issues))
            observed, _ = run_simt_kernel(kernel, inputs, [fault])
            if observed == golden:
                masked += 1
            else:
                sdc += 1
        rates = seu_campaign_on_kernel(vector_add_kernel(), 40, seed=2)
        assert rates["masked"] == masked / 40
        assert rates["sdc"] == sdc / 40
        assert rates["issue_slots"] == float(golden_issues)
        parallel = seu_campaign_on_kernel(vector_add_kernel(), 40, seed=2,
                                          workers=2, executor="process")
        assert parallel == rates

    def test_slicing_counters_derive_from_engine_accounting(self):
        circuit = load("rand_seq")
        reps, _ = collapse(circuit)
        workload = random_workload(circuit, 6, seed=21)
        naive = run_naive_campaign(circuit, reps[:30], workload)
        sliced = run_sliced_campaign(circuit, reps[:30], workload)
        assert verify_equivalence(naive, sliced)
        # no drift: the counters and the classification table agree
        assert sliced.total == len(sliced.classifications) \
            == naive.total == 30 * 6
        assert naive.simulated == naive.total
        assert naive.skipped_no_activation == naive.skipped_no_path == 0
        skipped = sliced.skipped_no_activation + sliced.skipped_no_path
        assert sliced.simulated + skipped == sliced.total
        assert sliced.skip_fraction == skipped / sliced.total

    def test_slicing_parallel_matches_serial(self):
        circuit = load("rand_seq")
        reps, _ = collapse(circuit)
        workload = random_workload(circuit, 5, seed=9)
        serial = run_sliced_campaign(circuit, reps[:25], workload)
        parallel = run_sliced_campaign(circuit, reps[:25], workload,
                                       workers=4, executor="process")
        assert serial.classifications == parallel.classifications
        assert (serial.simulated, serial.skipped_no_activation,
                serial.skipped_no_path) == \
            (parallel.simulated, parallel.skipped_no_activation,
             parallel.skipped_no_path)


# ----------------------------------------------------------------------
# SeuBackend reuses the filter stage for dead flops
# ----------------------------------------------------------------------
class TestSeuDeadFlopFilter:
    @staticmethod
    def _circuit_with_dead_flop():
        bld = CircuitBuilder("deadflop")
        a, b = bld.input("a"), bld.input("b")
        live = bld.flop(bld.xor(a, b), name="live_q")
        bld.output(bld.and_(live, a, name="y"))
        # dead: feeds only a gate nobody observes, no flop D, no output
        dead = bld.flop(bld.or_(a, b), name="dead_q")
        bld.and_(dead, b, name="dangling")
        return bld.done()

    def test_dead_flop_filter_is_lossless(self):
        circuit = self._circuit_with_dead_flop()
        workload = random_workload(circuit, 8, seed=4)
        plain = run_campaign(SeuBackend(circuit, workload),
                             EngineConfig(batch_size=8))
        filtered = run_campaign(
            SeuBackend(circuit, workload, skip_dead_flops=True),
            EngineConfig(batch_size=8))
        assert not plain.skipped
        assert filtered.skipped  # dead_q injections resolved statically
        assert all(inj.detail == SKIP_DEAD_FLOP
                   for inj in filtered.skipped)
        assert all(inj.location == "dead_q" for inj in filtered.skipped)
        by_point = {(i.location, i.cycle): i.outcome
                    for i in plain.injections}
        for inj in filtered.injections + filtered.skipped:
            assert by_point[(inj.location, inj.cycle)] == inj.outcome
        assert filtered.outcomes == plain.outcomes

    def test_live_flops_never_filtered(self):
        circuit = load("rand_seq")
        workload = random_workload(circuit, 4, seed=4)
        filtered = run_campaign(
            SeuBackend(circuit, workload, skip_dead_flops=True),
            EngineConfig(batch_size=16))
        reference = run_seu_campaign(circuit, workload)
        assert {(i.flop, i.cycle, i.outcome) for i in reference.injections} \
            == {(i.location, i.cycle, i.outcome)
                for i in filtered.injections + filtered.skipped}


# ----------------------------------------------------------------------
# stuck-at inputs that name nothing in the circuit are rejected up front
# ----------------------------------------------------------------------
def _stuck_at_setup():
    from repro.faults import Line, StuckAtFault
    from repro.sim import random_patterns

    circuit = load("rand_seq")
    return dict(
        circuit=circuit, faults=collapse(circuit)[0][:6],
        ghost=StuckAtFault(Line("no_such_net"), 1),
        dangling=StuckAtFault(Line(circuit.inputs[0], "no_such_gate", 0), 0),
        patterns=random_patterns(circuit.inputs, 8, seed=1),
        workload=random_workload(circuit, 4, seed=2),
        outs=list(circuit.outputs))


_BAD_STUCK_AT = {
    "ppsfp-net": lambda s: PpsfpBackend(
        s["circuit"], s["faults"] + [s["ghost"]], [(s["patterns"], 8)]),
    "ppsfp-sink": lambda s: PpsfpBackend(
        s["circuit"], [s["dangling"]], [(s["patterns"], 8)]),
    "safety-net": lambda s: SafetyBackend(
        s["circuit"], [s["ghost"]], s["outs"][:1], s["outs"][1:],
        s["patterns"], 8),
    "safety-mission": lambda s: SafetyBackend(
        s["circuit"], s["faults"], ["nope"], s["outs"], s["patterns"], 8),
    "safety-detection": lambda s: SafetyBackend(
        s["circuit"], s["faults"], s["outs"], ["nada"], s["patterns"], 8),
    "slicing-net-packed": lambda s: SlicingBackend(
        s["circuit"], s["faults"] + [s["ghost"]], s["workload"]),
    "slicing-sink-per-point": lambda s: SlicingBackend(
        s["circuit"], [s["dangling"]], s["workload"], lane_width=1),
    "run_safety_campaign-process": lambda s: run_safety_campaign(
        s["circuit"], s["faults"], ["nope"], ["nada"], s["patterns"], 8,
        workers=2, executor="process"),
    "run_sliced_campaign-process": lambda s: run_sliced_campaign(
        s["circuit"], [s["ghost"]], s["workload"], workers=2,
        executor="process"),
}


@pytest.mark.parametrize("case", _BAD_STUCK_AT)
def test_stuck_at_inputs_off_the_circuit_are_rejected(case):
    # read as constant 0, a misspelt site or output group would be
    # classified (undetected / masked / safe) instead of reported
    from repro.engine import executors, shutdown_pools

    shutdown_pools()
    with pytest.raises(ValueError, match="not (on lines|nets) of"):
        _BAD_STUCK_AT[case](_stuck_at_setup())
    assert not executors._pool_registry  # raised before any pool


@pytest.mark.parametrize("bad, match", [
    ({"target": "sec99"}, "names no floorplan cell"),
    ({"jitter_um": -0.1}, "jitter_um"),
    ({"jitter_um": float("nan")}, "jitter_um"),
    ({"jitter_um": float("inf")}, "jitter_um"),
    ({"technology": "7nm"}, "upset threshold"),
])
def test_bad_laser_arguments_rejected_before_any_pool(bad, match):
    # was: every shot a ``miss`` for an unknown target, a KeyError inside
    # a worker for an unknown node
    from repro.engine import executors, shutdown_pools

    plan = Floorplan.grid("130nm", [f"sec{i}" for i in range(16)])
    plan = Floorplan(bad.get("technology", plan.technology), plan.cells)
    shots = [LaserShot(plan.cells[5].x_um, plan.cells[5].y_um,
                       MIN_SPOT_UM, 1.5) for _ in range(8)]
    shutdown_pools()
    with pytest.raises(ValueError, match=match):
        run_campaign(
            LaserFiBackend(plan, shots, target=bad.get("target", "sec5"),
                           jitter_um=bad.get("jitter_um", 0.15)),
            EngineConfig(workers=2, executor="process"))
    assert not executors._pool_registry  # raised before any pool


@pytest.mark.parametrize("bad, match", [
    ({"kind": "rom"}, "kind 'rom'"),
    ({"unit": "fpu"}, "unit 'fpu'"),
    ({"bit": 32}, "bit 32"),
    ({"bit": -1}, "bit -1"),
    ({"kind": "ram", "ram_offset": -1}, "ram_offset -1"),
    ({"kind": "ram", "ram_offset": 1 << 20}, "ram_offset"),
    ({"cycle": -5}, "cycle -5"),
])
def test_bad_soc_injections_rejected_before_any_pool(bad, match):
    # was: an unknown kind ran as a RAM flip, a bit wrapped modulo 32, a
    # negative RAM offset flipped a word at the end of RAM, and an
    # unknown unit or a large offset raised inside a worker
    from repro.autosoc import APPLICATIONS, SocConfig, SocInjection
    from repro.autosoc import run_campaign as run_soc_campaign
    from repro.engine import executors, shutdown_pools

    fields = {"kind": "cpu", "unit": "alu", "bit": 3, "cycle": 10, **bad}
    injections = [SocInjection("cpu", unit="alu", bit=1, cycle=5),
                  SocInjection(**fields)]
    shutdown_pools()
    with pytest.raises(ValueError, match=match):
        run_soc_campaign(APPLICATIONS["fibonacci"], SocConfig.LOCKSTEP, injections,
                         workers=2, executor="process")
    assert not executors._pool_registry  # raised before any pool


@pytest.mark.parametrize("kwargs, match", [
    ({"n_patterns": 0}, "n_patterns"),
    ({"n_patterns": -3}, "n_patterns"),
    ({"n_patterns": 8.0}, "n_patterns"),
    ({"state": {"st0": 1, "st_typo": 1}}, "st_typo"),
])
def test_bad_safety_patterns_and_state_rejected_before_any_pool(kwargs,
                                                                match):
    # was: every fault ``safe`` at 0 patterns, "negative shift count"
    # at -3, a TypeError at 8.0, a misspelt flop simulated from reset
    from repro.engine import executors, shutdown_pools

    s = _stuck_at_setup()
    shutdown_pools()
    with pytest.raises(ValueError, match=match):
        run_safety_campaign(s["circuit"], s["faults"], s["outs"][:1],
                            s["outs"][1:], s["patterns"],
                            kwargs.get("n_patterns", 8),
                            state=kwargs.get("state"), workers=2,
                            executor="process")
    assert not executors._pool_registry  # raised before any pool
