"""Tests for the unified campaign engine: determinism across worker
counts (pins of ``tests/test_oracle.py``), sampling, statistical early
stop, CampaignDb streaming, backend adapters matching their pre-engine
serial implementations, and the PPSFP cone-cache / fault-dropping fast
path."""

import pickle
import random

import pytest

from repro.autosoc import APPLICATIONS, SocConfig
from repro.autosoc.fi import DETECTED_LOCKSTEP, make_injections, run_injection
from repro.autosoc.fi import run_campaign as run_soc_campaign
from repro.circuit import load
from repro.core import CampaignDb, wilson_interval
from repro.engine import (
    DETECTED,
    EarlyStop,
    EngineConfig,
    Injection,
    PpsfpBackend,
    SafetyBackend,
    SeuBackend,
    SocBackend,
    ppsfp_result,
    resume_campaign,
    run_campaign,
)
from repro.faults import all_stuck_at, collapse
from repro.safety import classify_injection_values, run_safety_campaign
from repro.sim import (
    exhaustive_patterns,
    fault_simulate,
    fault_simulate_batched,
    faulty_values,
    mask_of,
    random_patterns,
    simulate,
)
from repro.sim.fault_sim import _ffr_links
from repro.soft_error import FAILURE, adaptive_estimate, inject_seu
from repro.soft_error import run_campaign as run_seu_campaign
from repro.soft_error.seu import _golden_run, random_workload
from test_oracle import Config, check


# ----------------------------------------------------------------------
# engine core
# ----------------------------------------------------------------------
class TestEngineCore:
    def test_determinism_across_worker_counts(self):
        for workers in (1, 2, 4):
            check(Config(lane_width=64, long=True, executor="auto",
                         workers=workers))

    def test_determinism_with_sampling_and_early_stop(self):
        for workers in (1, 3):
            check(Config(lane_width=64, long=True, executor="auto",
                         workers=workers, batch_size=8, sample=200, seed=11,
                         stop=True))

    def test_seeded_sampling_matches_random_sample(self, seq_setup):
        circuit, workload = seq_setup
        backend = SeuBackend(circuit, workload)
        points = list(backend.enumerate_points())
        expected = random.Random(5).sample(points, 60)
        config = EngineConfig(batch_size=16, sample=60, seed=5)
        report = run_campaign(SeuBackend(circuit, workload), config)
        assert [i.point for i in report.injections] == expected
        # sample >= population runs exhaustive in enumeration order...
        full = run_campaign(SeuBackend(circuit, workload),
                            EngineConfig(sample=10 * len(points), seed=5))
        assert [i.point for i in full.injections] == points
        # ...unless a shuffle is requested (seeded permutation)
        shuffled = run_campaign(SeuBackend(circuit, workload),
                                EngineConfig(shuffle=True, seed=5))
        assert [i.point for i in shuffled.injections] \
            == random.Random(5).sample(points, len(points))

    def test_early_stop_estimate_within_wilson_ci_of_truth(self):
        circuit = load("rand_seq")
        workload = random_workload(circuit, 30, seed=7)
        exhaustive = run_seu_campaign(circuit, workload)
        truth = exhaustive.failure_rate
        est = adaptive_estimate(circuit, workload, margin=0.08, seed=3)
        assert est.converged
        assert est.n_injections < est.population
        assert est.ci_low <= truth <= est.ci_high
        # the advertised margin bounds the CI half-width at the stop point
        assert (est.ci_high - est.ci_low) / 2 <= 0.08 + 1e-9

    def test_on_chunk_hook_sees_monotone_progress(self, seq_setup):
        circuit, workload = seq_setup
        sizes = []
        backend = SeuBackend(circuit, workload, cycles=range(4))
        run_campaign(backend, EngineConfig(batch_size=16),
                     on_chunk=lambda r: sizes.append(r.total))
        assert sizes == sorted(sizes)
        assert sizes[-1] == len(backend.enumerate_points())

    @pytest.mark.parametrize("kwargs, match", [
        ({"confidence": 1.0}, "confidence"),
        ({"confidence": 0.0}, "confidence"),
        ({"confidence": float("nan")}, "confidence"),
        ({"margin": 0.0}, "margin"),
        ({"margin": -0.05}, "margin"),
        ({"min_injections": -1}, "min_injections"),
    ])
    def test_early_stop_rejects_impossible_settings(self, seq_setup, kwargs,
                                                    match, no_pool):
        # was: confidence 1 a StatisticsError after the first chunk was
        # checkpointed, confidence 0 "converged" after one chunk on a
        # zero-width interval, a margin <= 0 could never converge
        circuit, workload = seq_setup
        with pytest.raises(ValueError, match=match):
            run_campaign(SeuBackend(circuit, workload),
                         EngineConfig(executor="process", workers=2,
                                      early_stop=EarlyStop(**kwargs)),
                         db=CampaignDb())


class TestInjectionRecord:
    """The outcome record: one immutable tuple per point."""

    def test_record_contract(self):
        by_name = Injection(point=("ff1", 3), location="ff1", cycle=3,
                            outcome="failure")
        by_position = Injection(("ff1", 3), "ff1", 3, "failure")
        assert by_name == by_position and by_name.detail is None
        assert by_name.row() == ("ff1", 3, "failure")
        # the stated trade-off: a record equals the plain tuple of its fields
        assert by_name == (("ff1", 3), "ff1", 3, "failure", None)
        assert not hasattr(by_name, "__dict__")  # one object per record
        with pytest.raises(AttributeError):
            by_name.outcome = "masked"
        with_detail = by_name._replace(detail=[0b101])
        clone = pickle.loads(pickle.dumps(with_detail,
                                          pickle.HIGHEST_PROTOCOL))
        assert type(clone) is Injection and clone == with_detail
        assert clone.detail == [0b101]


# ----------------------------------------------------------------------
# CampaignDb streaming + transaction semantics
# ----------------------------------------------------------------------
class TestCampaignDbIntegration:
    def test_record_commits_single_rows(self, tmp_path):
        path = tmp_path / "fi.sqlite"
        db = CampaignDb(path)
        cid = db.create_campaign("c", "circ", "seu", "wl")
        db.record(cid, "flop1", 3, "failure")
        db.close()  # no explicit commit: the row must still be durable
        reopened = CampaignDb(path)
        assert reopened.summary(cid).outcomes == {"failure": 1}
        reopened.close()

    def test_transaction_batches_and_rolls_back(self, tmp_path):
        db = CampaignDb(tmp_path / "tx.sqlite")
        cid = db.create_campaign("c", "circ", "seu", "wl")
        with db.transaction():
            db.record(cid, "a", 0, "masked")
            db.record(cid, "b", 1, "masked")
        assert db.summary(cid).total == 2
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.record(cid, "c", 2, "failure")
                raise RuntimeError("abort")
        assert db.summary(cid).total == 2
        db.close()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_db_contents_match_in_memory_report(self, workers):
        check(Config(lane_width=64, executor="auto", workers=workers,
                     batch_size=8))

    def test_every_backend_persists(self, seq_setup):
        circuit, workload = seq_setup
        comb = load("c17")
        packed, n = exhaustive_patterns(comb.inputs)
        faults, _ = collapse(comb)
        app = APPLICATIONS["fibonacci"]
        backends = [
            PpsfpBackend(comb, faults, [(packed, n)]),
            SeuBackend(circuit, workload, cycles=range(3)),
            SafetyBackend(comb, faults, [comb.outputs[0]], comb.outputs[1:],
                          packed, n),
            SocBackend(app, SocConfig.LOCKSTEP,
                       make_injections(app, n_cpu=6, n_ram=4, seed=1)),
        ]
        db = CampaignDb()
        for backend in backends:
            report = run_campaign(backend, EngineConfig(batch_size=16), db=db)
            summary = db.summary(report.campaign_id)
            assert summary.total == report.total
            assert summary.outcomes == report.outcomes
            assert summary.fault_model == backend.fault_model
        # the cross-campaign view sees all four workloads at once
        assert sum(db.cross_campaign_outcomes().values()) == sum(
            db.summary(cid).total
            for cid in range(1, 5))
        db.close()


# ----------------------------------------------------------------------
# backend adapters reproduce the pre-engine serial loops exactly
# ----------------------------------------------------------------------
class TestPreRefactorEquivalence:
    def test_seu_campaign_matches_reference_loop(self, seq_setup):
        circuit, workload = seq_setup
        # reference: the pre-engine serial loop with identical sampling
        space = [(flop, cyc) for flop in circuit.flops
                 for cyc in range(len(workload))]
        sampled = random.Random(4).sample(space, 80)
        golden = _golden_run(circuit, workload)
        expected = [(flop, cyc, inject_seu(circuit, workload, flop, cyc, golden))
                    for flop, cyc in sampled]
        result = run_seu_campaign(circuit, workload, sample=80, seed=4)
        assert [(i.flop, i.cycle, i.outcome) for i in result.injections] \
            == expected

    def test_seu_campaign_parallel_matches_serial(self):
        check(Config(lane_width=64, long=True, executor="auto", workers=4,
                     sample=100, seed=2))

    def test_safety_campaign_matches_reference_loop(self):
        c = load("c17")
        packed, n = exhaustive_patterns(c.inputs)
        faults = all_stuck_at(c)
        mission, detection = [c.outputs[0]], c.outputs[1:]
        result = run_safety_campaign(c, faults, mission, detection, packed, n)
        # reference: classify with the factored-out pure function
        mask = mask_of(n)
        good = simulate(c, packed, n)
        for fault, classified in zip(faults, result.classified):
            bad = faulty_values(c, fault, good, mask)
            expected = classify_injection_values(good, bad, mask, mission,
                                                 detection)
            assert classified.name == fault.describe()
            assert classified.fault_class is expected

    def test_soc_campaign_matches_reference_loop(self):
        app = APPLICATIONS["fibonacci"]
        injections = make_injections(app, n_cpu=8, n_ram=4, seed=6)
        result = run_soc_campaign(app, SocConfig.LOCKSTEP, injections)
        outcomes = {}
        latencies = []
        for injection in injections:
            outcome, latency = run_injection(app, SocConfig.LOCKSTEP,
                                             injection)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if latency is not None and outcome == DETECTED_LOCKSTEP:
                latencies.append(latency)
        assert result.total == len(injections)
        assert {k: v for k, v in result.outcomes.items() if v} == outcomes
        assert result.lockstep_latencies == latencies


# ----------------------------------------------------------------------
# PPSFP fast path: cone cache + fault dropping
# ----------------------------------------------------------------------
class TestPpsfpFastPath:
    @pytest.mark.parametrize("name", ["c17", "s27", "rand_seq"])
    def test_cone_cache_preserves_coverage(self, name):
        circuit = load(name)
        faults, _ = collapse(circuit)
        packed = random_patterns(circuit.inputs, 24, seed=9)
        state = random_patterns(circuit.flops, 24, seed=10)
        cold = fault_simulate(circuit, faults, packed, 24, state=state)
        assert circuit._cone_cache  # the cache populated during the run
        warm = fault_simulate(circuit, faults, packed, 24, state=state)
        assert cold.detected == warm.detected
        assert cold.undetected == warm.undetected
        # and against a cache-free circuit copy (fresh caches)
        fresh = fault_simulate(circuit.copy(), faults, packed, 24,
                               state=state)
        assert fresh.detected == cold.detected

    @pytest.mark.parametrize("name", ["c17", "rand_seq"])
    def test_batched_dropping_coverage_identical(self, name):
        circuit = load(name)
        faults, _ = collapse(circuit)
        batches = [(random_patterns(circuit.inputs, 8, seed=s), 8)
                   for s in range(4)]
        # single-pass reference over the concatenated patterns
        concat = {}
        for b, (pi_values, n) in enumerate(batches):
            for net, bits in pi_values.items():
                concat[net] = concat.get(net, 0) | (bits << 8 * b)
        single = fault_simulate(circuit, faults, concat, 32)
        dropped = fault_simulate_batched(circuit, faults, batches,
                                         drop_detected=True)
        undropped = fault_simulate_batched(circuit, faults, batches,
                                           drop_detected=False)
        assert set(single.detected) == set(dropped.detected)
        assert single.undetected == dropped.undetected
        assert single.detected == undropped.detected
        # dropping keeps the first detecting batch's bits
        for fault, bits in dropped.detected.items():
            assert bits & single.detected[fault] == bits

    def test_engine_ppsfp_matches_fault_simulate(self):
        circuit = load("c17")
        faults, _ = collapse(circuit)
        packed, n = exhaustive_patterns(circuit.inputs)
        direct = fault_simulate(circuit, faults, packed, n)
        backend = PpsfpBackend(circuit, faults, [(packed, n)])
        report = run_campaign(backend, EngineConfig(batch_size=8, workers=2))
        rebuilt = ppsfp_result(report, backend.n_patterns)
        assert rebuilt.detected == direct.detected
        assert rebuilt.undetected == direct.undetected
        assert rebuilt.coverage == direct.coverage
        assert report.rate(DETECTED) == pytest.approx(direct.coverage)

    def test_ppsfp_result_refuses_a_replayed_report(self):
        # detection masks ride in Injection.detail, which a checkpoint
        # does not store: a resumed report used to map every replayed
        # detected fault to None
        circuit = load("c17")
        faults, _ = collapse(circuit)
        packed, n = exhaustive_patterns(circuit.inputs)
        config = EngineConfig(batch_size=8, executor="serial",
                              commit_every=1)
        db = CampaignDb()
        fresh = run_campaign(PpsfpBackend(circuit, faults, [(packed, n)]),
                             config, db=db)
        resumed = resume_campaign(
            PpsfpBackend(circuit, faults, [(packed, n)]), fresh.campaign_id,
            config, db=db)
        assert resumed.resumed_chunks and resumed.outcomes == fresh.outcomes
        with pytest.raises(ValueError, match="resumed or assembled by "
                                             "service replay"):
            ppsfp_result(resumed, n)
        assert None not in ppsfp_result(fresh, n).detected.values()

    def test_one_cone_walk_per_fan_out_free_region(self):
        circuit = load("rand_seq")
        faults, _ = collapse(circuit)
        batches = [(random_patterns(circuit.inputs, 8, seed=s), 8)
                   for s in range(4)]
        backend = PpsfpBackend(circuit, faults, batches)
        run_campaign(backend, EngineConfig(batch_size=16, executor="serial"))
        windows = backend._windows
        assert len(windows.windows) == 1  # 32 patterns: one window
        # a cone is walked per fan-out-free region, not per fault
        n_roots = len(circuit.nets) - len(_ffr_links(circuit))
        assert 0 < windows.root_walks <= n_roots < len(faults)

    @pytest.mark.parametrize("kwargs, match", [
        ({"widths": [8, -3]}, "batch widths"),
        ({"widths": [0]}, "batch widths"),
        ({"widths": [8.0]}, "batch widths"),
        ({"state": {"st0": 1, "st_typo": 1}}, "st_typo"),
    ])
    def test_bad_batches_and_state_rejected_at_construction(self, kwargs,
                                                            match, no_pool):
        # was: "negative shift count" inside a worker's prepare() (a
        # quarantined chunk), every fault undetected at width 0, a
        # TypeError in a worker, a misspelt flop simulated from reset
        circuit = load("rand_seq")
        faults, _ = collapse(circuit)
        batches = [(random_patterns(circuit.inputs, 8, seed=i), n)
                   for i, n in enumerate(kwargs.get("widths", [8]))]
        with pytest.raises(ValueError, match=match):
            PpsfpBackend(circuit, faults, batches, state=kwargs.get("state"))


# ----------------------------------------------------------------------
# statistical plumbing
# ----------------------------------------------------------------------
class TestStatistics:
    def test_report_confidence_interval_matches_wilson(self, seq_setup):
        circuit, workload = seq_setup
        report = run_campaign(SeuBackend(circuit, workload, cycles=range(4)),
                              EngineConfig(batch_size=32))
        fails = report.count(FAILURE)
        ci = report.confidence_interval(FAILURE)
        ref = wilson_interval(fails, report.total)
        assert (ci.low, ci.high) == (ref.low, ref.high)

