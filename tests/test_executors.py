"""Tests for the pluggable executor layer (`repro.engine.executors`).

Covers: backend/circuit picklability (caches dropped, behavior
preserved), process/serial result parity down to the DB rows for the
backends ``tests/test_oracle.py`` does not draw (and pins of the ones
it does), the auto probe's fallback decisions, early-stop draining (no
speculative injections recorded), and per-chunk RNG determinism across
executors and worker counts.
"""

import pickle

import pytest

from conftest import _db_rows, _rows
from repro.autosoc import APPLICATIONS, SocConfig
from repro.autosoc.fi import make_injections
from repro.circuit import load
from repro.core import CampaignDb
from repro.engine import (
    ChaosBackend,
    ChaosFault,
    EarlyStop,
    EngineConfig,
    Injection,
    PpsfpBackend,
    SafetyBackend,
    SeuBackend,
    SocBackend,
    chunk_seed,
    plan_executor,
    run_campaign,
)
from repro.engine import executors
from repro.faults import collapse
from repro.sim import exhaustive_patterns, fault_simulate, random_patterns, simulate
from repro.soft_error import random_workload
from test_oracle import Config, check

EXECUTORS = ("serial", "process")


def _seu_backend():
    circuit = load("rand_seq")
    return SeuBackend(circuit, random_workload(circuit, 6, seed=7))


def _ppsfp_backend():
    circuit = load("c17")
    faults, _ = collapse(circuit)
    packed, n = exhaustive_patterns(circuit.inputs)
    return PpsfpBackend(circuit, faults, [(packed, n)])


def _safety_backend():
    circuit = load("c17")
    faults, _ = collapse(circuit)
    packed, n = exhaustive_patterns(circuit.inputs)
    return SafetyBackend(circuit, faults, [circuit.outputs[0]],
                         circuit.outputs[1:], packed, n)


def _soc_backend():
    app = APPLICATIONS["fibonacci"]
    return SocBackend(app, SocConfig.LOCKSTEP,
                      make_injections(app, n_cpu=6, n_ram=4, seed=1))

BACKEND_FACTORIES = {
    "seu": _seu_backend,
    "ppsfp": _ppsfp_backend,
    "safety": _safety_backend,
    "autosoc": _soc_backend,
}


class NoisyBackend:
    """Stochastic toy backend: outcomes come from the per-chunk RNG the
    engine hands to ``run_batch_seeded`` — the hook stochastic workloads
    use to stay deterministic at any worker count/executor."""

    name = "noisy"
    circuit_name = "toy"
    fault_model = "bernoulli"

    def __init__(self, n: int = 96) -> None:
        self.n = n
        self.workload = f"rng[{n}]"

    def enumerate_points(self):
        return list(range(self.n))

    def prepare(self) -> None:
        return None

    def run_batch(self, points):
        raise AssertionError("engine must use the seeded hook when present")

    def run_batch_seeded(self, points, rng):
        return [Injection(point=p, location=f"p{p}", cycle=0,
                          outcome="hit" if rng.random() < 0.3 else "miss")
                for p in points]


class CheapWideLaneBackend:
    """Batches cheaper than MIN_BATCH_COST_S but denser than a scalar
    chunk: a vector-tier lane width means each dispatch retires many
    points, so the auto probe must not bail to serial on the
    per-batch floor alone."""

    name = "cheap-wide"
    circuit_name = "toy"
    fault_model = "none"
    workload = "toy"

    def __init__(self, n: int = 96, lane_width: int = 1024) -> None:
        self.n = n
        self.lane_width = lane_width

    def enumerate_points(self):
        return list(range(self.n))

    def prepare(self) -> None:
        return None

    def run_batch(self, points):
        return [Injection(point=p, location=f"p{p}", cycle=0,
                          outcome="ok") for p in points]


class UnpicklableBackend:
    """A backend the process pool cannot ship (holds a lambda)."""

    name = "unpicklable"
    circuit_name = "toy"
    fault_model = "none"
    workload = "toy"

    def __init__(self, n: int = 40) -> None:
        self.classify = lambda p: "even" if p % 2 == 0 else "odd"
        self.n = n

    def enumerate_points(self):
        return list(range(self.n))

    def prepare(self) -> None:
        return None

    def run_batch(self, points):
        return [Injection(point=p, location=f"p{p}", cycle=0,
                          outcome=self.classify(p)) for p in points]


# ----------------------------------------------------------------------
# picklability
# ----------------------------------------------------------------------
class TestPickling:
    def test_circuit_pickle_drops_caches_and_rebuilds(self):
        circuit = load("rand_seq")
        faults, _ = collapse(circuit)
        packed = random_patterns(circuit.inputs, 8, seed=3)
        state = random_patterns(circuit.flops, 8, seed=4)
        reference = fault_simulate(circuit, faults, packed, 8, state=state)
        assert circuit._topo_cache and circuit._cone_cache  # caches warm

        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._topo_cache is None
        assert clone._fanout_cache is None
        assert clone._topo_index_cache is None
        assert clone._cone_cache == {}
        # lazily rebuilt caches reproduce identical behavior
        assert [g.output for g in clone.topo_order()] \
            == [g.output for g in circuit.topo_order()]
        assert simulate(clone, packed, 8, state) \
            == simulate(circuit, packed, 8, state)
        replay = fault_simulate(clone, faults, packed, 8, state=state)
        assert replay.detected == reference.detected
        assert replay.undetected == reference.undetected

    @pytest.mark.parametrize("kind", sorted(BACKEND_FACTORIES))
    def test_backend_roundtrip_preserves_batches(self, kind):
        original = BACKEND_FACTORIES[kind]()
        clone = pickle.loads(pickle.dumps(original))
        original.prepare()
        clone.prepare()
        points = list(original.enumerate_points())[:8]
        assert [(i.location, i.cycle, i.outcome)
                for i in original.run_batch(points)] \
            == [(i.location, i.cycle, i.outcome)
                for i in clone.run_batch(points)]

    def test_prepare_is_idempotent(self):
        backend = _seu_backend()
        backend.prepare()
        ctx = backend._lane_ctx
        assert ctx is not None
        assert backend._golden is None  # packed path: one golden pass
        backend.prepare()
        assert backend._lane_ctx is ctx  # not recomputed

    def test_prepare_is_idempotent_per_point(self):
        circuit = load("rand_seq")
        backend = SeuBackend(circuit, random_workload(circuit, 6, seed=7),
                             lane_width=1)
        backend.prepare()
        golden = backend._golden
        assert golden is not None and backend._lane_ctx is None
        backend.prepare()
        assert backend._golden is golden  # not recomputed

    def test_prepared_state_not_shipped(self):
        backend = _seu_backend()
        backend.prepare()
        assert backend._lane_ctx is not None
        clone = pickle.loads(pickle.dumps(backend))
        # workers rebuild it via prepare()
        assert clone._lane_ctx is None and clone._golden is None
        clone.prepare()
        points = list(backend.enumerate_points())[:6]
        assert clone.run_batch(points) == backend.run_batch(points)


# ----------------------------------------------------------------------
# executor parity: identical campaigns on serial / process
# ----------------------------------------------------------------------
class TestExecutorParity:
    @pytest.mark.parametrize("kind", sorted(BACKEND_FACTORIES))
    def test_all_executors_identical_outcomes_and_db_rows(self, kind):
        results = {}
        for executor in EXECUTORS:
            db = CampaignDb()
            report = run_campaign(
                BACKEND_FACTORIES[kind](),
                EngineConfig(batch_size=8, workers=2, executor=executor,
                             seed=13),
                db=db)
            assert report.executor == executor
            results[executor] = (report.outcomes, _rows(report), _db_rows(db))
            db.close()
        assert results["serial"] == results["process"]

    def test_process_matches_serial_with_sampling_and_shuffle(self):
        check(Config(executor="process", batch_size=8, sample=48, seed=21))


# ----------------------------------------------------------------------
# the auto probe
# ----------------------------------------------------------------------
class TestAutoProbe:
    def test_single_cpu_resolves_serial(self, monkeypatch):
        monkeypatch.setattr(executors, "_usable_cpus", lambda: 1)
        backend = _seu_backend()
        config = EngineConfig(batch_size=8, workers=4)
        chunks = [[0], [1], [2]]
        plan = plan_executor(backend, chunks, config, [1, 2, 3])
        assert plan.name == "serial"
        assert "CPU" in plan.reason

    def test_single_worker_resolves_serial(self):
        plan = plan_executor(_seu_backend(), [[0], [1]],
                             EngineConfig(workers=1), [1, 2])
        assert plan.name == "serial"

    def test_unpicklable_backend_avoids_process(self, monkeypatch):
        monkeypatch.setattr(executors, "_usable_cpus", lambda: 4)
        # zero thresholds so the probe reaches the pickle attempt
        monkeypatch.setattr(executors, "MIN_BATCH_COST_S", 0.0)
        monkeypatch.setattr(executors, "MIN_CAMPAIGN_COST_S", 0.0)
        backend = UnpicklableBackend()
        plan = plan_executor(backend, [[0], [1]],
                             EngineConfig(workers=2), [1, 2])
        assert plan.name == "serial"
        assert "not picklable" in plan.reason
        assert len(plan.probe_batches) == 1  # probe work still handed back

    def test_cheap_gil_bound_batches_fall_back_to_serial(self, monkeypatch):
        # there is no rung between the pool and the serial loop to probe
        # for: a campaign the pool rejects runs serially behind the one
        # chunk the cost probe executed
        monkeypatch.setattr(executors, "_usable_cpus", lambda: 4)
        backend = _seu_backend()
        points = list(backend.enumerate_points())
        chunks = [points[i:i + 4] for i in range(0, 24, 4)]
        seeds = [chunk_seed(0, i) for i in range(len(chunks))]
        plan = plan_executor(backend, chunks, EngineConfig(workers=2), seeds)
        assert plan.name == "serial"
        assert "below process dispatch overhead" in plan.reason
        assert len(plan.probe_batches) == 1

    def test_gil_probe_batches_accounted_exactly_once(self, monkeypatch):
        # the serial fallback must resume after the probed chunk
        monkeypatch.setattr(executors, "_usable_cpus", lambda: 4)
        check(Config(lane_width=64, executor="auto", batch_size=4))

    def test_wide_lane_cheap_batches_still_pick_process(self, monkeypatch):
        # a vector-tier chunk (lane_width > 64) retires up to lane_width
        # points per dispatch, so the conservative per-batch floor must
        # not send large wide-lane campaigns to the serial loop: only
        # batches below the raw dispatch cost bail
        monkeypatch.setattr(executors, "_usable_cpus", lambda: 4)
        # the floors are pinned so that no measured batch cost can decide
        # either verdict: every cost clears the dispatch floor and the
        # remaining-work bar, none clears the scalar per-batch floor
        monkeypatch.setattr(executors, "MIN_DISPATCH_COST_S", 0.0)
        monkeypatch.setattr(executors, "MIN_CAMPAIGN_COST_S", 0.0)
        monkeypatch.setattr(executors, "MIN_BATCH_COST_S", float("inf"))
        backend = CheapWideLaneBackend(lane_width=1024)
        points = list(backend.enumerate_points())
        chunks = [points[i:i + 8] for i in range(0, len(points), 8)]
        seeds = [chunk_seed(0, i) for i in range(len(chunks))]
        plan = plan_executor(backend, chunks, EngineConfig(workers=2), seeds)
        assert plan.name == "process"
        # the scalar-width control with the identical cost profile bails
        # at the per-batch floor
        control = CheapWideLaneBackend(lane_width=1)
        plan1 = plan_executor(control, chunks, EngineConfig(workers=2),
                              seeds)
        assert plan1.name == "serial"
        assert "below process dispatch overhead" in plan1.reason

    def test_costly_picklable_campaign_resolves_process(self, monkeypatch):
        monkeypatch.setattr(executors, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(executors, "MIN_BATCH_COST_S", 0.0)
        monkeypatch.setattr(executors, "MIN_CAMPAIGN_COST_S", 0.0)
        backend = _seu_backend()
        points = list(backend.enumerate_points())
        chunks = [points[i:i + 8] for i in range(0, 32, 8)]
        seeds = [chunk_seed(0, i) for i in range(len(chunks))]
        plan = plan_executor(backend, chunks, EngineConfig(workers=2), seeds)
        assert plan.name == "process"

    def test_auto_campaign_matches_serial(self, monkeypatch):
        # whatever the probe decides, probed chunks run in the parent and
        # must be accounted exactly once, in order
        monkeypatch.setattr(executors, "_usable_cpus", lambda: 4)
        assert check(Config(lane_width=64, executor="auto", batch_size=8)
                     ).executor in ("serial", "process")

    def test_explicit_process_with_unpicklable_backend_falls_back(
            self, caplog, monkeypatch):
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            report = run_campaign(
                UnpicklableBackend(),
                EngineConfig(batch_size=8, workers=2, executor="process"))
        assert report.executor == "serial"
        fallbacks = [r.getMessage() for r in caplog.records
                     if "falling back" in r.message]
        assert len(fallbacks) == 1 and fallbacks[0].startswith(
            "engine: process executor failing; falling back to serial "
            "from chunk 0 (backend not picklable (")
        assert report.total == 40
        assert report.outcomes == {"even": 20, "odd": 20}

        # a crashed auto-probe takes the same line, and the chunk it
        # crashed on runs again on the serial rung
        monkeypatch.setattr(executors, "_usable_cpus", lambda: 4)
        backend = _seu_backend()
        chaos = ChaosBackend(backend, [ChaosFault(
            backend.enumerate_points()[0], "raise", 1)])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            report = run_campaign(chaos, EngineConfig(
                batch_size=8, workers=2, executor="auto",
                retry_backoff_s=0.001))
        fallbacks = [r.getMessage() for r in caplog.records
                     if "falling back" in r.message]
        assert len(fallbacks) == 1 and fallbacks[0].startswith(
            "engine: auto executor failing; falling back to serial from "
            "chunk 0 (auto-probe failed (ChaosError")
        assert report.executor == "serial"
        assert _rows(report) == _rows(run_campaign(
            _seu_backend(), EngineConfig(batch_size=8, executor="serial")))

    def test_auto_with_unpicklable_backend_lands_on_serial(
            self, monkeypatch, caplog):
        import logging

        monkeypatch.setattr(executors, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(executors, "MIN_BATCH_COST_S", 0.0)
        monkeypatch.setattr(executors, "MIN_CAMPAIGN_COST_S", 0.0)
        with caplog.at_level(logging.INFO, logger="repro.engine"):
            report = run_campaign(
                UnpicklableBackend(),
                EngineConfig(batch_size=8, workers=2, executor="auto"))
        assert report.executor == "serial"
        assert any("executor=serial" in r.getMessage()
                   and "not picklable" in r.getMessage()
                   for r in caplog.records)
        # the probed chunk is accounted once, in place
        assert [inj.point for inj in report.injections] == list(range(40))

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            EngineConfig(executor="bogus")

    def test_thread_executor_is_rejected_with_the_three_choices(self):
        assert executors.EXECUTOR_CHOICES == ("auto", "serial", "process")
        with pytest.raises(ValueError, match="unknown executor") as err:
            EngineConfig(executor="thread")
        assert str(executors.EXECUTOR_CHOICES) in str(err.value)

    @pytest.mark.parametrize("policy", [
        {"batch_size": 0}, {"batch_size": -3}, {"workers": 0},
        {"commit_every": 0}, {"sample": -1}])
    def test_out_of_range_policy_rejected(self, policy):
        # these used to be clamped or rewritten deep in the loop (a
        # non-positive batch_size ran as one-point chunks) or to die
        # inside random.sample after enumeration
        with pytest.raises(ValueError, match=">= "):
            EngineConfig(**policy)


# ----------------------------------------------------------------------
# early stop: speculative chunks are cancelled, drained, never recorded
# ----------------------------------------------------------------------
class TestEarlyStopDrain:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_no_speculative_injections_recorded(self, executor):
        db = CampaignDb()
        accounted = []
        report = run_campaign(
            _seu_backend(),
            EngineConfig(batch_size=4, workers=2, executor=executor,
                         shuffle=True, seed=5,
                         early_stop=EarlyStop(outcome="failure", margin=0.12,
                                              min_injections=12)),
            db=db,
            on_chunk=lambda r: accounted.append(r.total))
        assert report.converged
        assert report.total < report.planned
        # every accounted chunk is in the DB; nothing speculative leaked
        assert len(_db_rows(db)) == report.total
        assert accounted == sorted(accounted)
        assert accounted[-1] == report.total
        db.close()

    def test_convergence_point_identical_across_executors(self):
        assert check(Config(executor="process", workers=3, batch_size=4,
                            shuffle=True, seed=5, stop=True)).converged


# ----------------------------------------------------------------------
# per-chunk RNG: one stream per chunk, same stream everywhere
# ----------------------------------------------------------------------
class TestChunkRng:
    def test_chunk_seed_is_deterministic_and_spread(self):
        seeds = [chunk_seed(42, i) for i in range(64)]
        assert seeds == [chunk_seed(42, i) for i in range(64)]
        assert len(set(seeds)) == 64
        assert set(seeds).isdisjoint({chunk_seed(43, i) for i in range(64)})

    @pytest.mark.parametrize("executor,workers", [
        ("serial", 1), ("process", 2)])
    def test_seeded_backend_identical_everywhere(self, executor, workers):
        reference = run_campaign(
            NoisyBackend(), EngineConfig(batch_size=16, executor="serial",
                                         seed=9))
        report = run_campaign(
            NoisyBackend(), EngineConfig(batch_size=16, workers=workers,
                                         executor=executor, seed=9))
        assert _rows(report) == _rows(reference)
        assert 0 < report.count("hit") < report.total  # both outcomes occur
