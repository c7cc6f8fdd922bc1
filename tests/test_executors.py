"""Tests for the pluggable executor layer (`repro.engine.executors`).

Covers: backend/circuit picklability (caches dropped, behavior
preserved), process/serial result parity down to the DB rows for the
backends ``tests/test_oracle.py`` does not draw (and pins of the ones
it does), the auto probe's fallback decisions, early-stop draining (no
speculative injections recorded), and per-chunk RNG determinism across
executors and worker counts.
"""

import logging
import math
import multiprocessing
import pickle
import re
import sqlite3
import threading
import time
import warnings
from dataclasses import replace
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _db_rows, _rows, _signature
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
from repro.engine.core import resume_campaign
from repro.faults import collapse
from repro.sim import exhaustive_patterns, fault_simulate, random_patterns, simulate
from repro.soft_error import random_workload
from test_imports import _fresh
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


class PinnedCostWideBackend:
    """A wide-lane backend whose chunks cost what the test pins: every
    ``run_batch`` advances :meth:`clock` by ``cost_s``, and the test
    hands that clock to the auto probe as its ``time.perf_counter``."""

    name = "pinned-wide"
    circuit_name = "toy"
    fault_model = "none"
    workload = "toy"

    def __init__(self, n_chunks: int, cost_s: float,
                 lane_width: int = 1024) -> None:
        self.n = 8 * n_chunks
        self.cost_s = cost_s
        self.lane_width = lane_width
        self.now = 0.0

    def clock(self) -> float:
        return self.now

    def enumerate_points(self):
        return list(range(self.n))

    def prepare(self) -> None:
        return None

    def run_batch(self, points):
        self.now += self.cost_s
        return [Injection(point=p, location=f"p{p}", cycle=0,
                          outcome="ok") for p in points]


class PinnedWallBackend(PinnedCostWideBackend):
    """:class:`PinnedCostWideBackend` whose chunks also take their pinned
    cost in wall time, so that a pool worker's own clock sees it."""

    def run_batch(self, points):
        time.sleep(self.cost_s)
        return super().run_batch(points)


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


class ColdStartBackend:
    """A picklable backend whose first chunk pays a first-use cost (the
    lane context, a native build or load) and whose later chunks are
    cheap: what the auto probe must extrapolate from is a later chunk."""

    name = "cold-start"
    circuit_name = "toy"
    fault_model = "none"
    workload = "toy"
    FIRST_USE_S = 0.05

    def __init__(self, n: int = 80) -> None:
        self.n = n
        self.warm = False

    def enumerate_points(self):
        return list(range(self.n))

    def prepare(self) -> None:
        return None

    def run_batch(self, points):
        if not self.warm:
            time.sleep(self.FIRST_USE_S)
            self.warm = True
        return [Injection(point=p, location=f"p{p}", cycle=0,
                          outcome="odd" if p % 2 else "even")
                for p in points]


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
        monkeypatch.setattr(executors, "COLD_POOL_COST_S", 0.0)
        backend = UnpicklableBackend()
        plan = plan_executor(backend, [[0], [1]],
                             EngineConfig(workers=2), [1, 2])
        assert plan.name == "serial"
        assert "not picklable" in plan.reason
        assert len(plan.probe_batches) == 2  # probe work still handed back

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
        assert len(plan.probe_batches) == 2

    def test_probe_times_a_warm_chunk(self, monkeypatch):
        # chunk 0 pays the first-use cost; timing it would predict
        # 0.05 s x 9 chunks of work and pick the pool, where every
        # chunk after it costs microseconds
        monkeypatch.setattr(executors, "_usable_cpus", lambda: 4)
        backend = ColdStartBackend()
        points = backend.enumerate_points()
        chunks = [points[i:i + 8] for i in range(0, len(points), 8)]
        seeds = [chunk_seed(0, i) for i in range(len(chunks))]
        plan = plan_executor(backend, chunks, EngineConfig(workers=2), seeds)
        assert plan.name == "serial"
        assert "below process dispatch overhead" in plan.reason
        # both probed chunks are handed back, in order, to be accounted
        assert [[inj.point for inj in batch] for batch in
                plan.probe_batches] == chunks[:2]
        # ... exactly once: the campaign reports every point once, in order
        report = run_campaign(ColdStartBackend(),
                              EngineConfig(batch_size=8, workers=2))
        assert report.executor == "serial"
        assert [inj.point for inj in report.injections] == points

    def test_gil_probe_batches_accounted_exactly_once(self, monkeypatch):
        # the serial fallback must resume after the probed chunk
        monkeypatch.setattr(executors, "_usable_cpus", lambda: 4)
        check(Config(lane_width=64, executor="auto", batch_size=4))

    def test_pool_is_picked_only_when_it_beats_serial(self, monkeypatch):
        # the pool pays COLD_POOL_COST_S before its first chunk returns,
        # at any lane width: two workers must save more than that.  The
        # chunk costs are pinned on a fake clock, so no measurement
        # decides a verdict; the pool's cost is pinned too, so that the
        # verdicts test the rule, not the constant's measured value
        monkeypatch.setattr(executors, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(executors, "COLD_POOL_COST_S", 0.28)
        verdicts = []
        for cost_s, n_chunks in ((0.001, 302), (0.005, 62), (0.005, 202)):
            backend = PinnedCostWideBackend(n_chunks, cost_s)
            monkeypatch.setattr(executors, "time", SimpleNamespace(
                perf_counter=backend.clock))
            points = backend.enumerate_points()
            chunks = [points[i:i + 8] for i in range(0, len(points), 8)]
            seeds = [chunk_seed(0, i) for i in range(len(chunks))]
            plan = plan_executor(backend, chunks, EngineConfig(workers=2),
                                 seeds)
            verdicts.append((plan.name, plan.reason.split(":")[0]))
        assert verdicts == [
            # ~1 ms a chunk, 0.3 s left: cheaper than dispatching it
            ("serial", "per-batch cost 1.00ms below process dispatch "
                       "overhead"),
            # 0.3 s left: two workers save 0.15 s, less than a cold pool
            ("serial", "~300ms of work left"),
            # 1 s left: they save 0.5 s
            ("process", "picklable backend, 5.0ms/batch x 200 chunks "
                        "remaining")]

    def test_costly_picklable_campaign_resolves_process(self, monkeypatch):
        monkeypatch.setattr(executors, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(executors, "MIN_BATCH_COST_S", 0.0)
        monkeypatch.setattr(executors, "COLD_POOL_COST_S", 0.0)
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
        monkeypatch.setattr(executors, "COLD_POOL_COST_S", 0.0)
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


# ----------------------------------------------------------------------
# the pool's start method: fork from one thread, else spawn
# ----------------------------------------------------------------------
class _StartSpy(executors.ProcessPoolExecutor):
    """The process pool, recording the start method it is handed and
    every task it is given as ``(first chunk, chunk count)``."""

    methods: list = []
    tasks: list = []

    def __init__(self, *args, mp_context, **kwargs):
        self.methods.append(mp_context.get_start_method())
        super().__init__(*args, mp_context=mp_context, **kwargs)

    def submit(self, fn, /, *args, **kwargs):
        self.tasks.append(args)
        return super().submit(fn, *args, **kwargs)


def _spied():
    """Patch the pool with :class:`_StartSpy`; the spy's lists, emptied."""
    _StartSpy.methods, _StartSpy.tasks = [], []
    return mock.patch.object(executors, "ProcessPoolExecutor", _StartSpy)


PROCESS2 = EngineConfig(batch_size=8, executor="process", workers=2)
SERIAL8 = EngineConfig(batch_size=8, executor="serial")

#: Runs in a fresh interpreter (one thread, whatever this session runs):
#: two process campaigns, their pools' start methods, and their reports
#: against the serial one.
_FORK_SCRIPT = """
import json, sys, threading
sys.path.insert(0, {tests!r})
from conftest import _signature
from repro.core import CampaignDb
from repro.engine import run_campaign
from test_executors import PROCESS2, SERIAL8, _StartSpy, _seu_backend, _spied

reference = _signature(run_campaign(_seu_backend(), SERIAL8))
threads = threading.active_count()
db = CampaignDb({db!r}) if {db!r} else None  # held open across the forks
with _spied():
    reports = [run_campaign(_seu_backend(), PROCESS2, db=db)
               for _ in range(2)]
if db is not None:
    db.close()
print(json.dumps([threads, _StartSpy.methods, [r.executor for r in reports],
                  [_signature(r) == reference for r in reports],
                  [r.campaign_id for r in reports]]))
"""


def _fresh_process_campaigns(db_path=""):
    return _fresh(_FORK_SCRIPT.format(
        tests=str(Path(__file__).resolve().parent), db=str(db_path)))


class TestStartMethod:
    def test_start_method_follows_the_platform_and_the_threads(
            self, monkeypatch):
        monkeypatch.setattr(executors.sys, "platform", "linux")
        monkeypatch.setattr(executors.threading, "active_count", lambda: 1)
        assert executors._start_method() == "fork"
        monkeypatch.setattr(executors.threading, "active_count", lambda: 2)
        assert executors._start_method() == "spawn"
        monkeypatch.setattr(executors.sys, "platform", "darwin")
        monkeypatch.setattr(executors.threading, "active_count", lambda: 1)
        assert executors._start_method() == "spawn"

    @pytest.mark.skipif(not executors.sys.platform.startswith("linux"),
                        reason="fork is picked on Linux only")
    def test_a_single_threaded_caller_forks_its_workers(self):
        threads, methods, rungs, same, _ = _fresh_process_campaigns()
        assert threads == 1
        assert methods == ["fork", "fork"]  # one pool per campaign
        assert rungs == ["process", "process"] and all(same)

    def test_a_multi_threaded_caller_spawns_them(self):
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, daemon=True)
        other.start()
        try:
            with _spied(), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = run_campaign(_seu_backend(), PROCESS2)
        finally:
            stop.set()
            other.join(5)
        assert not other.is_alive()
        assert _StartSpy.methods == ["spawn"]
        assert report.executor == "process"
        assert _signature(report) == _signature(
            run_campaign(_seu_backend(), SERIAL8))
        # Python 3.12 warns on a fork from a multi-threaded process
        assert not [w for w in caught
                    if "use of fork()" in str(w.message)]

    @pytest.mark.skipif(not executors.sys.platform.startswith("linux"),
                        reason="fork is picked on Linux only")
    def test_forked_workers_leave_the_parents_open_database_whole(
            self, tmp_path):
        # the parent holds a file-backed WAL CampaignDb open while its
        # workers fork; they never touch the connection they inherit
        path = tmp_path / "campaign.sqlite"
        threads, methods, rungs, same, ids = _fresh_process_campaigns(path)
        assert methods == ["fork", "fork"] and all(same)
        conn = sqlite3.connect(path)
        try:
            assert conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            assert conn.execute("PRAGMA integrity_check").fetchall() == [
                ("ok",)]
        finally:
            conn.close()
        reference = run_campaign(_seu_backend(), SERIAL8)
        with CampaignDb(str(path)) as db:
            for campaign_id in ids:
                replayed = resume_campaign(_seu_backend(), campaign_id,
                                           SERIAL8, db=db)
                assert replayed.resumed_chunks == len(
                    replayed.injections) // 8
                assert _signature(replayed) == _signature(reference)


# ----------------------------------------------------------------------
# each pool worker runs on a CPU of its own
# ----------------------------------------------------------------------
class AffinityBackend(NoisyBackend):
    """Each point's location is the CPU set its worker may run on."""

    name = "affinity"

    def run_batch_seeded(self, points, rng):
        cpus = ",".join(map(str, sorted(executors.os.sched_getaffinity(0))))
        return [Injection(point=p, location=cpus, cycle=0, outcome="ok")
                for p in points]


@pytest.mark.skipif(not hasattr(executors.os, "sched_getaffinity"),
                    reason="CPU affinity is a Linux call")
class TestWorkerCpus:
    def test_each_worker_takes_a_distinct_usable_cpu(self, monkeypatch):
        monkeypatch.setattr(executors.os, "sched_getaffinity",
                            lambda pid: {7, 3, 5})
        context = multiprocessing.get_context("spawn")
        cpus = executors._worker_cpus(context, 2)
        assert [cpus.get(), cpus.get()] == [3, 5] and cpus.empty()
        cpus.close()
        # one worker, or more workers than CPUs: left to the scheduler
        assert executors._worker_cpus(context, 1) is None
        assert executors._worker_cpus(context, 4) is None

    @pytest.mark.skipif(executors._usable_cpus() < 2,
                        reason="pinning needs two usable CPUs")
    def test_process_campaign_workers_run_pinned(self):
        allowed = {str(cpu) for cpu in executors.os.sched_getaffinity(0)}
        report = run_campaign(AffinityBackend(), PROCESS2)
        assert report.executor == "process"
        assert {inj.location for inj in report.injections} <= allowed
        # the parent is never pinned by its own pool
        assert {str(cpu) for cpu in executors.os.sched_getaffinity(0)} == (
            allowed)


# ----------------------------------------------------------------------
# a pool task is a run of consecutive chunks
# ----------------------------------------------------------------------
def _plan(backend, n_chunks):
    points = backend.enumerate_points()
    chunks = [points[i:i + 8] for i in range(0, 8 * n_chunks, 8)]
    return chunks, [chunk_seed(0, i) for i in range(n_chunks)]


class TestGroupedTasks:
    def test_task_size_rule(self):
        size = executors._task_size
        floor = executors.MIN_BATCH_COST_S
        assert size(None, 100, 2, None) == 1  # no timing back yet
        assert size(floor / 10, 100, 2, 30.0) == 1  # a deadline per chunk
        assert size(floor / 10, 100, 2, None) == 10
        assert size(floor / 3, 100, 2, None) == 3  # rounded up
        assert size(floor, 100, 2, None) == 1
        assert size(floor * 5, 100, 2, None) == 1
        assert size(floor / 100, 31, 2, None) == 16  # an even share left
        assert size(floor / 100, 1, 2, None) == 1
        assert size(0.0, 9, 4, None) == 3  # a clock too coarse to tick

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(n_chunks=st.integers(1, 30), start=st.integers(0, 4),
           cost_s=st.sampled_from([0.0, 0.0005, 0.003]),
           workers=st.integers(1, 3),
           timeout=st.sampled_from([None, None, 30.0]))
    def test_tasks_yield_the_serial_results_in_order(
            self, n_chunks, start, cost_s, workers, timeout):
        start = min(start, n_chunks - 1)
        backend = PinnedWallBackend(n_chunks, cost_s)
        chunks, seeds = _plan(backend, n_chunks)
        payload = pickle.dumps((backend, chunks, seeds))
        with _spied():
            results = list(executors.run_process(
                payload, n_chunks, workers, start=start, timeout=timeout))
        serial = list(executors.run_serial(backend, chunks, seeds, start))
        assert [[inj.row() for inj in batch] for batch in results] == [
            [inj.row() for inj in batch] for batch in serial]
        tasks = _StartSpy.tasks
        # consecutive runs covering start.. once each, in chunk order
        assert [first for first, _ in tasks] == list(accumulate(
            [count for _, count in tasks], initial=start))[:-1]
        assert sum(count for _, count in tasks) == n_chunks - start
        n_workers = min(workers, n_chunks - start)
        window = executors._window(n_workers)
        for k, (first, count) in enumerate(tasks):
            assert count <= math.ceil((n_chunks - first) / n_workers)
            if k < window or timeout is not None:
                assert count == 1  # no timing back yet / per-chunk deadline
            elif cost_s:  # a worker's clock sees at least the pinned cost
                assert count <= math.ceil(
                    executors.MIN_BATCH_COST_S / cost_s)

    def test_a_chunk_failure_inside_a_task_fails_only_that_chunk(
            self, monkeypatch):
        # tasks as large as an even share allows, whatever the clock
        # reads: chunk 20 rides in the task of chunks 4..21
        monkeypatch.setattr(executors, "MIN_BATCH_COST_S", 10.0)
        inner = PinnedCostWideBackend(40, 0.0)
        trigger = inner.enumerate_points()[8 * 20]
        config = replace(PROCESS2, max_chunk_retries=2,
                         retry_backoff_s=0.001)
        with _spied():
            report = run_campaign(ChaosBackend(
                inner, [ChaosFault(trigger, "raise", 1)]), config)
        assert (4, 18) in _StartSpy.tasks
        assert report.executor == "process"
        assert report.retried_chunks == 1 and not report.quarantined
        assert _signature(report) == _signature(
            run_campaign(PinnedCostWideBackend(40, 0.0), SERIAL8))
        # a chunk that fails every attempt quarantines, alone
        with _spied():
            report = run_campaign(ChaosBackend(
                PinnedCostWideBackend(40, 0.0),
                [ChaosFault(trigger, "raise", None)]), config)
        assert (4, 18) in _StartSpy.tasks
        assert [(q.index, q.attempts) for q in report.quarantined] == [
            (20, 3)]
        assert report.executor == "process"

    def test_a_worker_dying_mid_task_retries_the_first_undelivered_chunk(
            self, monkeypatch, caplog):
        monkeypatch.setattr(executors, "MIN_BATCH_COST_S", 10.0)
        inner = PinnedCostWideBackend(40, 0.0)
        trigger = inner.enumerate_points()[8 * 20]
        config = replace(PROCESS2, max_chunk_retries=2,
                         retry_backoff_s=0.001)
        with _spied(), caplog.at_level(logging.WARNING,
                                       logger="repro.engine"):
            report = run_campaign(ChaosBackend(
                inner, [ChaosFault(trigger, "die", 1)]), config)
        assert (4, 18) in _StartSpy.tasks
        fell_back = [int(m.group(1)) for m in (
            re.search(r"falling back to serial from chunk (\d+)", r.message)
            for r in caplog.records) if m]
        # the chunk the rung died on is the first of a task not delivered
        assert len(fell_back) == 1
        assert fell_back[0] in {first for first, _ in _StartSpy.tasks}
        assert fell_back[0] <= 20
        assert report.executor == "serial" and report.retried_chunks == 1
        assert _signature(report) == _signature(
            run_campaign(PinnedCostWideBackend(40, 0.0), SERIAL8))

    @pytest.mark.parametrize("k", [0, 3, 9, 25])
    def test_closing_after_k_chunks_yields_nothing_past_k(
            self, monkeypatch, k):
        monkeypatch.setattr(executors, "MIN_BATCH_COST_S", 10.0)
        backend = PinnedCostWideBackend(40, 0.0)
        chunks, seeds = _plan(backend, 40)
        payload = pickle.dumps((backend, chunks, seeds))
        source = executors.run_process(payload, 40, 2)
        taken = [next(source) for _ in range(k)]
        source.close()
        assert [[inj.point for inj in batch] for batch in taken] == chunks[:k]
        assert next(source, None) is None
        assert multiprocessing.active_children() == []

    def test_a_chunk_timeout_keeps_every_task_one_chunk(self, monkeypatch):
        monkeypatch.setattr(executors, "MIN_BATCH_COST_S", 10.0)
        config = replace(PROCESS2, chunk_timeout=30.0)
        with _spied():
            report = run_campaign(PinnedCostWideBackend(20, 0.0), config)
        assert report.executor == "process"
        assert [count for _, count in _StartSpy.tasks] == [1] * 20
        # without the deadline the same campaign groups its tasks
        with _spied():
            run_campaign(PinnedCostWideBackend(20, 0.0), PROCESS2)
        assert max(count for _, count in _StartSpy.tasks) > 1

