"""Campaign service tests: queue, leases, workers, host chaos.

The invariant every scenario here defends: an N-worker service run —
including workers that are SIGKILLed mid-chunk, freeze their
heartbeats, skew their clocks, or stall and resume after their lease
was reassigned — produces a CampaignReport byte-identical to a serial
``run_campaign`` of the same (backend, config).  The service is one
path of ``tests/test_oracle.py``'s property; the identity scenarios
here pin named configurations of it, or assert how the workers got
there (takeovers, drains, cancelled tails, quarantine records).
"""

import gc
import threading
import time

import pytest

from conftest import _signature
from repro.circuit import load
from repro.circuit.library import random_combinational
from repro.core import CampaignDb
from repro.engine import (
    ChaosBackend,
    ChaosFault,
    EarlyStop,
    EngineConfig,
    HostChaos,
    HostFault,
    PpsfpBackend,
    SeuBackend,
    executors,
    run_campaign,
)
from repro.engine.core import plan_campaign
from repro.service import (
    CampaignQueue,
    CampaignWorker,
    LeaseManager,
    LocalWorkerPool,
    run_service_campaign,
)
from repro.faults import collapse
from repro.sim import random_patterns
from repro.soft_error import random_workload
from test_oracle import Config, check

N_CYCLES = 8  # 12 flops x 8 cycles = 96 points, 4 chunks of 24


def _backend(n_cycles: int = N_CYCLES) -> SeuBackend:
    circuit = load("rand_seq")
    return SeuBackend(circuit, random_workload(circuit, n_cycles, seed=7),
                      lane_width=1)


def _poisoned(config, chunk_index, n_cycles=N_CYCLES) -> ChaosBackend:
    """A backend whose chunk ``chunk_index`` (under ``config``) fails on
    every execution."""
    inner = _backend(n_cycles)
    trigger = plan_campaign(inner, config).chunks[chunk_index][0]
    return ChaosBackend(inner, [ChaosFault(trigger, mode="raise",
                                           failures=None)])


class BrokenSetup(SeuBackend):
    """Picklable, and its golden run deterministically fails."""

    def prepare(self) -> None:
        raise ValueError("golden run unavailable")


def _config(**kw) -> EngineConfig:
    kw.setdefault("batch_size", 24)
    kw.setdefault("seed", 7)
    kw.setdefault("executor", "serial")
    return EngineConfig(**kw)


def _run_inline(db_path, backend, config, **worker_kw):
    """Submit + run one in-process worker to completion; return
    (job, report, queue-signature)."""
    with CampaignQueue(db_path) as queue:
        job_id = queue.submit(backend, config)
    worker = CampaignWorker(db_path, **worker_kw)
    worker.run()
    with CampaignQueue(db_path) as queue:
        job = queue.poll(job_id)
        assert job.state == "done", job
        report = queue.result(job_id)
    return job, report


# ----------------------------------------------------------------------
# leases: the claim state machine, on a fake clock
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestLeases:
    def _manager(self, tmp_path, name="leases.sqlite"):
        clock = FakeClock()
        db = CampaignDb(tmp_path / name)
        return LeaseManager(db, now=clock), clock, db

    def test_claims_hand_out_chunks_in_index_order(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.create(1, 3)
        got = [lm.claim_next(1, "w", ttl=10).chunk_index for _ in range(3)]
        assert got == [0, 1, 2]
        assert lm.claim_next(1, "w", ttl=10) is None  # all held, live
        db.close()

    def test_expired_lease_is_taken_over(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.create(1, 1)
        first = lm.claim_next(1, "a", ttl=10)
        assert (first.attempts, first.takeovers) == (1, 0)
        assert lm.claim_next(1, "b", ttl=10) is None  # deadline still live
        clock.advance(11)
        stolen = lm.claim_next(1, "b", ttl=10)
        assert stolen.worker_id == "b"
        assert (stolen.attempts, stolen.takeovers) == (2, 1)
        assert lm.takeover_total(1) == 1
        db.close()

    def test_heartbeat_extends_and_keeps_the_lease(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.create(1, 1)
        lm.claim_next(1, "a", ttl=10)
        clock.advance(8)
        assert lm.extend("a", ttl=10) == 1  # deadline now t+10
        clock.advance(8)  # 16s after claim: would be expired without it
        assert lm.claim_next(1, "b", ttl=10) is None
        db.close()

    def test_stale_holder_cannot_complete_after_takeover(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.create(1, 1)
        lm.claim_next(1, "a", ttl=10)
        clock.advance(11)
        lm.claim_next(1, "b", ttl=10)
        assert not lm.complete(1, 0, "a")  # stale worker loses
        assert lm.complete(1, 0, "b")
        assert lm.get(1, 0).state == "done"
        db.close()

    def test_release_makes_the_chunk_reclaimable(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.create(1, 1)
        lm.claim_next(1, "a", ttl=10)
        assert lm.release(1, 0, "a", error="boom")
        lease = lm.claim_next(1, "b", ttl=10)  # immediately, no expiry wait
        assert lease.worker_id == "b" and lease.attempts == 2
        db.close()

    def test_fail_and_cancel_are_terminal(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.create(1, 2)
        lm.claim_next(1, "a", ttl=10)
        assert lm.fail(1, 0, "a", error="quarantined")
        assert lm.cancel_open(1) == 1  # only the pending chunk 1
        clock.advance(100)
        assert lm.claim_next(1, "b", ttl=10) is None
        assert lm.counts(1) == {"failed": 1, "cancelled": 1}
        db.close()

    def test_release_all_on_drain(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.create(1, 3)
        lm.claim_next(1, "a", ttl=10)
        lm.claim_next(1, "a", ttl=10)
        assert lm.release_all("a") == 2
        assert lm.counts(1) == {"released": 2, "pending": 1}
        db.close()

    def test_worker_registry_reaps_on_lapsed_heartbeats(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.register_worker("a", pid=1, host="h")
        lm.bump_worker("a", done=2, failures=1)
        assert lm.reap_stale_workers(ttl=10) == 0
        clock.advance(31)  # 3 TTLs
        assert lm.reap_stale_workers(ttl=10) == 1
        (row,) = lm.workers()
        assert row[3] == "gone" and row[5] == 2 and row[6] == 1
        db.close()


# ----------------------------------------------------------------------
# queue: submit / poll / cancel
# ----------------------------------------------------------------------
class TestQueue:
    def test_submit_poll_cancel(self, tmp_path):
        with CampaignQueue(tmp_path / "q.sqlite") as queue:
            job_id = queue.submit(_backend(), _config())
            job = queue.poll(job_id)
            assert job.state == "pending" and not job.finished
            assert queue.cancel(job_id)
            assert queue.poll(job_id).state == "cancelled"
            assert not queue.cancel(job_id)  # terminal: second cancel no-ops

    def test_poll_unknown_job_raises(self, tmp_path):
        with CampaignQueue(tmp_path / "q.sqlite") as queue:
            with pytest.raises(KeyError):
                queue.poll(99)

    def test_cancelled_job_is_not_picked_up(self, tmp_path):
        db_path = tmp_path / "q.sqlite"
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(_backend(), _config())
            queue.cancel(job_id)
        worker = CampaignWorker(db_path, worker_id="w")
        assert worker.run() == 0

    def test_unrunnable_payload_poisons_the_job(self, tmp_path):
        db_path = tmp_path / "q.sqlite"
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(_backend(), _config())
            # corrupt the pickled payload in place
            queue.db.conn.execute(
                "UPDATE service_jobs SET payload=? WHERE id=?",
                (b"garbage", job_id))
            queue.db.conn.commit()
        CampaignWorker(db_path, worker_id="w").run()
        with CampaignQueue(db_path) as queue:
            job = queue.poll(job_id)
        assert job.state == "failed" and job.error


# ----------------------------------------------------------------------
# identity: a service run reports byte-identically to a serial run
# ----------------------------------------------------------------------
class TestServiceIdentity:
    def test_single_worker_matches_serial(self):
        check(Config(path="service", workers=1, batch_size=24))

    def test_early_stop_converges_on_the_serial_chunk(self, tmp_path):
        # commit_every=1 keeps the worker's claim batch at one chunk, so
        # convergence is detected on the exact chunk and the cancelled
        # tail count below is deterministic
        config = _config(batch_size=12, sample=None, shuffle=True,
                         commit_every=1,
                         early_stop=EarlyStop(outcome="failure", margin=0.08,
                                              min_injections=16))
        serial = run_campaign(_backend(n_cycles=32), config)
        assert serial.converged  # the scenario needs an actual early stop
        job, report = _run_inline(tmp_path / "s.sqlite",
                                  _backend(n_cycles=32), config,
                                  worker_id="solo")
        assert _signature(report) == _signature(serial)
        assert job.converged_chunk is not None
        with CampaignQueue(tmp_path / "s.sqlite") as queue:
            counts = queue.leases.counts(job.campaign_id)
        # the un-needed tail past the convergence chunk was cancelled
        assert counts.get("cancelled", 0) == (job.n_chunks
                                              - job.converged_chunk - 1)

    def test_two_threaded_workers_match_serial(self):
        check(Config(path="service", batch_size=12))

    def test_large_pattern_ppsfp_job_survives_its_submitter(self, tmp_path):
        # the job row carries the patterns inline (~400 KB here): it
        # used to hold the path of a temp file the submitting backend
        # owned, unlinked when that object — or its process — went away
        def backend():
            circuit = random_combinational(48, 600, seed=9)
            faults, _ = collapse(circuit)
            batches = [(random_patterns(circuit.inputs, 4096, seed=b), 4096)
                       for b in range(16)]
            return PpsfpBackend(circuit, faults[:200], batches)

        config = _config(batch_size=50)
        serial = run_campaign(backend(), config)
        db_path = tmp_path / "s.sqlite"
        submitted = backend()
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(submitted, config)
        del submitted
        gc.collect()
        CampaignWorker(db_path, worker_id="solo").run()
        with CampaignQueue(db_path) as queue:
            job = queue.poll(job_id)
            assert job.state == "done", job
            assert _signature(queue.result(job_id)) == _signature(serial)

    def test_quarantine_flows_through_the_service(self, tmp_path):
        """A persistently failing chunk ends up quarantined — the same
        first-class 'failed' stratum a serial run reports."""
        config = _config(max_chunk_retries=1, retry_backoff_s=0.001,
                         shuffle=False)
        serial_db = CampaignDb(tmp_path / "serial.sqlite")
        serial = run_campaign(_poisoned(config, 0), config, db=serial_db)
        serial_db.close()
        assert serial.quarantined  # scenario sanity
        job, report = _run_inline(tmp_path / "s.sqlite",
                                  _poisoned(config, 0), config,
                                  worker_id="solo")
        assert _signature(report) == _signature(serial)
        with CampaignQueue(tmp_path / "s.sqlite") as queue:
            counts = queue.leases.counts(job.campaign_id)
            (worker_row,) = queue.leases.workers()
        assert counts.get("failed") == len(serial.quarantined)
        # per-worker failure accounting fed the registry
        assert worker_row[6] >= config.max_chunk_retries + 1

    def test_result_is_a_pure_assembler(self, tmp_path, monkeypatch):
        """``result()`` folds committed records and nothing else: on a
        job with a quarantined chunk it neither re-runs the retry loop
        nor re-executes the chunks behind it, and writes nothing."""
        config = _config(max_chunk_retries=1, retry_backoff_s=0.001,
                         shuffle=False)
        serial = run_campaign(_poisoned(config, 0), config)
        db_path = tmp_path / "s.sqlite"
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(_poisoned(config, 0), config)
        CampaignWorker(db_path, worker_id="solo").run()
        calls = []
        real_execute, real_run = executors.execute_chunk, ChaosBackend.run_batch
        monkeypatch.setattr(
            executors, "execute_chunk",
            lambda *a: calls.append("execute") or real_execute(*a))
        monkeypatch.setattr(
            ChaosBackend, "run_batch",
            lambda *a: calls.append("run_batch") or real_run(*a))
        with CampaignQueue(db_path) as queue:
            job = queue.poll(job_id)
            assert (job.state, job.chunks_done, job.chunks_failed) \
                == ("done", 3, 1)
            records = queue.db.chunk_records(job.campaign_id)
            writes = queue.db.conn.total_changes
            report = queue.result(job_id)
            assert calls == []
            assert queue.db.conn.total_changes == writes
            assert queue.db.chunk_records(job.campaign_id) == records
        assert _signature(report) == _signature(serial)
        assert [q.attempts for q in report.quarantined] == [2]

    def test_result_refuses_an_incomplete_prefix(self, tmp_path):
        # a 'done' job whose records neither converge nor cover every
        # chunk has no report; assembling must raise, not execute
        db_path = tmp_path / "s.sqlite"
        job, _ = _run_inline(db_path, _backend(), _config(),
                             worker_id="solo")
        with CampaignQueue(db_path) as queue:
            queue.db.conn.execute(
                "DELETE FROM chunks WHERE campaign_id=? AND chunk_index=2",
                (job.campaign_id,))
            queue.db.conn.commit()
            with pytest.raises(RuntimeError, match="incomplete"):
                queue.result(job.id)

    def test_early_stop_survives_a_quarantine(self, tmp_path):
        """The stop rule walks *through* a quarantined chunk, as the
        serial engine does: the job converges on the serial chunk
        instead of executing the whole tail."""
        config = _config(shuffle=True, max_chunk_retries=1,
                         retry_backoff_s=0.001,
                         early_stop=EarlyStop("failure", margin=0.08))
        serial_db = CampaignDb(tmp_path / "serial.sqlite")
        serial = run_campaign(_poisoned(config, 1, n_cycles=40), config,
                              db=serial_db)
        serial_records = serial_db.chunk_records(serial.campaign_id)
        serial_db.close()
        assert serial.converged and [q.index for q in serial.quarantined] \
            == [1]  # scenario sanity: stops after the quarantine
        assert len(serial_records) < 20
        job, report = _run_inline(tmp_path / "s.sqlite",
                                  _poisoned(config, 1, n_cycles=40), config,
                                  worker_id="solo")
        assert job.converged_chunk == max(serial_records)
        recorded = job.chunks_done + job.chunks_failed
        assert 0 <= recorded - len(serial_records) < config.commit_every
        assert _signature(report) == _signature(serial)


# ----------------------------------------------------------------------
# a deterministic prepare() failure has one outcome everywhere
# ----------------------------------------------------------------------
def _broken_setup() -> BrokenSetup:
    circuit = load("rand_seq")
    return BrokenSetup(circuit, random_workload(circuit, N_CYCLES, seed=7),
                       lane_width=1)


class TestSetupFailure:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_engine_raises_it_on_every_executor(self, executor):
        # (on the process pool the worker-side raise used to be retried
        # and quarantined chunk by chunk into a "successful" report of
        # zero executed points)
        config = _config(executor=executor, workers=2,
                         max_chunk_retries=1, retry_backoff_s=0.001)
        with pytest.raises(ValueError, match="golden run unavailable"):
            run_campaign(_broken_setup(), config)

    def test_service_fails_the_job_and_the_worker_lives(self, tmp_path):
        db_path = tmp_path / "s.sqlite"
        with CampaignQueue(db_path) as queue:
            broken = queue.submit(_broken_setup(), _config())
            healthy = queue.submit(_backend(), _config())
        worker = CampaignWorker(db_path, worker_id="solo")
        assert worker.run() == 4  # returned, having run the next job
        with CampaignQueue(db_path) as queue:
            job = queue.poll(broken)
            assert job.state == "failed"
            assert job.error == "ValueError: golden run unavailable"
            assert queue.poll(healthy).state == "done"


# ----------------------------------------------------------------------
# host chaos, in-process: stale workers, frozen heartbeats, clock skew
# ----------------------------------------------------------------------
class _Gated(HostChaos):
    """Host faults and a gate: a worker ``opens`` it on that claim; a
    worker that opens nothing holds its first chunk (lease alive) until
    it is open."""

    def __init__(self, faults, gate, opens=None):
        super().__init__(faults)
        self.gate, self.opens = gate, opens

    def on_chunk_claimed(self):
        super().on_chunk_claimed()
        if self.claimed == self.opens:
            self.gate.set()

    def stall_before_record(self):
        super().stall_before_record()
        if self.opens is None and self.claimed == 1:
            assert self.gate.wait(timeout=60)


class TestHostChaosThreaded:
    def test_stale_worker_resuming_after_reassignment(self, tmp_path):
        """Frozen heartbeats + a stall between execute and record: the
        lease expires mid-stall, a peer re-executes, and the stale
        worker's late write is idempotently absorbed.  The peer holds
        its first chunk until the scripted worker has claimed the
        chunk its stall keys on: claiming ``commit_every`` chunks at a
        time, it could otherwise drain the campaign first."""
        config = _config(batch_size=12)
        serial = run_campaign(_backend(n_cycles=16), config)
        db_path = tmp_path / "s.sqlite"
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(_backend(n_cycles=16), config)
        gate = threading.Event()
        scripted = CampaignWorker(db_path, worker_id="scripted",
                                  lease_ttl=1.0, chaos=_Gated(
                                      [HostFault("freeze_heartbeat",
                                                 after_chunks=1),
                                       HostFault("stall", after_chunks=2,
                                                 stall_s=2.5)],
                                      gate, opens=2))
        clean = CampaignWorker(db_path, worker_id="clean", lease_ttl=1.0,
                               chaos=_Gated([], gate))
        threads = [threading.Thread(target=w.run) for w in (scripted, clean)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        with CampaignQueue(db_path) as queue:
            job = queue.poll(job_id)
            assert job.state == "done", job
            assert _signature(queue.result(job_id)) == _signature(serial)
            # the stalled lease really was reassigned
            assert queue.leases.takeover_total(job.campaign_id) >= 1

    def test_clock_skewed_worker_stays_identical(self):
        """A worker whose clock runs 30s fast sees peers' live leases
        as expired and steals them — duplicated execution the
        idempotent record layer must (and does) collapse."""
        check(Config(path="service", batch_size=12, lease_ttl=1.0,
                     hosts=((HostFault("clock_skew", skew_s=30.0),),)))


# ----------------------------------------------------------------------
# host chaos, real processes: SIGKILL, SIGTERM drain, the full gauntlet
# ----------------------------------------------------------------------
class TestHostChaosProcesses:
    def test_sigkilled_worker_is_recovered(self, tmp_path):
        """SIGKILL mid-chunk: the dead worker's lease expires and a
        peer finishes the chunk; the report never notices."""
        config = _config(batch_size=12)
        serial = run_campaign(_backend(n_cycles=24), config)
        report = run_service_campaign(
            _backend(n_cycles=24), config,
            db_path=tmp_path / "s.sqlite", n_workers=3,
            worker_kwargs={"lease_ttl": 1.0},
            # the peers pause on their first chunk: whichever worker
            # finishes importing first would otherwise drain all 24
            # short chunks before the victim reaches its 2nd claim
            per_worker={
                0: {"chaos": HostChaos([HostFault("stall", stall_s=0.6)])},
                1: {"chaos": HostChaos(
                    [HostFault("sigkill", after_chunks=2)])},
                2: {"chaos": HostChaos([HostFault("stall", stall_s=0.6)])}},
            wait_timeout=120)
        assert _signature(report) == _signature(serial)
        with CampaignQueue(tmp_path / "s.sqlite") as queue:
            campaign_id = queue.poll(1).campaign_id
            assert queue.leases.takeover_total(campaign_id) >= 1

    def test_sigterm_drains_gracefully(self, tmp_path):
        """SIGTERM: the worker finishes its in-flight chunk, releases
        held leases, retires its registry row — and a later worker
        completes the campaign identically."""
        config = _config(batch_size=12)
        serial = run_campaign(_backend(n_cycles=24), config)
        db_path = tmp_path / "s.sqlite"
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(_backend(n_cycles=24), config)
        pool = LocalWorkerPool(db_path, 1,
                               worker_kwargs={"lease_ttl": 5.0,
                                              "worker_id": "drainee"})
        pool.start()
        deadline = time.monotonic() + 60
        with CampaignQueue(db_path) as queue:
            while (queue.poll(job_id).chunks_done < 2
                   and time.monotonic() < deadline):
                time.sleep(0.02)
        pool.terminate()
        pool.join(timeout=30)
        assert not pool.alive()
        with CampaignQueue(db_path) as queue:
            job = queue.poll(job_id)
            assert job.state == "running"  # drained, not finished
            held = [l for l in queue.leases.leases(job.campaign_id)
                    if l.state == "held"]
            assert not held  # everything released on the way out
            rows = dict((w[0], w[3]) for w in queue.leases.workers())
            assert rows["drainee"] == "drained"
        # a fresh worker picks the campaign back up to completion
        CampaignWorker(db_path, worker_id="finisher").run()
        with CampaignQueue(db_path) as queue:
            assert queue.poll(job_id).state == "done"
            report = queue.result(job_id)
        assert _signature(report) == _signature(serial)

    def test_acceptance_gauntlet_stays_byte_identical(self):
        """4 worker processes — one SIGKILLed mid-chunk, one with frozen
        heartbeats and a stale return, one clock-skewed — still report
        byte-identically to the serial reference.  The other two pause
        on their first chunk, so that the scripted ones get to the
        claims their faults key on."""
        pause = HostFault("stall", stall_s=0.6)
        check(Config(path="service", worker_processes=True, workers=4,
                     batch_size=4, lease_ttl=1.0, hosts=(
                         (pause,),
                         (HostFault("sigkill", after_chunks=2),),
                         (HostFault("freeze_heartbeat", after_chunks=1),
                          HostFault("stall", after_chunks=2, stall_s=2.5)),
                         (HostFault("clock_skew", skew_s=30.0), pause))))
