"""Fault-tolerant campaign tests.

Covers: crash-consistent chunk checkpointing in CampaignDb (WAL, busy
timeout, idempotent chunk records, schema migration), kill-and-resume
identity (in-process aborts are the resume path of
``tests/test_oracle.py``, pinned here; plus a real SIGKILL'd
subprocess, the commit cadence and the fingerprint check), chunk retry
with backoff and quarantine driven by ChaosBackend, the process → serial
recovery ladder (one property over chaos schedules × executors: a chunk
failure is a value the rung yields, an executor failure the one step
down), chunk timeouts, and the executor drain path's suppressed-error
aggregation.
"""

import logging
import os
import re
import signal
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _rows, _signature
from repro.circuit import load
from repro.core import CampaignDb
from repro.engine import (
    ChaosBackend,
    ChaosError,
    ChaosFault,
    EngineConfig,
    Injection,
    SeuBackend,
    resume_campaign,
    run_campaign,
)
from repro.engine import executors
from repro.engine.core import executed, plan_campaign
from repro.soft_error import random_workload
from test_oracle import AbortCampaign, Config, _abort_after, check

N_CYCLES = 8  # 12 flops x 8 cycles = 96 points


def _backend(lane_width: int = 1) -> SeuBackend:
    circuit = load("rand_seq")
    return SeuBackend(circuit, random_workload(circuit, N_CYCLES, seed=7),
                      lane_width=lane_width)


# ----------------------------------------------------------------------
# CampaignDb: crash-consistent chunk checkpointing
# ----------------------------------------------------------------------
class TestCampaignDbCheckpointing:
    def test_wal_and_busy_timeout_on_file_databases(self, tmp_path):
        db = CampaignDb(tmp_path / "c.sqlite")
        assert db.conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert db.conn.execute("PRAGMA busy_timeout").fetchone()[0] == 5000
        db.close()

    def test_record_chunk_is_idempotent(self):
        db = CampaignDb()
        cid = db.create_campaign("c", "circ", "seu", "w")
        rows = [("f1", 0, "masked"), ("f2", 1, "failure")]
        assert db.record_chunk(cid, 0, rows, seed=7) is True
        # replaying the same chunk (crash between commit and checkpoint,
        # then resume) must not double-count
        assert db.record_chunk(cid, 0, rows, seed=7) is False
        assert db.summary(cid).total == 2
        assert db.chunk_records(cid)[0].n_points == 2
        assert db.chunk_rows(cid) == {0: rows}

    def test_record_chunk_upgrades_quarantined_to_done(self):
        db = CampaignDb()
        cid = db.create_campaign("c", "circ", "seu", "w")
        assert db.record_chunk(cid, 3, [], status="failed", attempts=4,
                               error="ChaosError: boom") is True
        assert db.chunk_records(cid)[3].status == "failed"
        rows = [("f1", 0, "masked")]
        assert db.record_chunk(cid, 3, rows, attempts=1) is True
        record = db.chunk_records(cid)[3]
        assert record.status == "done" and record.error is None
        assert db.chunk_rows(cid) == {3: rows}
        # but done never downgrades back to failed
        assert db.record_chunk(cid, 3, [], status="failed") is False
        assert db.chunk_records(cid)[3].status == "done"

    def test_chunk_seed_roundtrips_past_signed_64bit(self):
        db = CampaignDb()
        cid = db.create_campaign("c", "circ", "seu", "w")
        seed = (1 << 64) - 3  # unsigned 64-bit, overflows SQLite INTEGER
        db.record_chunk(cid, 0, [("f", 0, "masked")], seed=seed)
        assert db.chunk_records(cid)[0].seed == seed

    def test_schema_migration_from_pre_checkpoint_database(self, tmp_path):
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript("""
            CREATE TABLE campaigns (
                id INTEGER PRIMARY KEY, name TEXT NOT NULL,
                circuit TEXT NOT NULL, fault_model TEXT NOT NULL,
                workload TEXT NOT NULL, params TEXT NOT NULL DEFAULT '{}');
            CREATE TABLE injections (
                id INTEGER PRIMARY KEY,
                campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
                location TEXT NOT NULL, cycle INTEGER NOT NULL DEFAULT 0,
                outcome TEXT NOT NULL);
            INSERT INTO campaigns (name, circuit, fault_model, workload)
                VALUES ('legacy', 'c17', 'stuck-at', 'w');
            INSERT INTO injections (campaign_id, location, cycle, outcome)
                VALUES (1, 'f1', 0, 'failure');
        """)
        conn.commit()
        conn.close()
        db = CampaignDb(path)
        # old rows still readable, new chunk machinery available
        assert db.summary(1).total == 1
        assert db.chunk_records(1) == {}
        db.record_chunk(1, 0, [("f2", 1, "masked")])
        assert db.summary(1).total == 2
        db.close()

    def test_campaign_params_stores_fingerprint(self):
        db = CampaignDb()
        report = run_campaign(
            _backend(), EngineConfig(batch_size=16, executor="serial"), db=db)
        params = db.campaign_params(report.campaign_id)
        assert params["fingerprint"]
        assert params["chunk_size"] == 16
        with pytest.raises(KeyError):
            db.campaign_params(9999)

    def test_checkpoints_cover_every_chunk(self):
        db = CampaignDb()
        report = run_campaign(
            _backend(),
            EngineConfig(batch_size=16, executor="serial", commit_every=3),
            db=db)
        records = db.chunk_records(report.campaign_id)
        chunk_rows = db.chunk_rows(report.campaign_id)
        assert sorted(records) == list(range(96 // 16))
        assert all(r.status == "done" for r in records.values())
        flattened = [row for i in sorted(chunk_rows) for row in chunk_rows[i]]
        assert flattened == _rows(report)


# ----------------------------------------------------------------------
# resume: byte-identical reports
# ----------------------------------------------------------------------
class TestResume:
    def test_resume_requires_db(self):
        with pytest.raises(ValueError, match="resume requires"):
            run_campaign(_backend(), EngineConfig(executor="serial"),
                         resume=1)

    def test_resume_rejects_mismatched_config(self):
        db = CampaignDb()
        config = EngineConfig(batch_size=16, executor="serial")
        report = run_campaign(_backend(), config, db=db)
        other = EngineConfig(batch_size=16, executor="serial", seed=99)
        with pytest.raises(ValueError, match="fingerprint"):
            run_campaign(_backend(), other, db=db,
                         resume=report.campaign_id)
        # different workers / executor / retry policy is legitimate
        relaxed = EngineConfig(batch_size=16, executor="process", workers=2,
                               max_chunk_retries=5)
        resumed = resume_campaign(_backend(), report.campaign_id, relaxed,
                                  db=db)
        assert _signature(resumed) == _signature(report)

    def test_aborted_campaign_resumes_byte_identical(self):
        resumed = check(Config(path="resume", kill_after=3, batch_size=8,
                               commit_every=1, shuffle=True, stop=True))
        assert resumed.resumed_chunks == 3
        assert resumed.describe().endswith("3 chunks resumed")

    def test_commit_batching_loses_only_uncommitted_chunks(self):
        # commit_every=4: aborting after 6 chunks leaves 4 committed
        config = EngineConfig(batch_size=8, executor="serial",
                              commit_every=4)
        reference = run_campaign(_backend(), config)
        db = CampaignDb()
        hook, seen = _abort_after(6)
        with pytest.raises(AbortCampaign):
            run_campaign(_backend(), config, db=db, on_chunk=hook)
        assert sorted(db.chunk_records(seen["campaign_id"])) == [0, 1, 2, 3]
        resumed = resume_campaign(_backend(), seen["campaign_id"], config,
                                  db=db)
        assert resumed.resumed_chunks == 4
        assert _signature(resumed) == _signature(reference)

    def test_resume_of_complete_campaign_replays_everything(self):
        # (no crash: the first run completes under the hook)
        resumed = check(Config(path="resume", kill_after=99, commit_every=1))
        assert resumed.resumed_chunks == 96 // 16
        assert resumed.executor == "serial"

    def test_kill_and_resume_identity(self):
        """Abort after chunk k + resume == one run, on both executors,
        packed and wide, with and without an early stop (the drawn
        version is the oracle's resume path)."""
        for kill_after, executor, lane_width, stop in (
                (1, "process", 64, True), (6, "serial", 256, False)):
            check(Config(path="resume", kill_after=kill_after,
                         executor=executor, lane_width=lane_width,
                         batch_size=8, commit_every=1, shuffle=True,
                         stop=stop))

    def test_sigkilled_subprocess_resumes_byte_identical(self, tmp_path):
        """A real SIGKILL mid-campaign: WAL-committed chunks survive the
        dead process and the resumed report matches an uninterrupted run."""
        db_path = tmp_path / "killed.sqlite"
        script = textwrap.dedent(f"""
            import os, signal
            from repro.circuit import load
            from repro.core import CampaignDb
            from repro.engine import EngineConfig, SeuBackend, run_campaign
            from repro.soft_error import random_workload

            circuit = load("rand_seq")
            backend = SeuBackend(circuit,
                                 random_workload(circuit, {N_CYCLES}, seed=7),
                                 lane_width=1)
            config = EngineConfig(batch_size=8, executor="serial",
                                  commit_every=1)
            seen = {{"n": 0}}
            def hook(report):
                seen["n"] += 1
                if seen["n"] >= 4:
                    os.kill(os.getpid(), signal.SIGKILL)
            run_campaign(backend, config, db=CampaignDb({str(db_path)!r}),
                         on_chunk=hook)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = (os.path.join(os.path.dirname(__file__), os.pardir,
                                          "src")
                             + os.pathsep + env.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        config = EngineConfig(batch_size=8, executor="serial",
                              commit_every=1)
        reference = run_campaign(_backend(), config)
        db = CampaignDb(db_path)
        campaign_id = db.campaigns_for("rand_s_12f_s3")[-1]
        assert 1 <= len(db.chunk_records(campaign_id)) < 96 // 8
        resumed = resume_campaign(_backend(), campaign_id, config, db=db)
        assert resumed.resumed_chunks >= 1
        assert _signature(resumed) == _signature(reference)
        assert db.summary(campaign_id).total == reference.total
        db.close()

    def test_resume_on_auto_process_executor_runs_correct_chunks(
            self, monkeypatch):
        """Resume + auto-probe → process: the probe's payload pickles the
        *sliced* remaining lists, but process workers index chunks by
        absolute index — a resumed campaign must not execute shifted
        chunks (or shifted seeds) and still report identity."""
        monkeypatch.setattr(executors, "MIN_BATCH_COST_S", 0.0)
        monkeypatch.setattr(executors, "COLD_POOL_COST_S", 0.0)
        monkeypatch.setattr(executors, "_usable_cpus", lambda: 2)
        resumed = check(Config(path="resume", executor="auto", batch_size=8,
                               commit_every=1, kill_after=3))
        assert resumed.resumed_chunks >= 1
        assert resumed.executor == "process"  # the probe did pick process


# ----------------------------------------------------------------------
# chunk retry, quarantine, and the recovery ladder (via ChaosBackend)
# ----------------------------------------------------------------------
def _chaos(mode, failures, lane_width=1, point_index=20, **kwargs):
    backend = _backend(lane_width)
    trigger = backend.enumerate_points()[point_index]
    return ChaosBackend(backend, [ChaosFault(trigger, mode, failures)],
                        **kwargs)


class SpySeuBackend(SeuBackend):
    """Appends the pid to ``spy_path`` whenever ``prepare()`` actually
    builds — one line per payload load that cost a golden run."""

    def __init__(self, *args, spy_path, **kwargs):
        super().__init__(*args, **kwargs)
        self.spy_path = spy_path

    def prepare(self):
        if self._golden is None:
            with open(self.spy_path, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        super().prepare()


def _chaos_schedule(inner, schedule, **kwargs):
    """``schedule``: (chunk index, mode, failures) triples on the 8-point
    chunks of ``inner``."""
    points = inner.enumerate_points()
    return ChaosBackend(inner, [ChaosFault(points[8 * chunk], mode, failures)
                                for chunk, mode, failures in schedule],
                        **kwargs)


class _Warnings(logging.Handler):
    """The engine's warnings, captured without a function-scoped fixture
    (hypothesis re-enters the test body per example)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())

    def __enter__(self):
        logging.getLogger("repro.engine").addHandler(self)
        return self.messages

    def __exit__(self, *exc_info):
        logging.getLogger("repro.engine").removeHandler(self)


def _warm_timeout(executor):
    """A ``chunk_timeout`` only a hang can exceed: on the pool, a cold
    worker's spawn + imports + ``prepare()`` land on its first chunk, so
    spawn it on a clean campaign first and leave it a wider deadline."""
    if executor != "process":
        return 0.4
    run_campaign(_backend(), EngineConfig(batch_size=8, executor="process",
                                          workers=2))
    return 1.0


RETRY_CONFIG = EngineConfig(batch_size=8, executor="serial",
                            max_chunk_retries=2, retry_backoff_s=0.001)


class TestRetryAndQuarantine:
    def test_chaos_fault_validates_mode(self):
        with pytest.raises(ValueError, match="unknown chaos mode"):
            ChaosFault(("x", 0), "explode")

    def test_chaos_backend_is_transparent_when_quiet(self):
        report = check(Config(batch_size=8, faults=((20, "raise", 0),)))
        assert report.retried_chunks == 0 and not report.quarantined

    @pytest.mark.parametrize("n_failures", [1, 5])
    @pytest.mark.parametrize("mode", ["raise", "malform"])
    def test_chunk_failure_on_the_pool_costs_no_worker_reload(
            self, mode, n_failures, tmp_path):
        # a failed chunk is a value the pool rung yields: it is retried
        # in the parent while the rung keeps its token, its payload file
        # and its workers' prepared state — re-opening the rung behind
        # each failure made every worker unpickle and prepare() again
        spy = tmp_path / "prepare.spy"
        circuit = load("rand_seq")
        inner = SpySeuBackend(circuit, random_workload(circuit, N_CYCLES,
                                                       seed=7),
                              lane_width=1, spy_path=str(spy))
        schedule = [(2 * k + 1, mode, 1) for k in range(n_failures)]
        config = EngineConfig(batch_size=8, executor="process", workers=2,
                              max_chunk_retries=2, retry_backoff_s=0.001)
        with _Warnings() as warnings:
            report = run_campaign(_chaos_schedule(inner, schedule), config)
        reference = run_campaign(
            _backend(), EngineConfig(batch_size=8, executor="serial"))
        assert _signature(report) == _signature(reference)
        assert report.retried_chunks == n_failures
        assert report.executor == "process" and not report.quarantined
        assert sum("retry 1/2" in m for m in warnings) == n_failures
        assert not any("falling back" in m for m in warnings)
        loads = [int(pid) for pid in spy.read_text().split()]
        in_workers = [pid for pid in loads if pid != os.getpid()]
        # one load per worker that took a task — not x (1 + failures)
        assert 1 <= len(in_workers) == len(set(in_workers)) <= 2
        assert loads.count(os.getpid()) == 1  # the parent-side retries

    def test_backoff_is_exponential_and_capped(self):
        from repro.engine.core import RETRY_BACKOFF_CAP_S

        config = EngineConfig(batch_size=8, executor="serial",
                              max_chunk_retries=3, retry_backoff_s=0.01)
        t0 = time.perf_counter()
        report = run_campaign(_chaos("raise", failures=3), config)
        elapsed = time.perf_counter() - t0
        assert report.retried_chunks == 1
        # three backoffs: 0.01 + 0.02 + 0.04
        assert elapsed >= 0.07
        assert RETRY_BACKOFF_CAP_S >= 0.04

    def test_persistent_failure_is_quarantined_not_fatal(self, caplog):
        config = EngineConfig(batch_size=8, executor="serial",
                              max_chunk_retries=1, retry_backoff_s=0.001)
        with caplog.at_level(logging.ERROR, logger="repro.engine"):
            report = run_campaign(_chaos("raise", failures=None), config)
        reference = run_campaign(_backend(), config)
        # the campaign completed: every chunk but the poisoned one
        assert len(report.quarantined) == 1
        quarantined = report.quarantined[0]
        assert quarantined.index == 2 and quarantined.n_points == 8
        assert quarantined.attempts == 2  # original + 1 retry
        assert "ChaosError" in quarantined.error
        assert report.executed == reference.executed - 8
        assert report.quarantined_points == 8
        assert "1 chunks quarantined (8 points failed)" in report.describe()
        assert any("quarantin" in r.message for r in caplog.records)

    def test_quarantine_checkpoints_failed_stratum(self):
        config = EngineConfig(batch_size=8, executor="serial",
                              max_chunk_retries=0, commit_every=1,
                              retry_backoff_s=0.001)
        db = CampaignDb()
        report = run_campaign(_chaos("raise", failures=None), config, db=db)
        records = db.chunk_records(report.campaign_id)
        assert records[2].status == "failed"
        assert "ChaosError" in records[2].error
        # resume with the harness fault fixed: the quarantined chunk is
        # re-executed and its record upgraded — full identity restored
        reference = run_campaign(_backend(), config)
        resumed = resume_campaign(_backend(), report.campaign_id, config,
                                  db=db)
        assert _signature(resumed) == _signature(reference)
        assert not resumed.quarantined
        records = db.chunk_records(report.campaign_id)
        assert all(r.status == "done" for r in records.values())
        assert db.summary(report.campaign_id).total == reference.total

    def test_max_chunk_retries_zero_quarantines_immediately(self):
        config = EngineConfig(batch_size=8, executor="serial",
                              max_chunk_retries=0, retry_backoff_s=0.001)
        report = run_campaign(_chaos("raise", failures=1), config)
        assert report.quarantined and report.quarantined[0].attempts == 1
        assert report.retried_chunks == 0

    def test_die_in_worker_walks_ladder_and_recovers(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            report = check(Config(batch_size=8, executor="process",
                                  faults=((20, "die", 1),)))
        # the pool died mid-way: the report names the rung that finished
        assert report.executor == "serial"
        assert report.retried_chunks >= 1
        assert not report.quarantined
        fallbacks = [r.getMessage() for r in caplog.records
                     if "falling back" in r.message]
        # (the break may surface on a chunk ahead of the fatal one)
        assert len(fallbacks) == 1 and re.match(
            r"engine: process executor failing; falling back to serial "
            r"from chunk [012] \(process pool failed \(BrokenProcessPool",
            fallbacks[0])

    def test_hung_chunk_times_out_and_recovers(self, caplog):
        reference = run_campaign(
            _backend(), EngineConfig(batch_size=8, executor="serial"))
        # the pool abandons the hung worker and steps down; the serial
        # rung abandons the chunk's deadline thread and stays
        for executor, logged in (("process", "timed out"),
                                 ("serial", "ChunkTimeout")):
            config = EngineConfig(batch_size=8, executor=executor, workers=2,
                                  chunk_timeout=_warm_timeout(executor),
                                  max_chunk_retries=2, retry_backoff_s=0.001)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro.engine"):
                report = run_campaign(
                    _chaos("hang", failures=1, hang_s=2.0), config)
            assert _signature(report) == _signature(reference)
            assert report.executor == "serial"
            assert report.retried_chunks == 1
            assert any(logged in r.message for r in caplog.records)

    def test_hang_without_timeout_fails_and_retries(self):
        # no chunk_timeout: the hang wakes up, raises, and the retry
        # loop recovers — campaigns without timeouts still terminate
        config = EngineConfig(batch_size=8, executor="serial",
                              max_chunk_retries=1, retry_backoff_s=0.001)
        report = run_campaign(
            _chaos("hang", failures=1, hang_s=0.05), config)
        reference = run_campaign(_backend(), config)
        assert _signature(report) == _signature(reference)
        assert report.retried_chunks == 1

    def test_accounting_errors_are_not_retried(self):
        # an on_chunk crash is the campaign's problem, not the chunk's:
        # it must propagate without burning the retry budget
        config = EngineConfig(batch_size=8, executor="serial",
                              max_chunk_retries=5, retry_backoff_s=0.001)
        hook, _ = _abort_after(2)
        with pytest.raises(AbortCampaign):
            run_campaign(_backend(), config, on_chunk=hook)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_accounting_oserror_propagates_raw(self, executor):
        # an OSError from the accounting path must not be mistaken for a
        # pool failure: pre-tagging, the ladder fed it to the retry loop
        # (which re-executed the *next* chunk) and swallowed the error
        config = EngineConfig(batch_size=8, executor=executor, workers=2,
                              max_chunk_retries=5, retry_backoff_s=0.001)
        calls = {"n": 0}

        def hook(report):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("checkpoint disk full")

        with pytest.raises(OSError, match="checkpoint disk full"):
            run_campaign(_backend(), config, on_chunk=hook)
        assert calls["n"] == 2  # no retry re-entered the accounting path

    def test_persistently_hung_chunk_is_quarantined_not_deadlocked(self):
        # parent-side retries honour chunk_timeout too: a chunk that
        # hangs deterministically must quarantine after its budget, not
        # block the campaign forever in the untimed retry loop
        self._assert_hung_chunk_quarantined("process")

    def test_chunk_timeout_holds_on_the_serial_rung(self):
        # the serial rung is where the ladder ends: its *first* attempt
        # at a chunk runs against the deadline too (it used to be
        # untimed and waited out the hang) ...
        self._assert_hung_chunk_quarantined("serial")

        # ... and without a deadline it stays a plain inline call: no
        # thread is spawned (the hung ones above may end any moment, so
        # ask who runs the batch rather than count threads)
        class SeesItsThread:
            name, circuit_name, fault_model, workload = "t", "n", "f", "w"
            seen = set()

            def enumerate_points(self):
                return list(range(4))

            def prepare(self):
                return None

            def run_batch(self, points):
                self.seen.add(threading.current_thread())
                return [Injection(p, f"p{p}", 0, "masked") for p in points]

        backend = SeesItsThread()
        run_campaign(backend, EngineConfig(batch_size=2, executor="serial"))
        assert backend.seen == {threading.current_thread()}

    @staticmethod
    def _assert_hung_chunk_quarantined(executor):
        config = EngineConfig(batch_size=8, executor=executor, workers=2,
                              chunk_timeout=_warm_timeout(executor),
                              max_chunk_retries=1, retry_backoff_s=0.001)
        t0 = time.perf_counter()
        report = run_campaign(
            _chaos("hang", failures=None, hang_s=8.0), config)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0  # never waited out the 8s hang
        assert len(report.quarantined) == 1
        assert report.quarantined[0].index == 2
        assert "ChunkTimeout" in report.quarantined[0].error
        reference = run_campaign(
            _backend(), EngineConfig(batch_size=8, executor="serial"))
        assert report.executed == reference.executed - 8

    def test_chaos_triggers_on_seeded_backends(self):
        class SeededNoise:
            name = "noise"
            circuit_name = "none"
            fault_model = "noise"
            workload = "w"
            lane_width = 1

            def enumerate_points(self):
                return list(range(16))

            def prepare(self):
                return None

            def run_batch(self, points):  # pragma: no cover - seeded wins
                raise AssertionError("seeded path expected")

            def run_batch_seeded(self, points, rng):
                return [Injection(point=p, location=f"p{p}", cycle=0,
                                  outcome="failure" if rng.random() < 0.5
                                  else "masked")
                        for p in points]

        config = EngineConfig(batch_size=4, executor="serial", seed=3,
                              max_chunk_retries=2, retry_backoff_s=0.001)
        reference = run_campaign(SeededNoise(), config)
        chaos = ChaosBackend(SeededNoise(), [ChaosFault(5, "raise", 1)])
        report = run_campaign(chaos, config)
        assert _rows(report) == _rows(reference)  # per-chunk RNG replayed
        assert report.retried_chunks == 1


# ----------------------------------------------------------------------
# the ladder as a whole: chunk failures are values, executor failures
# the one step down
# ----------------------------------------------------------------------
_FAULT = st.tuples(st.sampled_from(["raise", "malform", "hang", "die"]),
                   st.sampled_from([1, 2, None]))  # None: persistent
LADDER_CONFIG = EngineConfig(batch_size=8, workers=2, max_chunk_retries=2,
                             retry_backoff_s=0.001)


class TestLadder:
    @settings(max_examples=6, deadline=None)
    @given(executor=st.sampled_from(["serial", "process"]),
           faults=st.dictionaries(st.integers(0, 11), _FAULT, max_size=2))
    @example(executor="serial", faults={2: ("raise", 2)})
    @example(executor="serial", faults={2: ("malform", 2), 11: ("hang", 1)})
    @example(executor="process", faults={0: ("raise", 1), 5: ("malform", None)})
    @example(executor="process", faults={3: ("die", 1), 4: ("raise", 2)})
    @example(executor="process", faults={6: ("hang", None)})
    def test_any_chaos_schedule_resolves_every_chunk_once(self, executor,
                                                          faults):
        """Whatever fails — a chunk (transient or for good), a worker, a
        hang past the deadline — ``executed`` yields exactly one event
        per chunk, ascending, opens each rung at most once, steps down
        at most once, quarantines exactly the persistently failing
        chunks and reports everything else as the serial reference
        does."""
        config = replace(LADDER_CONFIG, executor=executor,
                         chunk_timeout=_warm_timeout(executor))
        backend = _chaos_schedule(
            _backend(), [(chunk, mode, failures)
                         for chunk, (mode, failures) in faults.items()],
            hang_s=2.0)
        plan = plan_campaign(backend, config)
        opened = []

        def counting(rung):
            def opener(*args, **kwargs):
                opened.append(rung.__name__)
                return rung(*args, **kwargs)
            return opener

        with _Warnings() as warnings, \
                mock.patch.object(executors, "run_process",
                                  counting(executors.run_process)), \
                mock.patch.object(executors, "run_serial",
                                  counting(executors.run_serial)):
            events = list(executed(backend, plan, config, 0))
        assert opened[0] == f"run_{executor}"
        assert len(opened) == len(set(opened))  # no rung is re-opened
        clean = _backend()
        clean.prepare()
        assert [event.index for event in events] == list(range(12))
        assert sum("falling back" in m for m in warnings) <= 1
        persistent = {chunk for chunk, (_, failures) in faults.items()
                      if failures is None}
        assert {e.index for e in events if e.batch is None} == persistent
        for event in events:
            if event.batch is not None:
                expected = clean.run_batch(plan.chunks[event.index])
                assert ([inj.row() for inj in event.batch]
                        == [inj.row() for inj in expected])
            else:
                assert event.attempts == 3 and event.error

    def test_pool_yields_a_chunk_exception_in_its_slot(self):
        # _run_pool is pool-agnostic: a thread pool shows the window
        # sliding on past a failed chunk — every index submitted exactly
        # once, the exception in its slot, later slots still in order
        submitted = []

        def task(i):
            if i == 2:
                raise ChaosError("chunk 2 failed mid-window")
            return i

        with ThreadPoolExecutor(max_workers=2) as pool:
            def submit(i):
                submitted.append(i)
                return pool.submit(task, i)

            results = list(executors._run_pool(pool, submit, 7, 3, 0))
        assert submitted == list(range(7))
        assert isinstance(results[2], ChaosError)
        assert results[:2] + results[3:] == [0, 1, 3, 4, 5, 6]


# ----------------------------------------------------------------------
# executor drain aggregation
# ----------------------------------------------------------------------
class TestDrainAggregation:
    def test_drain_logs_suppressed_errors(self, caplog):
        class StaggeredBackend:
            """Chunk 0 converges (slowly); later chunks fail fast, so
            speculative in-flight futures hold errors at drain time."""

            name = "staggered"
            circuit_name = "none"
            fault_model = "chaos"
            workload = "w"

            def enumerate_points(self):
                return list(range(8))

            def prepare(self):
                return None

            def run_batch(self, points):
                if points[0] == 0:
                    time.sleep(0.15)
                    return [Injection(point=p, location=f"p{p}", cycle=0,
                                      outcome="failure") for p in points]
                time.sleep(0.01)
                raise ChaosError(f"speculative chunk {points[0]} failed")

        backend = StaggeredBackend()
        chunks = [[0, 1], [2, 3], [4, 5], [6, 7]]
        seeds = [executors.chunk_seed(0, i) for i in range(4)]
        # _run_pool is pool-agnostic: a local thread pool makes the
        # speculative failures land while chunk 0 is still running
        with ThreadPoolExecutor(max_workers=2) as pool, \
                caplog.at_level(logging.WARNING, logger="repro.engine"):
            source = executors._run_pool(
                pool, lambda i: pool.submit(executors.execute_chunk, backend,
                                            chunks[i], seeds[i]),
                len(chunks), 4, 0)
            assert [inj.point for inj in next(source)] == [0, 1]
            source.close()  # the consumer stops after chunk 0
        drained = [r for r in caplog.records if "suppressed" in r.message]
        assert drained and "ChaosError" in drained[0].message

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_consumer_error_reaches_the_caller_raw(self, executor):
        # accounting runs in the consumer's frame, between two next()
        # calls: its errors never pass through the executor, so they
        # cannot be mistaken for a pool failure — and the pool is still
        # drained and joined (nothing in flight, not even the pool's own
        # threads left) when they surface
        config = EngineConfig(batch_size=8, executor=executor, workers=2,
                              max_chunk_retries=5, retry_backoff_s=0.001)
        before = threading.active_count()
        hook, seen = _abort_after(2)
        with pytest.raises(AbortCampaign):
            run_campaign(_backend(), config, on_chunk=hook)
        assert seen["n"] == 2  # no retry re-entered the accounting path
        assert threading.active_count() <= before


# ----------------------------------------------------------------------
# executor timeout taxonomy
# ----------------------------------------------------------------------
class _StubFuture:
    def __init__(self, exc):
        self._exc = exc

    def result(self, timeout=None):
        raise self._exc

    def cancel(self):
        return True

    def cancelled(self):
        return True


class _StubPool:
    def __init__(self):
        self.shutdown_calls = []

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_calls.append((wait, cancel_futures))


class TestExecutorTimeouts:
    def test_futures_timeout_classifies_as_chunk_timeout(self):
        # concurrent.futures.TimeoutError is NOT the builtin TimeoutError
        # on 3.10; mistaking it for a chunk failure would send the finally
        # path into _drain — blocking forever on the hung future
        import concurrent.futures

        pool = _StubPool()
        future = _StubFuture(concurrent.futures.TimeoutError())
        with pytest.raises(executors.ChunkTimeout):
            next(executors._run_pool(pool, lambda i: future, 1, 2, 0,
                                     timeout=0.1))
        # the hung pool was abandoned without waiting, never drained
        assert pool.shutdown_calls == [(False, True)]

    def test_execute_chunk_timed_returns_fast_results(self):
        backend = _backend()
        chunk = list(backend.enumerate_points())[:4]
        seed = executors.chunk_seed(0, 0)
        backend.prepare()
        direct = executors.execute_chunk(backend, chunk, seed)
        timed = executors.execute_chunk_timed(backend, chunk, seed, 30.0)
        assert [inj.row() for inj in timed] == [inj.row() for inj in direct]

    def test_execute_chunk_timed_abandons_hung_chunk(self):
        class Sleeper:
            name = "sleeper"
            circuit_name = "none"
            fault_model = "chaos"
            workload = "w"

            def enumerate_points(self):
                return [0]

            def prepare(self):
                return None

            def run_batch(self, points):  # pragma: no cover - abandoned
                time.sleep(8.0)
                return []

        t0 = time.perf_counter()
        with pytest.raises(executors.ChunkTimeout, match="overdue"):
            executors.execute_chunk_timed(Sleeper(), [0], 1, 0.2)
        assert time.perf_counter() - t0 < 2.0


# ----------------------------------------------------------------------
# chaos scratch hygiene: attempt markers must not outlive campaigns
# ----------------------------------------------------------------------
class TestChaosScratchCleanup:
    def test_markers_cleared_on_clean_campaign_completion(self):
        backend = _chaos("raise", failures=1)
        report = run_campaign(backend, RETRY_CONFIG)
        assert report.retried_chunks == 1  # the fault really fired
        backend.clear_markers()  # sweeps this campaign's markers
        assert os.path.isdir(backend.scratch_dir)
        assert os.listdir(backend.scratch_dir) == []
        # and the budget reset with them: the same wrapper re-runs its
        # scripted fault afresh on the next campaign
        report2 = run_campaign(backend, RETRY_CONFIG)
        assert report2.retried_chunks == 1

    def test_markers_survive_an_aborted_campaign(self):
        """An aborted campaign keeps its attempt counts for the resume
        that follows."""
        backend = _chaos("raise", failures=1)
        hook, _ = _abort_after(3)  # past chunk 2, where the fault fires
        with pytest.raises(AbortCampaign):
            run_campaign(backend, RETRY_CONFIG, on_chunk=hook)
        assert os.listdir(backend.scratch_dir) != []

    def test_shutdown_pools_sweeps_owned_scratch_dirs(self):
        from repro.engine import chaos as chaos_mod

        backend = _chaos("raise", failures=1)
        scratch = backend.scratch_dir
        assert scratch in chaos_mod._scratch_dirs
        executors.shutdown_pools()
        assert scratch not in chaos_mod._scratch_dirs
        assert not os.path.exists(scratch)

    def test_caller_supplied_scratch_is_not_owned(self, tmp_path):
        scratch = tmp_path / "mine"
        scratch.mkdir()
        from repro.engine import chaos as chaos_mod

        _chaos("raise", failures=1, scratch_dir=str(scratch))
        assert str(scratch) not in chaos_mod._scratch_dirs
        chaos_mod.cleanup_scratch()
        assert scratch.is_dir()  # cleanup never touches borrowed dirs
