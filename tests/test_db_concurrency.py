"""Concurrent multi-process CampaignDb access.

The campaign service hinges on many writers sharing one SQLite file:
WAL mode keeps readers unblocked, the busy timeout serializes writers
instead of failing them, idempotent chunk records make interleaved
writes safe, and the in-place migration of a per-row database to
outcome blocks must tolerate several fresh connections racing it.
These tests drive each of those properties with real processes (and
threads where the contention is identical) rather than trusting the
pragmas.
"""

import os
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter

import pytest

from repro.circuit import load
from repro.core import CampaignDb
from repro.core import campaign as campaign_mod
from repro.engine import (
    EngineConfig,
    SeuBackend,
    resume_campaign,
    run_campaign,
)
from repro.soft_error import random_workload

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

_CAMPAIGNS_DDL = """
CREATE TABLE campaigns (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    circuit TEXT NOT NULL,
    fault_model TEXT NOT NULL,
    workload TEXT NOT NULL,
    params TEXT NOT NULL DEFAULT '{}'
);
"""

#: The pre-checkpoint schema (no ``chunk_index`` column, no service
#: tables) — what a database from before the fault-tolerance work
#: looks like on disk.
OLD_SCHEMA = _CAMPAIGNS_DDL + """
CREATE TABLE injections (
    id INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    location TEXT NOT NULL,
    cycle INTEGER NOT NULL DEFAULT 0,
    outcome TEXT NOT NULL
);
"""

#: The per-row table of the checkpointing versions the outcome blocks
#: replaced: ``chunk_index`` and the three secondary indexes ...
ROW_STORE_INJECTIONS_DDL = """
CREATE TABLE injections (
    id INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    location TEXT NOT NULL,
    cycle INTEGER NOT NULL DEFAULT 0,
    outcome TEXT NOT NULL,
    chunk_index INTEGER
);
CREATE INDEX idx_inj_campaign ON injections(campaign_id);
CREATE INDEX idx_inj_outcome ON injections(outcome);
CREATE INDEX idx_inj_chunk ON injections(campaign_id, chunk_index);
"""

#: ... next to the ``chunks`` records, which the block store keeps.
ROW_STORE_SCHEMA = _CAMPAIGNS_DDL + ROW_STORE_INJECTIONS_DDL + """
CREATE TABLE chunks (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    chunk_index INTEGER NOT NULL,
    seed INTEGER NOT NULL DEFAULT 0,
    n_points INTEGER NOT NULL DEFAULT 0,
    status TEXT NOT NULL DEFAULT 'done',
    attempts INTEGER NOT NULL DEFAULT 1,
    error TEXT,
    PRIMARY KEY (campaign_id, chunk_index)
);
"""

#: Legacy content: two campaigns whose census and chunk rows interleave
#: in ``id`` order, chunks recorded out of index order (two service
#: writers), unicode and empty locations, a negative and a > 2**32 cycle.
LEGACY_ROWS = [
    (1, None, "ff0", 3, "masked"), (1, None, "ff1", 3, "masked"),
    (2, None, "", -1, "latent"),
    (1, 1, "ff2", 0, "failure"), (1, 1, "ff2", 1, "masked"),
    (2, 0, "flöp→7", 1 << 40, "failure"),
    (1, 0, "ff3", 7, "masked"),
]


def _make_old_schema_db(path, chunked: bool = False) -> list[tuple]:
    """Write ``LEGACY_ROWS`` the way an older version stored them —
    with the ``chunk_index`` column and ``chunks`` records (``chunked``)
    or as the pre-checkpoint schema, where every row is census.
    Returns the flat rows ``CampaignDb.rows()`` must give back."""
    rows = LEGACY_ROWS if chunked else [
        (cid, None, *rest) for cid, _, *rest in LEGACY_ROWS]
    conn = sqlite3.connect(str(path))
    conn.executescript(ROW_STORE_SCHEMA if chunked else OLD_SCHEMA)
    conn.executemany(
        "INSERT INTO campaigns (name, circuit, fault_model, workload)"
        " VALUES (?, 'c', 'seu', 'w')", [("legacy",), ("legacy2",)])
    if chunked:
        conn.executemany(
            "INSERT INTO injections (campaign_id, chunk_index, location,"
            " cycle, outcome) VALUES (?, ?, ?, ?, ?)", rows)
        conn.executemany(
            "INSERT INTO chunks (campaign_id, chunk_index, n_points)"
            " VALUES (?, ?, ?)", [(1, 1, 2), (2, 0, 1), (1, 0, 1)])
    else:
        conn.executemany(
            "INSERT INTO injections (campaign_id, location, cycle, outcome)"
            " VALUES (?, ?, ?, ?)", [(row[0], *row[2:]) for row in rows])
    conn.commit()
    conn.close()
    # one block per (campaign, chunk), blocks in order of their first row
    groups: dict[tuple, list[tuple]] = {}
    for row in rows:
        groups.setdefault(row[:2], []).append(row)
    return [row for group in groups.values() for row in group]


def _tables(path) -> set[str]:
    conn = sqlite3.connect(str(path))
    try:
        return {name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'")}
    finally:
        conn.close()


def _seu_backend() -> SeuBackend:
    circuit = load("rand_seq")  # 12 flops x 8 cycles = 96 points
    return SeuBackend(circuit, random_workload(circuit, 8, seed=7))


def _run_writers(db_path, script_body: str, n: int) -> None:
    """Run ``n`` copies of a writer script concurrently against
    ``db_path``; each gets WORKER_INDEX in argv and starts on a shared
    go-file so the opens genuinely overlap."""
    go_file = str(db_path) + ".go"
    script = textwrap.dedent(f"""
        import os, sys, time
        sys.path.insert(0, {REPO_SRC!r})
        index = int(sys.argv[1])
        while not os.path.exists({go_file!r}):
            time.sleep(0.001)
    """) + textwrap.dedent(script_body)
    procs = [subprocess.Popen([sys.executable, "-c", script, str(i)],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
             for i in range(n)]
    with open(go_file, "w"):
        pass
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()


class TestMultiProcessWriters:
    def test_interleaved_record_chunk_from_two_processes(self, tmp_path):
        """Two processes checkpoint alternating chunks of one campaign;
        every chunk and every row must land exactly once."""
        db_path = tmp_path / "shared.sqlite"
        with CampaignDb(db_path) as db:
            campaign_id = db.create_campaign("svc", "c", "seu", "w")
        _run_writers(db_path, f"""
            from repro.core import CampaignDb
            db = CampaignDb({str(db_path)!r})
            for chunk in range(index, 40, 2):
                rows = [(f"ff{{chunk}}_{{i}}", i, "masked") for i in range(5)]
                db.record_chunk({campaign_id}, chunk, rows, seed=chunk)
            db.close()
        """, n=2)
        with CampaignDb(db_path) as db:
            records = db.chunk_records(campaign_id)
            rows = db.chunk_rows(campaign_id)
        assert sorted(records) == list(range(40))
        assert all(records[i].status == "done" for i in range(40))
        assert all(len(rows[i]) == 5 for i in range(40))

    def test_same_chunk_written_by_both_processes_lands_once(self,
                                                             tmp_path):
        """Both writers race every chunk — the stale-worker shape.
        INSERT OR IGNORE must keep exactly one copy of each."""
        db_path = tmp_path / "dup.sqlite"
        with CampaignDb(db_path) as db:
            campaign_id = db.create_campaign("svc", "c", "seu", "w")
        _run_writers(db_path, f"""
            from repro.core import CampaignDb
            db = CampaignDb({str(db_path)!r})
            for chunk in range(20):
                rows = [(f"ff{{chunk}}_{{i}}", i, "masked") for i in range(5)]
                db.record_chunk({campaign_id}, chunk, rows, seed=chunk)
            db.close()
        """, n=2)
        with CampaignDb(db_path) as db:
            rows = db.chunk_rows(campaign_id)
        assert sorted(rows) == list(range(20))
        assert all(len(rows[i]) == 5 for i in range(20))  # never doubled

    def test_concurrent_opens_migrate_an_old_schema_file(self, tmp_path):
        """Several service workers opening a per-row database at once:
        every connection must come up migrated, the losers of the race
        finding nothing left to pack — every legacy row exactly once."""
        for chunked in (False, True):
            db_path = tmp_path / f"legacy{chunked:d}.sqlite"
            legacy = _make_old_schema_db(db_path, chunked)
            _run_writers(db_path, f"""
                from repro.core import CampaignDb
                db = CampaignDb({str(db_path)!r})
                db.record_chunk(1, 100 + index, [("ffx", 0, "masked")], seed=1)
                db.close()
            """, n=4)
            assert "injections" not in _tables(db_path)
            with CampaignDb(db_path) as db:
                rows = list(db.rows())
                assert rows[:len(legacy)] == legacy
                assert sorted(rows[len(legacy):]) == [
                    (1, 100 + i, "ffx", 0, "masked") for i in range(4)]
                assert sorted(db.chunk_records(1)) == (
                    [0, 1] * chunked + [100, 101, 102, 103])


class TestWriterContention:
    def test_busy_timeout_rides_out_a_held_write_lock(self, tmp_path):
        """A writer blocked behind another's open transaction waits (up
        to the busy timeout) instead of raising 'database is locked'."""
        db_path = tmp_path / "contend.sqlite"
        with CampaignDb(db_path) as db:
            campaign_id = db.create_campaign("svc", "c", "seu", "w")

        holder = CampaignDb(db_path)
        contender = CampaignDb(db_path)
        lock_taken = threading.Event()
        release = threading.Event()

        def hold_lock():
            with holder.transaction():
                holder.record_chunk(campaign_id, 0, [("a", 0, "masked")])
                lock_taken.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=hold_lock)
        thread.start()
        try:
            assert lock_taken.wait(timeout=10)
            # schedule the lock release while the contender is blocked
            threading.Timer(0.3, release.set).start()
            t0 = time.perf_counter()
            assert contender.record_chunk(campaign_id, 1,
                                          [("b", 0, "masked")])
            waited = time.perf_counter() - t0
        finally:
            release.set()
            thread.join(timeout=10)
        assert 0.05 < waited < 5.0  # really blocked, then really won
        with CampaignDb(db_path) as db:
            assert sorted(db.chunk_records(campaign_id)) == [0, 1]
        holder.close()
        contender.close()

    def test_checkpoint_past_the_busy_timeout_fails_the_campaign(
            self, tmp_path, caplog):
        """Another connection holds the write lock past the busy timeout
        while a campaign flushes a checkpoint.  The flush runs in the
        accounting path, so ``run_campaign`` raises; the chunk is not a
        chunk failure (no retry, no quarantine), what committed before
        the lock stays intact, and a resume after the lock is released
        ends where an uninterrupted run does."""
        config = EngineConfig(batch_size=8, executor="serial",
                              commit_every=1)
        reference = run_campaign(_seu_backend(), config, db=CampaignDb())
        db_path = tmp_path / "contended.sqlite"
        db = CampaignDb(db_path)
        db.conn.execute("PRAGMA busy_timeout=50")
        holder = sqlite3.connect(str(db_path), isolation_level=None)

        def lock_after_three_chunks(report):
            if len(report.injections) == 24 and not holder.in_transaction:
                holder.execute("BEGIN IMMEDIATE")

        try:
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                run_campaign(_seu_backend(), config, db=db,
                             on_chunk=lock_after_three_chunks)
            assert holder.in_transaction  # the lock really was held
        finally:
            holder.close()  # releases the lock
        assert not [r for r in caplog.records
                    if "retry" in r.getMessage()
                    or "quarantin" in r.getMessage()]
        records = db.chunk_records(1)
        assert sorted(records) == [0, 1, 2]
        assert all(r.status == "done" and r.attempts == 1
                   for r in records.values())
        assert [row[2:] for row in db.rows(1)] == [
            inj.row() for inj in reference.injections[:24]]
        resumed = resume_campaign(_seu_backend(), 1, config, db=db)
        assert resumed.resumed_chunks == 3
        assert [inj.row() for inj in resumed.injections] == [
            inj.row() for inj in reference.injections]
        assert [row[2:] for row in db.rows(1)] == [
            inj.row() for inj in reference.injections]
        db.close()

    def test_wal_readers_are_not_blocked_by_a_writer(self, tmp_path):
        """A reader during another connection's open write transaction
        sees the last committed snapshot — never an error, never the
        uncommitted rows."""
        db_path = tmp_path / "wal.sqlite"
        with CampaignDb(db_path) as db:
            campaign_id = db.create_campaign("svc", "c", "seu", "w")
            db.record_chunk(campaign_id, 0, [("a", 0, "masked")])

        writer = CampaignDb(db_path)
        reader = CampaignDb(db_path)
        try:
            with writer.transaction():
                writer.record_chunk(campaign_id, 1, [("b", 0, "masked")])
                seen_mid_tx = sorted(reader.chunk_records(campaign_id))
            seen_after = sorted(reader.chunk_records(campaign_id))
        finally:
            writer.close()
            reader.close()
        assert seen_mid_tx == [0]
        assert seen_after == [0, 1]


class TestMigrationRace:
    def test_losing_the_migration_race_is_benign(self, tmp_path,
                                                 monkeypatch):
        """Deterministically reproduce the migration race: between this
        connection seeing the legacy table and taking the write lock, a
        rival connection migrates the whole file.  The loser must
        re-check under the lock, find nothing to pack and come up on
        the migrated store — not fail on the dropped table, not pack
        anything twice."""
        db_path = tmp_path / "race.sqlite"
        legacy = _make_old_schema_db(db_path, chunked=True)
        real_connect = sqlite3.connect
        fired = []

        class RacingConnection(sqlite3.Connection):
            def execute(self, sql, *args):
                if sql == "BEGIN IMMEDIATE" and not fired:
                    fired.append(True)
                    CampaignDb(db_path).close()  # the rival migrates
                return super().execute(sql, *args)

        monkeypatch.setattr(
            campaign_mod.sqlite3, "connect",
            lambda path, **kw: real_connect(path,
                                            factory=RacingConnection, **kw))
        db = CampaignDb(db_path)  # must not raise despite losing the race
        assert fired  # the rival really did beat us to the migration
        assert list(db.rows()) == legacy
        assert db.record_chunk(1, 5, [("ffy", 0, "masked")], seed=9)
        db.close()
        assert "injections" not in _tables(db_path)

    def test_other_migration_failures_still_propagate(self, tmp_path,
                                                      monkeypatch):
        """Only the lost race is benign — a genuinely failing migration
        (e.g. a disk error on the DROP) must raise, and roll back whole:
        the legacy rows stay, no block is left behind."""
        db_path = tmp_path / "broken.sqlite"
        legacy = _make_old_schema_db(db_path)
        real_connect = sqlite3.connect

        class BrokenConnection(sqlite3.Connection):
            def execute(self, sql, *args):
                if sql.startswith("DROP TABLE injections"):
                    raise sqlite3.OperationalError("disk I/O error")
                return super().execute(sql, *args)

        monkeypatch.setattr(
            campaign_mod.sqlite3, "connect",
            lambda path, **kw: real_connect(path,
                                            factory=BrokenConnection, **kw))
        with pytest.raises(sqlite3.OperationalError, match="disk I/O"):
            CampaignDb(db_path)
        monkeypatch.undo()
        conn = sqlite3.connect(str(db_path))
        assert conn.execute(
            "SELECT COUNT(*) FROM injections").fetchone()[0] == len(legacy)
        assert conn.execute(
            "SELECT COUNT(*) FROM outcome_blocks").fetchone()[0] == 0
        conn.close()


class TestBlockMigration:
    """A database written one ``injections`` row per point opens as an
    outcome-block store with the same answers."""

    @pytest.mark.parametrize("chunked", [False, True])
    def test_answers_survive_the_migration(self, tmp_path, chunked):
        db_path = tmp_path / "legacy.sqlite"
        legacy = _make_old_schema_db(db_path, chunked)
        with CampaignDb(db_path) as db:
            assert list(db.rows()) == legacy
            for cid in (1, 2):
                mine = [row for row in legacy if row[0] == cid]
                assert list(db.rows(cid)) == mine
                summary = db.summary(cid)
                assert summary.total == len(mine)
                assert summary.outcomes == dict(
                    Counter(row[4] for row in mine))
                chunks = {}
                for _, chunk, *row in mine:
                    if chunk is not None:
                        chunks.setdefault(chunk, []).append(tuple(row))
                assert db.chunk_rows(cid) == chunks
            assert db.failure_rate_by_location(1)["ff2"] == 0.5
            assert db.cross_campaign_outcomes() == dict(
                Counter(row[4] for row in legacy))
            assert sorted(db.chunk_records(1)) == [0, 1] * chunked
        assert "injections" not in _tables(db_path)

    def test_second_open_is_a_no_op(self, tmp_path):
        db_path = tmp_path / "legacy.sqlite"
        _make_old_schema_db(db_path, chunked=True)

        def blocks():
            with CampaignDb(db_path) as db:
                return db.conn.execute(
                    "SELECT id, campaign_id, chunk_index, n_points, payload"
                    " FROM outcome_blocks ORDER BY id").fetchall()

        first = blocks()
        assert [row[1:4] for row in first] == [
            (1, None, 2), (2, None, 1), (1, 1, 2), (2, 0, 1), (1, 0, 1)]
        assert blocks() == first

    def test_resume_of_a_campaign_checkpointed_by_the_row_store(self,
                                                                tmp_path):
        """Kill a campaign, rewrite its database the way the per-row
        version would have left it, and resume: the migration runs on
        open and the campaign continues byte-identically."""
        config = EngineConfig(batch_size=8, executor="serial",
                              commit_every=1, shuffle=True)
        reference = run_campaign(_seu_backend(), config, db=CampaignDb())
        db_path = tmp_path / "killed.sqlite"

        class Killed(Exception):
            pass

        def kill(report):
            if len(report.injections) >= 24:
                raise Killed

        with CampaignDb(db_path) as db:
            with pytest.raises(Killed):
                run_campaign(_seu_backend(), config, db=db, on_chunk=kill)
            rows = list(db.rows())
        assert len(rows) == 24
        conn = sqlite3.connect(str(db_path))
        conn.executescript(
            "DROP TABLE outcome_blocks;" + ROW_STORE_INJECTIONS_DDL)
        conn.executemany(
            "INSERT INTO injections (campaign_id, chunk_index, location,"
            " cycle, outcome) VALUES (?, ?, ?, ?, ?)", rows)
        conn.commit()
        conn.close()
        with CampaignDb(db_path) as db:
            assert list(db.rows()) == rows
            resumed = resume_campaign(_seu_backend(), 1, config, db=db)
            assert resumed.resumed_chunks == 3
            assert ([inj.row() for inj in resumed.injections],
                    resumed.outcomes) == (
                [inj.row() for inj in reference.injections],
                reference.outcomes)
            assert [row[2:] for row in db.rows()] == [
                inj.row() for inj in reference.injections]
