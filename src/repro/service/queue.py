"""Campaign job queue: submit / poll / cancel over the shared CampaignDb.

A *job* is a pickled ``(backend, config)`` pair in the ``service_jobs``
table.  Submitting writes the payload; any :class:`~repro.service
.worker.CampaignWorker` polling the same database file can then
*activate* the job — one winner atomically creates the campaign row,
its filter-census rows and one lease per chunk in a single transaction
— and every worker (winner or not) re-derives the identical
:class:`~repro.engine.core.CampaignPlan` from the payload, claims
leases by bare chunk index, and records results through the engine's
idempotent checkpoint log.

Job state machine::

    pending ──activate──▶ running ──all chunks terminal /
                             │       early-stop converged──▶ done
                             │──unrunnable payload──▶ failed
    pending/running ──cancel──▶ cancelled

The final report is **assembled by replay**: :meth:`CampaignQueue
.result` folds the committed chunk records through the engine's one
accounting fold and never executes a chunk; :meth:`CampaignQueue
.maybe_finish` feeds the same records, counts only, to the engine's one
stop rule.  That is what makes an N-worker service run byte-identical
to a serial one — the service only decides *who executes which chunk
when*; what a chunk produces and how results are folded into the report
never left the engine.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..core.campaign import CampaignDb
from ..engine.core import (CampaignFold, CampaignPlan, CampaignReport,
                           EngineConfig, open_campaign, plan_campaign,
                           replayed, replayed_stop)
from .leases import LeaseManager

JOB_STATES = ("pending", "running", "done", "failed", "cancelled")

#: Terminal job states.
JOB_TERMINAL = ("done", "failed", "cancelled")


@dataclass(frozen=True)
class Job:
    """A queue entry's visible state (one :meth:`CampaignQueue.poll`)."""

    id: int
    state: str
    campaign_id: int | None
    fingerprint: str | None
    n_chunks: int | None
    converged_chunk: int | None
    error: str | None
    submitted_at: float | None
    started_at: float | None
    finished_at: float | None
    chunks_done: int = 0
    chunks_failed: int = 0

    @property
    def finished(self) -> bool:
        return self.state in JOB_TERMINAL


class CampaignQueue:
    """Submit/poll/cancel campaigns against one shared CampaignDb file.

    Accepts an open :class:`CampaignDb` or a path (opened and owned).
    The database must be file-backed for multi-process workers — an
    in-memory database is private to one connection and the service's
    whole point is that it isn't.
    """

    def __init__(self, db: CampaignDb | str | Path,
                 now: Callable[[], float] = time.time) -> None:
        if isinstance(db, (str, Path)):
            db = CampaignDb(db)
            self._owns_db = True
        else:
            self._owns_db = False
        self.db = db
        self.now = now
        self.leases = LeaseManager(db, now=now)

    def close(self) -> None:
        if self._owns_db:
            self.db.close()

    def __enter__(self) -> "CampaignQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- client side ---------------------------------------------------
    def submit(self, backend: Any,
               config: EngineConfig = EngineConfig()) -> int:
        """Enqueue a campaign; returns the job id.

        The backend must be picklable (the same requirement the process
        executor imposes) — workers in other processes rebuild it from
        the payload.
        """
        payload = pickle.dumps((backend, config),
                               protocol=pickle.HIGHEST_PROTOCOL)
        cur = self.db.conn.execute(
            "INSERT INTO service_jobs (state, payload, submitted_at)"
            " VALUES ('pending', ?, ?)", (payload, self.now()))
        self.db._maybe_commit()
        return int(cur.lastrowid)

    def poll(self, job_id: int) -> Job:
        row = self.db.conn.execute(
            "SELECT id, state, campaign_id, fingerprint, n_chunks,"
            " converged_chunk, error, submitted_at, started_at, finished_at"
            " FROM service_jobs WHERE id=?", (job_id,)).fetchone()
        if row is None:
            raise KeyError(f"no job {job_id}")
        campaign_id = row[2]
        done = failed = 0
        if campaign_id is not None:
            # progress comes from the chunk checkpoint log, the ground
            # truth (leases can briefly lag it after a stale complete)
            for status, count in self.db.conn.execute(
                    "SELECT status, COUNT(*) FROM chunks WHERE campaign_id=?"
                    " GROUP BY status", (campaign_id,)):
                if status == "done":
                    done = count
                elif status == "failed":
                    failed = count
        return Job(*row, chunks_done=done, chunks_failed=failed)

    def cancel(self, job_id: int) -> bool:
        """Cancel a pending/running job; open leases are cancelled and
        workers stop claiming at their next job-state check."""
        with self.db.transaction():
            cur = self.db.conn.execute(
                "UPDATE service_jobs SET state='cancelled', finished_at=?"
                " WHERE id=? AND state IN ('pending', 'running')",
                (self.now(), job_id))
            if cur.rowcount:
                row = self.db.conn.execute(
                    "SELECT campaign_id FROM service_jobs WHERE id=?",
                    (job_id,)).fetchone()
                if row and row[0] is not None:
                    self.leases.cancel_open(row[0])
        return bool(cur.rowcount)

    def wait(self, job_id: int, timeout: float | None = None,
             poll_s: float = 0.05) -> Job:
        """Block until the job reaches a terminal state (or timeout —
        then the job is returned as-is, unfinished)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.poll(job_id)
            if job.finished:
                return job
            if deadline is not None and time.monotonic() >= deadline:
                return job
            time.sleep(poll_s)

    def load(self, job_id: int) -> tuple[Any, EngineConfig]:
        """Unpickle a job's (backend, config) payload."""
        row = self.db.conn.execute(
            "SELECT payload FROM service_jobs WHERE id=?",
            (job_id,)).fetchone()
        if row is None:
            raise KeyError(f"no job {job_id}")
        return pickle.loads(row[0])

    def result(self, job_id: int, backend: Any = None,
               config: EngineConfig | None = None) -> CampaignReport:
        """Assemble the finished job's report by engine replay.

        The committed chunk records are folded through the exact
        accounting path a serial run uses, so the report is
        byte-identical to one — bar ``Injection.detail``, which is not
        stored and comes back ``None``; nothing is executed or written.
        A fresh backend is unpickled from the payload unless the caller
        supplies its own (it must be plan-identical; the stored
        fingerprint enforces that).
        """
        job = self.poll(job_id)
        if job.state != "done":
            raise RuntimeError(
                f"job {job_id} is {job.state!r}, not done; no report")
        if backend is None or config is None:
            stored_backend, stored_config = self.load(job_id)
            backend = backend if backend is not None else stored_backend
            config = config if config is not None else stored_config
        plan = plan_campaign(backend, config)
        report = open_campaign(backend, config, plan, self.db,
                               job.campaign_id)
        fold = CampaignFold(report, plan, config.early_stop)
        for event in replayed(self.db, job.campaign_id, len(plan.chunks)):
            if report.converged or fold(event):
                break
        if not report.converged and fold.rule.index < len(plan.chunks):
            raise RuntimeError(
                f"job {job_id} is incomplete: chunk {fold.rule.index} of "
                f"{len(plan.chunks)} has no record and nothing converged")
        return report

    # -- worker side ---------------------------------------------------
    def next_job(self) -> int | None:
        """Lowest-id job still needing work (pending or running)."""
        row = self.db.conn.execute(
            "SELECT id FROM service_jobs WHERE state IN"
            " ('pending', 'running') ORDER BY id LIMIT 1").fetchone()
        return None if row is None else int(row[0])

    def job_state(self, job_id: int) -> str:
        row = self.db.conn.execute(
            "SELECT state FROM service_jobs WHERE id=?",
            (job_id,)).fetchone()
        if row is None:
            raise KeyError(f"no job {job_id}")
        return str(row[0])

    def activate(self, job_id: int, plan: CampaignPlan,
                 config: EngineConfig) -> int | None:
        """Ensure the job has a campaign; returns its id (None if the
        job went terminal).

        Exactly one worker wins the conditional UPDATE and creates —
        atomically, in one transaction — the campaign row and census
        rows (through ``open_campaign``, exactly as ``run_campaign``
        does), plus one pending lease per chunk.  Losers simply read the
        winner's committed campaign id; a winner that dies
        mid-transaction rolls back to ``pending`` and the next worker
        retries the claim.
        """
        conn = self.db.conn
        while True:
            row = conn.execute(
                "SELECT state, campaign_id FROM service_jobs WHERE id=?",
                (job_id,)).fetchone()
            if row is None:
                raise KeyError(f"no job {job_id}")
            state, campaign_id = row
            if state in JOB_TERMINAL:
                return None
            if campaign_id is not None:
                return int(campaign_id)
            won: int | None = None
            with self.db.transaction():
                cur = conn.execute(
                    "UPDATE service_jobs SET state='running', started_at=?,"
                    " fingerprint=?, n_chunks=?"
                    " WHERE id=? AND state='pending' AND campaign_id IS NULL",
                    (self.now(), plan.fingerprint, len(plan.chunks), job_id))
                if cur.rowcount:
                    backend, _ = self.load(job_id)
                    won = open_campaign(backend, config, plan, self.db,
                                        executor="service").campaign_id
                    self.leases.create(won, len(plan.chunks))
                    conn.execute(
                        "UPDATE service_jobs SET campaign_id=? WHERE id=?",
                        (won, job_id))
            if won is not None:
                return won
            # lost the claim: loop — the winner's transaction has
            # committed by the time our UPDATE returned, so the re-read
            # sees its campaign_id (or a fresh 'pending' if it died)

    def fail_job(self, job_id: int, error: str) -> bool:
        """Mark a job unrunnable (bad payload, planning crash)."""
        cur = self.db.conn.execute(
            "UPDATE service_jobs SET state='failed', error=?, finished_at=?"
            " WHERE id=? AND state IN ('pending', 'running')",
            (error, self.now(), job_id))
        self.db._maybe_commit()
        return bool(cur.rowcount)

    def maybe_finish(self, job_id: int, campaign_id: int, plan: CampaignPlan,
                     config: EngineConfig) -> bool:
        """Finish the job if its campaign is complete; True when done.

        Complete means either every chunk has a terminal record
        (done/quarantined), or — with early stop — the engine's own
        stop rule, fed the committed records in chunk order, has
        converged at some chunk ``k`` (``-1``: by the filter census
        alone).  Feeding it in order is what pins the distributed run to
        the same stopping chunk as a serial one: chunks recorded past
        ``k`` by other workers are speculative and the replay assembler
        ignores them, exactly as the engine discards speculative
        in-flight chunks on early stop.
        """
        n_chunks = len(plan.chunks)
        converged_chunk: int | None = None
        if config.early_stop is None:
            # no early stop: completion is a row count, checked O(1)
            # after every chunk instead of materializing all records
            (n_recorded,) = self.db.conn.execute(
                "SELECT COUNT(*) FROM chunks WHERE campaign_id=?",
                (campaign_id,)).fetchone()
            if n_recorded < n_chunks:
                return False
        else:
            rule = replayed_stop(self.db, campaign_id, plan,
                                 config.early_stop)
            if rule.converged:
                converged_chunk = rule.index - 1
            elif rule.index < n_chunks:
                return False
        with self.db.transaction():
            cur = self.db.conn.execute(
                "UPDATE service_jobs SET state='done', finished_at=?,"
                " converged_chunk=? WHERE id=? AND state='running'",
                (self.now(), converged_chunk, job_id))
            if cur.rowcount:
                # converged: the un-needed tail of leases is cancelled so
                # no worker burns time on chunks the report will ignore
                self.leases.cancel_open(campaign_id)
        return True
