"""Run one workload of the table: timed repeats, traced passes, identity.

Load model: closed loop, one client — one campaign at a time, the next
starts when the report is back.  Every timed repeat builds a fresh
backend on ``circuit.copy()`` and a fresh file-backed ``CampaignDb``
*outside* the timed region, so golden run, codegen/``compile()`` and the
lane-context build are *inside* it and repeats are i.i.d. "a user runs
one campaign on their circuit".
"""

from __future__ import annotations

import multiprocessing
import os
import random
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import harness
import probes
from metrics import E2E_UNITS, LAYER_UNITS
from table import Inputs, Workload

from repro.core.campaign import CampaignDb
from repro.engine import run_campaign, shutdown_pools
from repro.service import CampaignQueue, LeaseManager, LocalWorkerPool
from repro.sim import compiled

ROOT_SPAN = harness.ROOT_SPAN
SERVICE_WORKERS = 2
ORACLE_SEED = 0x0AC1E


@dataclass
class RunSummary:
    """What is kept of one finished campaign (the report itself is
    dropped at once: retaining 150 k ``Injection`` rows per repeat would
    be the benchmark's own memory, not the program's)."""

    digest: str
    total: int
    executed: int
    planned: int
    quarantined_points: int
    skip_fraction: float
    ci_half_width: float
    db_bytes: int
    oracle_sample: list[tuple[Any, str]]
    #: raw seconds / counts per span name of a traced pass
    spans: dict[str, tuple[float, int]] = field(default_factory=dict)
    rows_written: int = 0
    campaign_id: int | None = None
    #: service passes: chunks done per worker, lease takeovers
    worker_chunks: list[int] = field(default_factory=list)
    takeovers: int = 0


class Site:
    """Owns the per-repeat resources (temp dir, database, worker pool)
    and releases them before the next repeat, outside every timed
    region."""

    def __init__(self, workload: Workload, inputs: Inputs, work_dir: Path,
                 tracer: harness.Tracer, seed: int) -> None:
        self.workload = workload
        self.inputs = inputs
        self.work_dir = work_dir
        self.tracer = tracer
        self.seed = seed
        self.traced = False
        self._dir: str | None = None
        self._db: Any = None
        self._proxy: harness.DbProxy | None = None
        self._pool: LocalWorkerPool | None = None
        self.db_path = ""

    # -- resources ------------------------------------------------------
    def fresh(self) -> tuple:
        """A cold backend and an empty database for the next campaign."""
        self.release()
        self._dir = tempfile.mkdtemp(prefix="campaign-", dir=self.work_dir)
        self.db_path = os.path.join(self._dir, "campaign.sqlite")
        backend = self.inputs.backend(self.inputs.circuit.copy())
        if self.workload.mode == "service":
            return backend, self.db_path
        self._db = CampaignDb(self.db_path)
        self._proxy = None
        if self.traced and self.workload.mode == "inproc":
            self._proxy = harness.DbProxy(self._db, self.tracer)
            return harness.BackendProxy(backend, self.tracer), self._proxy
        return backend, self._db

    def _close(self) -> None:
        """Stop workers and close the database (the file stays)."""
        if self._pool is not None:
            self._pool.stop()
            self._pool = None
        if self._db is not None:
            self._db.close()
            self._db = None
        shutdown_pools()
        for child in multiprocessing.active_children():
            child.join(timeout=10.0)

    def release(self) -> None:
        self._close()
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    # -- the timed region -------------------------------------------------
    def campaign(self, config: Any, backend: Any, db: Any) -> Any:
        """Submit -> report, on the workload's execution path."""
        span = self.tracer.span
        if self.workload.mode != "service":
            with span(ROOT_SPAN):
                return run_campaign(backend, config, db=db)
        with span(ROOT_SPAN):
            with CampaignQueue(db) as queue:
                with span("service.queue.submit"):
                    job_id = queue.submit(backend, config)
                with span("service.queue.wait"):
                    self._pool = LocalWorkerPool(db, SERVICE_WORKERS).start()
                    job = queue.wait(job_id, timeout=150.0)
                if job.state != "done":
                    raise RuntimeError(f"service job {job_id} ended "
                                       f"{job.state!r}: {job.error}")
                with span("service.queue.result"):
                    return queue.result(job_id)

    # -- after the timed region -------------------------------------------
    def finish(self, report: Any) -> RunSummary:
        """Reduce a report to its summary, then drop it."""
        worker_chunks: list[int] = []
        takeovers = 0
        self._close()
        if self.workload.mode == "service":
            with CampaignDb(self.db_path) as db:
                leases = LeaseManager(db)
                worker_chunks = [row[5] for row in leases.workers()]
                takeovers = leases.takeover_total(report.campaign_id)
        db_bytes = sum(os.path.getsize(self.db_path + suffix)
                       for suffix in ("", "-wal")
                       if os.path.exists(self.db_path + suffix))
        rows = report.injections + report.skipped
        rng = random.Random(ORACLE_SEED + self.seed)
        picks = rng.sample(range(len(rows)),
                           min(self.workload.oracle_points, len(rows)))
        root = next(s for s in reversed(self.tracer.spans)
                    if s.name == ROOT_SPAN)
        ci = report.confidence_interval(self.workload.ci_outcome)
        return RunSummary(
            digest=harness.outcome_digest(report, self.workload.ci_outcome),
            total=report.total, executed=report.executed,
            planned=report.planned,
            quarantined_points=report.quarantined_points,
            skip_fraction=report.skip_fraction,
            ci_half_width=ci.width / 2.0, db_bytes=db_bytes,
            oracle_sample=[(rows[i].point, rows[i].outcome) for i in picks],
            spans=self.tracer.self_times(root),
            rows_written=self._proxy.rows_written if self._proxy else 0,
            campaign_id=report.campaign_id,
            worker_chunks=worker_chunks, takeovers=takeovers)


# ----------------------------------------------------------------------
# identity
# ----------------------------------------------------------------------
@dataclass
class Identity:
    """Outcome-identity bookkeeping of one benchmark run.

    An operation is one planned point of a timed campaign; it fails when
    its chunk was quarantined or an identity check contradicts it (a
    digest mismatch cannot be localised and fails its whole campaign).
    """

    attempted: int = 0
    failed: int = 0
    checks: list[dict] = field(default_factory=list)

    def check(self, name: str, ok: bool, cost: int, detail: str = "") -> None:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += cost

    def count(self, runs: list[RunSummary]) -> None:
        for run in runs:
            self.attempted += run.total + run.quarantined_points
            self.failed += run.quarantined_points


def check_identity(identity: Identity, workload: Workload, inputs: Inputs,
                   runs: list[RunSummary], seed: int,
                   baseline_digests: dict, reference_digest: str | None,
                   ) -> None:
    first = runs[0]
    for i, run in enumerate(runs[1:], start=1):
        identity.check(f"digest repeat {i} == repeat 0",
                       run.digest == first.digest, run.total)
    if reference_digest is not None:
        identity.check(f"digest == serial twin ({workload.twin_of})",
                       first.digest == reference_digest, first.total)
    recorded = baseline_digests.get(str(seed), {}).get(workload.name)
    if recorded is not None:
        identity.check(f"digest == recorded seed-{seed} digest",
                       first.digest == recorded, first.total,
                       f"{first.digest} vs {recorded}")
    sample = runs[-1].oracle_sample
    with compiled.disabled():
        expected = inputs.oracle([point for point, _ in sample])
    misses = sum(1 for (_, got), want in zip(sample, expected)
                 if got != want)
    identity.attempted += len(sample)
    identity.check(f"oracle sample ({len(sample)} points, reference path)",
                   misses == 0, misses, f"{misses} mismatches")


# ----------------------------------------------------------------------
# one benchmark run of one workload
# ----------------------------------------------------------------------
def _warm_config(workload: Workload, inputs: Inputs) -> Any:
    """The discarded 1/8-size warm-up campaign (imports, allocator,
    sqlite, worker spawn paths)."""
    return replace(workload.config,
                   sample=max(1, inputs.sizes["population"] // 8))


def _serial_twin(workload: Workload, inputs: Inputs, work_dir: Path,
                 tracer: harness.Tracer, seed: int
                 ) -> tuple[str | None, float | None]:
    """``(digest, normalised wall)`` of one serial in-process campaign of
    a twin workload's ``(backend, config)``: its identity reference and,
    in the traced run, the base of ``speedup_vs_serial``."""
    if workload.twin_of is None:
        return None, None
    twin = Site(replace(workload, mode="inproc"), inputs, work_dir, tracer,
                seed)
    try:
        wall, report = harness.timed_s(
            twin.campaign,
            replace(workload.config, executor="serial", workers=1),
            *twin.fresh())
        return twin.finish(report).digest, wall
    finally:
        twin.release()


def _end_to_end(untraced: harness.Measurement,
                setup_samples: list[tuple[float, float]],
                peak_rss_mb: float) -> dict:
    last = untraced.results[-1]
    wall = untraced.stats
    setup = harness.Stats.of([raw * speed for raw, speed in setup_samples])
    rate = harness.Stats.of([last.total / s for s in untraced.samples])
    out = {
        "setup_s": {"value": setup.median, "stats": setup.as_dict()},
        "campaign_wall_s": {"value": wall.median, "stats": wall.as_dict(),
                            "raw": untraced.raw.as_dict()},
        "injections_per_s": {"value": last.total / wall.median,
                             "stats": rate.as_dict()},
        "peak_rss_mb": {"value": peak_rss_mb},
        "db_mb": {"value": last.db_bytes / 2 ** 20},
    }
    for name, entry in out.items():
        entry["unit"] = E2E_UNITS[name]
    return out


def run_workload(workload: Workload, inputs: Inputs, seed: int,
                 seconds: float, trace: bool, work_dir: Path,
                 setup_samples: list[tuple[float, float]],
                 baseline_digests: dict) -> tuple[dict, harness.Tracer]:
    """Measure one workload; returns its full record and the tracer."""
    tracer = harness.Tracer(workload=workload.name, seed=seed)
    site = Site(workload, inputs, work_dir, tracer, seed)
    config = workload.config
    identity = Identity()
    notes: list[str] = []
    try:
        site.finish(site.campaign(_warm_config(workload, inputs),
                                  *site.fresh()))

        passes: list[bool] = []  # traced flag of every timed campaign

        def fresh() -> tuple:
            # a traced run alternates untraced / traced campaigns, so
            # host drift hits both sides of trace_overhead alike
            site.traced = trace and len(passes) % 2 == 1
            passes.append(site.traced)
            return site.fresh()

        both = harness.measure(
            lambda backend, db: site.campaign(config, backend, db),
            6 if trace else workload.min_repeats, setup=fresh,
            finish=site.finish, seconds=seconds)
        untraced = both.subset([i for i, t in enumerate(passes) if not t])
        traced = (both.subset([i for i, t in enumerate(passes) if t])
                  if trace else None)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runs = untraced.results + (traced.results if traced else [])
        identity.count(runs)

        reference_digest, serial_wall = _serial_twin(
            workload, inputs, work_dir, tracer, seed)
        check_identity(identity, workload, inputs, runs, seed,
                       baseline_digests, reference_digest)

        record: dict = {
            "workload": workload.name, "why": workload.why, "seed": seed,
            "trace": int(trace), "host_cpus": os.cpu_count(),
            "sizes": dict(inputs.sizes, mode=workload.mode,
                          repeats=len(untraced.raws),
                          total=runs[0].total, executed=runs[0].executed,
                          planned=runs[0].planned),
            "digest": runs[0].digest,
        }
        record["end_to_end"] = _end_to_end(untraced, setup_samples,
                                           peak_rss_mb)
        record["host_speed"] = statistics.median(untraced.speeds)

        layers: dict[str, float | None] = dict.fromkeys(LAYER_UNITS)
        if traced is not None:
            layers.update(probes.collect(
                workload, inputs, site, untraced, traced, serial_wall,
                setup_samples, notes))
        record["per_layer"] = {
            name: {"value": value, "unit": LAYER_UNITS[name]}
            for name, value in layers.items()}
    finally:
        site.release()
    record["info"] = {"notes": notes, "numpy": probes.have_numpy()}
    record["identity"] = {
        "attempted": identity.attempted, "failed": identity.failed,
        "failed_fraction": identity.failed / max(1, identity.attempted),
        "checks": identity.checks}
    return record, tracer
