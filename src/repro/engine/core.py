"""Unified fault-injection campaign engine (paper IV.A).

Every FI workload in the toolkit — gate-level PPSFP stuck-at, SEU flop
flips, ISO 26262 safety classification, SoC-level unit transients — used
to hand-roll its own serial injection loop, sampling policy and result
accounting.  This module is the one execution core behind all of them:

* an :class:`InjectionBackend` protocol: enumerate injection points, run
  one batch, classify outcomes;
* an optional **point-filter stage**: a backend may prove the outcome of
  some points from golden-run data alone (``filter_points``); those
  points are accounted as first-class outcomes without ever being
  simulated — the engine-level form of dynamic-slicing skip rules;
* one campaign loop, four stages: :func:`plan_campaign` → a
  **chunk-event source** (:func:`executed`, :func:`replayed`) yielding
  ``done`` / ``failed`` events in chunk-index order → one **accounting
  fold** (:class:`CampaignFold`) → a **sink** (:class:`CheckpointSink`).
  A fresh run, a resume and the service's report assembly differ only
  in the sources, so results are bit-identical at any worker count;
* seeded sampling of the injection space (Leveugle-style statistical
  campaigns) and optional statistical early stop: the campaign converges
  when the Wilson interval of the tracked outcome rate is narrower than
  the requested margin;
* streaming batched persistence of every injection into
  :class:`repro.core.campaign.CampaignDb`, so cross-campaign queries see
  all workloads in one place;
* **fault tolerance for the campaign itself**: every executed chunk is
  checkpointed to the database in crash-consistent transactions, so a
  killed campaign resumes from its last committed chunk
  (``run_campaign(resume=...)`` / :func:`resume_campaign`) with a
  byte-identical report; a failing or hung chunk is a *value* its
  executor rung yields — retried in the parent with bounded exponential
  backoff, eventually **quarantined** as a first-class ``failed``
  stratum — while an executor failure is *raised* and steps the
  campaign down the recovery ladder (process → serial), once.

DAVOS-style iterative statistical injection, reduced to the smallest
core that every workload can share.
"""

from __future__ import annotations

import hashlib
import json
import logging
import pickle
import random
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, field
from typing import (Any, Callable, Iterator, NamedTuple, Protocol, Sequence,
                    runtime_checkable)

from ..core.campaign import CampaignDb
from ..core.stats import Interval, wilson_interval
from ..faults.sampling import sample_size
from . import executors as _executors
from .executors import (EXECUTOR_CHOICES, ChunkTimeout, ExecutorPlan,
                        chunk_seed, plan_executor)

log = logging.getLogger("repro.engine")


class Injection(NamedTuple):
    """One executed injection: where, when, and how it ended.

    ``point`` is the backend-specific injection point (opaque to the
    engine); ``detail`` carries backend extras (detection masks, latency)
    that are not persisted to the database — and so not restored:
    a chunk replayed from a checkpoint has ``detail=None``.

    A record is one immutable tuple with no ``__dict__``: a campaign
    builds one per point and keeps them all, so what a record costs to
    build and how many GC-tracked objects it adds is the engine's
    per-point bookkeeping.  Backends build records positionally and
    reuse the point object they were handed.  The trade-off: a record
    compares equal to the plain tuple of its fields, and orders and
    iterates like one.
    """

    point: Any
    location: str
    cycle: int
    outcome: str
    detail: Any = None

    def row(self) -> tuple[str, int, str]:
        """The (location, cycle, outcome) triple stored in CampaignDb."""
        return (self.location, self.cycle, self.outcome)


@runtime_checkable
class InjectionBackend(Protocol):
    """What a workload must provide to run on the engine.

    ``run_batch`` must be a pure function of the prepared backend state
    and the given points (no cross-batch mutation), so batches can run on
    worker threads — or in worker processes — in any order while the
    engine accounts them in deterministic chunk order.  For the process
    executor the backend must additionally pickle (``prepare()`` is
    re-run per worker, so prepared state need not ship) and be
    idempotent under repeated ``prepare()`` calls.  Execution is
    at-least-once: a chunk that failed on a rung, or whose pool died, is
    run again in the parent and must give the same injections.

    Stochastic backends may provide an optional ``run_batch_seeded(
    points, rng)`` method instead; the engine then hands every chunk its
    own ``random.Random`` derived from ``(campaign seed, chunk index)``,
    which keeps results identical at any worker count and executor
    choice.

    Backends that can prove some outcomes from the golden run alone may
    provide an optional ``filter_points(points) -> (kept,
    skipped_outcomes)`` method.  The engine calls it exactly once, in
    the parent, after sampling and before chunking (``prepare()`` runs
    first so the filter can consult golden data); ``skipped_outcomes``
    is a list of ready-made :class:`Injection` results that are
    accounted — and persisted — as first-class outcomes without ever
    being executed.  Filters must be *lossless*: a skipped point's
    outcome must equal what ``run_batch`` would have produced.  A
    backend with a switchable filter may also expose a ``use_filter``
    attribute; when it is False the stage (including its parent-side
    ``prepare()``) is skipped entirely.
    """

    name: str
    circuit_name: str
    fault_model: str
    workload: str

    def enumerate_points(self) -> Sequence[Any]:
        """The full injection space, in a deterministic order."""
        ...

    def prepare(self) -> None:
        """One-time golden-run / cache setup before the first batch."""
        ...

    def run_batch(self, points: Sequence[Any]) -> list[Injection]:
        """Execute the given injection points; one Injection per point."""
        ...


@dataclass(frozen=True)
class EarlyStop:
    """Stop once the Wilson CI of ``outcome``'s rate is tight enough."""

    outcome: str = "failure"
    margin: float = 0.02
    confidence: float = 0.95
    min_injections: int = 50

    def __post_init__(self) -> None:
        # rejected here, not on the first convergence check: confidence 1
        # raises only after a chunk was checkpointed, confidence 0 would
        # converge on a zero-width interval, margin <= 0 never converges
        if not 0 < self.confidence < 1:
            raise ValueError(f"early-stop confidence must lie in (0, 1), "
                             f"got {self.confidence!r}")
        if not self.margin > 0:
            raise ValueError(f"early-stop margin must be > 0, "
                             f"got {self.margin!r}")
        if self.min_injections < 0:
            raise ValueError(f"early-stop min_injections must be >= 0, "
                             f"got {self.min_injections!r}")


@dataclass(frozen=True)
class EngineConfig:
    """Execution policy; the backend defines *what*, this defines *how*.

    ``sample`` draws a seeded uniform sample of that many points from
    the enumerated space; ``None`` or a sample >= population means
    every point, in enumeration order unless ``shuffle`` asks for a
    seeded permutation (what early-stopped campaigns want — a prefix of
    a shuffle is an unbiased sample).  With ``workers`` > 1 chunks run
    on the chosen executor; results are identical to the serial run
    because accounting follows chunk order, and any chunks speculatively
    executed past an early-stop decision are discarded.

    ``executor`` picks the execution strategy (see
    :mod:`repro.engine.executors`): ``"serial"``, ``"process"``
    (a spawn-safe process pool of the campaign's own: the backend ships
    to each worker once, true multicore scaling applies, and the pool
    is joined before the campaign returns), or
    ``"auto"`` (default), which probes CPU count, backend picklability
    and per-batch cost, and falls back to serial with a logged reason
    instead of crashing.

    ``max_chunk_retries`` bounds how often a *failing* chunk is re-run
    (with exponential backoff starting at ``retry_backoff_s``) before it
    is quarantined; ``chunk_timeout`` (seconds, ``None`` = wait forever)
    declares a chunk hung when its result is overdue — a pool is
    abandoned and execution steps down to the serial rung — and the
    chunk is retried like any other failure (the serial rung and
    parent-side retries run against the same deadline, so a
    deterministic hang quarantines instead of blocking the campaign).
    ``commit_every`` is now the chunk-checkpoint cadence: every commit
    is a crash-consistent batch of per-chunk records that ``resume=``
    can restart from.
    """

    batch_size: int = 64
    workers: int = 1
    sample: int | None = None
    shuffle: bool = False
    seed: int = 0
    early_stop: EarlyStop | None = None
    commit_every: int = 4  # chunk checkpoints per CampaignDb commit
    executor: str = "auto"
    max_chunk_retries: int = 2
    chunk_timeout: float | None = None
    retry_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.executor not in EXECUTOR_CHOICES:
            raise ValueError(f"unknown executor {self.executor!r}; "
                             f"pick one of {EXECUTOR_CHOICES}")
        if self.max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be >= 0")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive (or None)")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if min(self.batch_size, self.workers, self.commit_every) < 1:
            raise ValueError("batch_size, workers, commit_every must be >= 1")
        if self.sample is not None and self.sample < 0:
            raise ValueError("sample must be >= 0 (or None)")


@dataclass(frozen=True)
class QuarantinedChunk:
    """A chunk whose execution kept failing and was excluded.

    Quarantine is the harness-fault analogue of the filter stage: a
    first-class ``failed`` stratum of the campaign — its points were
    neither executed nor silently dropped, and the report says so —
    rather than one bad chunk poisoning everything else.  A later
    ``resume=`` of the campaign re-executes quarantined chunks.
    """

    index: int
    n_points: int
    attempts: int
    error: str


@dataclass
class CampaignReport:
    """Aggregated engine output, common to every backend.

    ``injections`` holds executed points; ``skipped`` holds points the
    backend's filter stage resolved from golden data alone.  Both are
    first-class outcomes: counts, rates and confidence intervals cover
    their union, so a filter only changes *cost*, never statistics.

    ``quarantined`` is the campaign's ``failed`` stratum: chunks whose
    execution kept failing (see :class:`QuarantinedChunk`).  Their
    points are excluded from counts and intervals — an unexecuted point
    has no outcome — but the stratum is reported, never hidden.
    ``resumed_chunks`` / ``retried_chunks`` count chunks replayed from a
    checkpoint and chunks recovered by the retry loop.
    """

    backend: str
    circuit: str
    fault_model: str
    workload: str
    injections: list[Injection] = field(default_factory=list)
    skipped: list[Injection] = field(default_factory=list)
    population: int = 0
    planned: int = 0
    converged: bool = False
    campaign_id: int | None = None
    elapsed_s: float = 0.0
    n_workers: int = 1
    executor: str = "serial"  # resolved strategy the campaign ran on
    quarantined: list[QuarantinedChunk] = field(default_factory=list)
    resumed_chunks: int = 0
    retried_chunks: int = 0

    @property
    def executed(self) -> int:
        return len(self.injections)

    @property
    def total(self) -> int:
        return len(self.injections) + len(self.skipped)

    @property
    def skip_fraction(self) -> float:
        return len(self.skipped) / self.total if self.total else 0.0

    @property
    def quarantined_points(self) -> int:
        """Points in chunks the engine gave up executing."""
        return sum(chunk.n_points for chunk in self.quarantined)

    @property
    def outcomes(self) -> dict[str, int]:
        acc: dict[str, int] = {}
        for inj in self.injections:
            acc[inj.outcome] = acc.get(inj.outcome, 0) + 1
        for inj in self.skipped:
            acc[inj.outcome] = acc.get(inj.outcome, 0) + 1
        return acc

    def count(self, outcome: str) -> int:
        n = sum(1 for inj in self.injections if inj.outcome == outcome)
        return n + sum(1 for inj in self.skipped if inj.outcome == outcome)

    def rate(self, outcome: str) -> float:
        return self.count(outcome) / self.total if self.total else 0.0

    def confidence_interval(self, outcome: str,
                            confidence: float = 0.95) -> Interval:
        return wilson_interval(self.count(outcome), self.total, confidence)

    @property
    def injections_per_second(self) -> float:
        return self.total / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def recommended_sample(self, margin: float = 0.05,
                           confidence: float = 0.95) -> int:
        """Leveugle bound for this campaign's population."""
        return sample_size(self.population, margin, confidence)

    def describe(self) -> str:
        """One-line human summary (what the examples print)."""
        counts = ", ".join(f"{k}={v}" for k, v in sorted(
            self.outcomes.items(), key=lambda kv: (-kv[1], kv[0])))
        skipped = (f" + {len(self.skipped)} filtered"
                   if self.skipped else "")
        resilience = []
        if self.resumed_chunks:
            resilience.append(f"{self.resumed_chunks} chunks resumed")
        if self.retried_chunks:
            resilience.append(f"{self.retried_chunks} chunks retried")
        if self.quarantined:
            resilience.append(
                f"{len(self.quarantined)} chunks quarantined "
                f"({self.quarantined_points} points failed)")
        suffix = f"; {', '.join(resilience)}" if resilience else ""
        return (f"campaign {self.backend}:{self.circuit} [{self.workload}] — "
                f"{self.executed} executed{skipped} of {self.population} "
                f"points on {self.executor} x{self.n_workers} "
                f"({self.injections_per_second:.0f} inj/s"
                f"{', converged early' if self.converged else ''}); "
                f"outcomes: {counts or 'none'}{suffix}")


def _chunked(points: Sequence[Any], size: int) -> list[Sequence[Any]]:
    return [points[i:i + size] for i in range(0, len(points), size)]


@dataclass(frozen=True)
class CampaignPlan:
    """The deterministic half of a campaign: everything derived from
    ``(backend, config)`` alone, before any execution policy applies.

    ``run_campaign`` builds one internally; the campaign service builds
    the identical plan *in every worker process* (same enumeration,
    sampling, filter and chunk partition — the fingerprint proves it),
    so chunks can be claimed by bare index across hosts and executed
    anywhere while staying byte-compatible with a serial run.
    """

    points: list[Any]
    skipped: list[Injection]
    chunks: list[Sequence[Any]]
    seeds: list[int]
    batch_size: int
    lane_width: int
    population: int
    planned: int
    fingerprint: str

    @property
    def n_kept(self) -> int:
        """Points that must actually execute (post-filter)."""
        return len(self.points)


def plan_campaign(backend: InjectionBackend,
                  config: EngineConfig) -> CampaignPlan:
    """Enumerate → (sample/shuffle) → filter → chunk, deterministically.

    Pure in ``(backend, config)``: the sampled point list depends only
    on ``config.seed``, the filter stage must be lossless and
    deterministic, and chunk seeds mix the campaign seed with the chunk
    index — so two processes (or two hosts) planning the same campaign
    get the same chunks and the same per-chunk RNG streams.  Runs the
    backend's ``prepare()`` when a filter needs golden-run data.
    """
    points = list(backend.enumerate_points())
    population = len(points)
    rng = random.Random(config.seed)
    if config.sample is not None and config.sample < population:
        points = rng.sample(points, config.sample)
    elif config.shuffle:
        points = rng.sample(points, population)
    planned = len(points)

    skipped: list[Injection] = []
    filter_points = getattr(backend, "filter_points", None)
    # backends with a switchable filter expose ``use_filter`` so a
    # disabled filter costs nothing (no parent-side prepare)
    if filter_points is not None and getattr(backend, "use_filter", True):
        backend.prepare()  # filters consult golden-run data
        kept, skipped_outcomes = filter_points(points)
        points = list(kept)
        skipped = list(skipped_outcomes)
        if len(points) + len(skipped) != planned:
            raise ValueError(
                f"{backend.name}.filter_points dropped points: kept "
                f"{len(points)} + skipped {len(skipped)} != {planned}")
    # Lane-aware chunk sizing (see
    # :func:`repro.engine.lanes.aligned_batch_size`): chunks larger than
    # one lane are rounded *down* to a lane multiple (no fragmented
    # trailing lane per chunk), and a still-default batch size is raised
    # to fill one lane word wider than 64.  Pure in the config, so a
    # resumed campaign recomputes the identical chunk partition.
    from .lanes import aligned_batch_size  # lanes imports core: defer
    lane_width = max(1, int(getattr(backend, "lane_width", 1) or 1))
    batch_size = aligned_batch_size(lane_width, config.batch_size,
                                    type(config).batch_size)
    chunks = _chunked(points, batch_size)
    seeds = [chunk_seed(config.seed, i) for i in range(len(chunks))]
    fingerprint = _campaign_fingerprint(backend, config, batch_size,
                                        lane_width, population, planned)
    return CampaignPlan(points=points, skipped=skipped, chunks=chunks,
                        seeds=seeds, batch_size=batch_size,
                        lane_width=lane_width, population=population,
                        planned=planned, fingerprint=fingerprint)


#: Ceiling on the exponential retry backoff (seconds).
RETRY_BACKOFF_CAP_S = 2.0


def _campaign_fingerprint(backend: InjectionBackend, config: EngineConfig,
                          batch_size: int, lane_width: int,
                          population: int, planned: int) -> str:
    """Identity of a campaign's *deterministic* inputs.

    Stored in the campaign's params at creation and re-derived on
    ``resume=``: everything that shapes the chunk partition or the
    outcomes is covered (backend identity, seed/sample/shuffle, the
    effective chunk size, lane width, early-stop policy, population),
    while execution policy that provably cannot change results —
    workers, executor choice, retry budget — is deliberately excluded,
    so a campaign checkpointed on one executor may resume on another.
    """
    stop = config.early_stop
    payload = json.dumps({
        "backend": backend.name,
        "circuit": backend.circuit_name,
        "fault_model": backend.fault_model,
        "workload": backend.workload,
        "seed": config.seed,
        "sample": config.sample,
        "shuffle": config.shuffle,
        "chunk_size": batch_size,
        "lane_width": lane_width,
        "early_stop": ([stop.outcome, stop.margin, stop.confidence,
                        stop.min_injections] if stop else None),
        "population": population,
        "planned": planned,
    }, sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()[:16]


def open_campaign(backend: InjectionBackend, config: EngineConfig,
                  plan: CampaignPlan, db: CampaignDb | None,
                  resume: int | None = None,
                  executor: str | None = None) -> CampaignReport:
    """The empty report of ``plan``, bound to its campaign row in ``db``:
    the checkpointed campaign ``resume`` once its fingerprint checks out,
    else a new row (``executor`` labels who runs it)."""
    report = CampaignReport(
        backend=backend.name, circuit=backend.circuit_name,
        fault_model=backend.fault_model, workload=backend.workload,
        skipped=plan.skipped, population=plan.population,
        planned=plan.planned, n_workers=config.workers, campaign_id=resume)
    if resume is not None:
        if db is None:
            raise ValueError(
                "resume requires the CampaignDb the campaign was "
                "checkpointed to")
        stored = db.campaign_params(resume).get("fingerprint")
        if stored != plan.fingerprint:
            raise ValueError(
                f"campaign {resume} was checkpointed with a different "
                f"backend/config (fingerprint {stored!r} != "
                f"{plan.fingerprint!r}); resume needs the identical campaign")
    elif db is not None:
        # campaign row + filtered outcomes land in ONE transaction: the
        # campaign record exists iff its census rows do, so a crash here
        # leaves nothing a resume could half-see
        with db.transaction():
            report.campaign_id = db.create_campaign(
                name=f"{backend.name}:{backend.circuit_name}",
                circuit=backend.circuit_name,
                fault_model=backend.fault_model,
                workload=backend.workload,
                params={
                    "batch_size": config.batch_size,
                    "chunk_size": plan.batch_size,
                    "workers": config.workers,
                    "executor": executor or config.executor,
                    "lane_width": plan.lane_width,
                    "sample": config.sample,
                    "seed": config.seed,
                    "filtered": len(plan.skipped),
                    "early_stop": (config.early_stop.outcome
                                   if config.early_stop else None),
                    "fingerprint": plan.fingerprint,
                },
            )
            if plan.skipped:  # filtered outcomes are first-class DB rows
                db.record_many(report.campaign_id,
                               [inj.row() for inj in plan.skipped])
    return report


@dataclass(frozen=True)
class ChunkEvent:
    """One resolved chunk, as every source reports it to the fold:
    ``batch`` is the result (*done*) or ``None`` (*failed*: quarantined,
    ``error`` says why) after ``attempts`` executions.  ``executor``
    names the ladder rung that resolved it — ``None`` for an event
    replayed from a checkpoint, which the fold neither re-checkpoints
    nor counts as a retry; its ``batch`` is the checkpointed ``(location,
    cycle, outcome)`` rows, to which the fold re-attaches the points."""

    index: int
    attempts: int
    batch: list | None = None
    error: str | None = None
    executor: str | None = None


def check_batch(batch: Any, chunk: Sequence[Any], index: int) -> str | None:
    """O(1) shape check on a chunk result: the error text of a malformed
    batch (a crashed deserialization, a corrupted return), else ``None``
    — a chunk failure, retried and then quarantined, not corrupt
    accounting."""
    if (isinstance(batch, list) and len(batch) == len(chunk)
            and (not batch or isinstance(batch[0], Injection))):
        return None
    got = (f"{type(batch).__name__}[{len(batch)}]"
           if isinstance(batch, (list, tuple)) else type(batch).__name__)
    return (f"ValueError: malformed result for chunk {index}: expected "
            f"{len(chunk)} Injection entries, got {got}")


def attempt_chunk(backend: InjectionBackend, plan: CampaignPlan, index: int,
                  timeout: float | None
                  ) -> tuple[list[Injection] | None, str | None]:
    """Execute chunk ``index`` once, here: ``(batch, None)``, or ``(None,
    error)`` when the backend raised or the result was malformed or
    overdue — ``timeout`` is a deadline, so a deterministically hung
    chunk spends its budget and quarantines instead of blocking."""
    chunk = plan.chunks[index]
    try:
        batch = _executors.execute_chunk_timed(backend, chunk,
                                               plan.seeds[index], timeout)
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"
    error = check_batch(batch, chunk, index)
    return (batch, None) if error is None else (None, error)


def retry_backoff_s(config: EngineConfig, attempts: int) -> float:
    """Capped exponential wait before retry number ``attempts``."""
    return min(RETRY_BACKOFF_CAP_S,
               config.retry_backoff_s * 2 ** (attempts - 1))


def _retried(backend: InjectionBackend, plan: CampaignPlan,
             config: EngineConfig, index: int, error: str,
             executor: str) -> ChunkEvent:
    """Chunk ``index`` failed on a rung: bounded-backoff retries in the
    parent (immune to pool state), then quarantine."""
    attempts, budget = 1, config.max_chunk_retries
    while attempts <= budget:
        delay = retry_backoff_s(config, attempts)
        log.warning(
            "engine: chunk %d failed (%s); retry %d/%d in the parent after "
            "%.2fs", index, error, attempts, budget, delay)
        if delay > 0:
            time.sleep(delay)
        # outside the chunk-failure net: a setup error is the campaign's
        # failure, not this chunk's, and raises on every executor alike
        backend.prepare()
        batch, error = attempt_chunk(backend, plan, index,
                                     config.chunk_timeout)
        attempts += 1
        if error is None:
            return ChunkEvent(index, attempts, batch, executor=executor)
    log.error(
        "engine: quarantining chunk %d (%d points) after %d failed "
        "execution(s) (%s)", index, len(plan.chunks[index]), attempts, error)
    return ChunkEvent(index, attempts, error=error, executor=executor)


def _chunk_event(result: Any, backend: InjectionBackend, plan: CampaignPlan,
                 config: EngineConfig, index: int,
                 executor: str) -> ChunkEvent:
    """What a rung made of chunk ``index``: ``result`` is its batch or,
    as a value, the exception it raised — that, like a malformed batch,
    is a chunk failure and resolved by :func:`_retried`."""
    error = (f"{type(result).__name__}: {result}"
             if isinstance(result, Exception)
             else check_batch(result, plan.chunks[index], index))
    if error is None:
        return ChunkEvent(index, 1, result, executor=executor)
    return _retried(backend, plan, config, index, error, executor)


def _step_down(executor: str, index: int, reason: str) -> None:
    """The one step down the ladder (→ serial): it is monotonic, so a
    campaign degrades — and logs it — at most once."""
    log.warning("engine: %s executor failing; falling back to %s from "
                "chunk %d (%s)", executor, "serial", index, reason)


def executed(backend: InjectionBackend, plan: CampaignPlan,
             config: EngineConfig, start: int) -> Iterator[ChunkEvent]:
    """Source: execute ``plan.chunks[start:]``, one event per chunk.

    The recovery ladder, top to bottom, each rung opened at most once.
    The executor is resolved over the *remaining* chunks (auto probes
    picklability and per-batch cost; chunks it ran while probing head
    the source).  The process rung, if chosen, runs until it is done or
    *raises* — an executor failure: one step down, the chunk it died on
    retried in the parent — and the serial rung takes what is left.  A
    chunk failure is a value the rung yields (:func:`_chunk_event`); the
    rung goes on.  Closing the source drains the open rung.
    """
    chunks, seeds = plan.chunks, plan.seeds
    if start >= len(chunks):
        return
    try:
        resolved = plan_executor(backend, chunks[start:], config,
                                 seeds[start:])
    except Exception as exc:
        # a probe crash is a chunk failure in disguise: start on the
        # ladder floor and let the retry loop deal with the chunk
        _step_down(config.executor, start,
                   f"auto-probe failed ({type(exc).__name__}: {exc})")
        resolved = ExecutorPlan("serial")
    if resolved.reason:
        log.info("engine: executor=%s for %s:%s (%s)", resolved.name,
                 backend.name, backend.circuit_name, resolved.reason)
    index = start
    for batch in resolved.probe_batches or ():
        yield _chunk_event(batch, backend, plan, config, index,
                           resolved.name)
        index += 1
    if resolved.name == "process":
        # serialized here (absolute indices: the full lists, also on a
        # resume), so that a pickling failure is not mistaken for a pool
        # failure — or for a backend bug, which propagates
        try:
            payload = pickle.dumps((backend, chunks, seeds),
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # pickle raises many types
            _step_down("process", index, f"backend not picklable "
                       f"({type(exc).__name__}: {exc})")
        else:
            try:
                with closing(_executors.run_process(
                        payload, len(chunks), config.workers, start=index,
                        timeout=config.chunk_timeout)) as rung:
                    for result in rung:
                        yield _chunk_event(result, backend, plan, config,
                                           index, "process")
                        index += 1
            except (ChunkTimeout, BrokenProcessPool, OSError) as exc:
                # the executor failed, not a chunk: its pool is already
                # down (a hung task may never return, a broken pool
                # never heals); retry the chunk it died on in the parent
                error = f"{type(exc).__name__}: {exc}"
                _step_down("process", index, (
                    f"chunk {index} timed out after {config.chunk_timeout}s"
                    if isinstance(exc, ChunkTimeout)
                    else f"process pool failed ({error})"))
                yield _retried(backend, plan, config, index, error, "serial")
                index += 1
    if index < len(chunks):
        backend.prepare()
        with closing(_executors.run_serial(
                backend, chunks, seeds, index, config.chunk_timeout)) as rung:
            for result in rung:
                yield _chunk_event(result, backend, plan, config, index,
                                   "serial")
                index += 1


def replayed(db: CampaignDb, campaign_id: int,
             n_chunks: int) -> Iterator[ChunkEvent]:
    """Source: the campaign's checkpointed chunks as events in index
    order — nothing executed — up to the first chunk without a record;
    records past that gap (a peer worker's speculative chunks) are
    ignored and would re-execute idempotently."""
    records = db.chunk_records(campaign_id)
    rows = db.chunk_rows(campaign_id)
    for index in range(n_chunks):
        record = records.get(index)
        if record is None:
            return
        yield ChunkEvent(index, record.attempts, error=record.error, batch=(
            rows.get(index, []) if record.status == "done" else None))


class StopRule:
    """The convergence arithmetic and the chunk cursor, implemented once.

    Filtered points are a *census* of their stratum (known outcomes,
    zero variance); only the executed sample of the kept points is
    uncertain.  The overall-rate half-width is therefore the
    executed-sample Wilson half-width scaled by the kept stratum's share
    of the campaign — treating skips as Bernoulli draws would bias the
    interval whenever the filtered subpopulation differs from the kept
    one.  Running tallies keep the per-chunk check O(batch), not
    O(history).  ``index`` is the first chunk not yet folded; fed in
    chunk order — by the engine's fold or, counts only, by
    :func:`replayed_stop` — the rule converges on the same chunk.
    """

    def __init__(self, stop: EarlyStop | None, plan: CampaignPlan) -> None:
        self.stop = stop
        self.census = len(plan.skipped)
        self.kept, self.planned = plan.n_kept, plan.planned
        self.executed = self.hits = self.index = 0

    def add(self, outcomes: list[str]) -> None:
        """Fold one executed chunk's outcomes."""
        self.index += 1
        self.executed += len(outcomes)
        if self.stop is not None:
            self.hits += outcomes.count(self.stop.outcome)

    def skip(self) -> None:
        """Pass a quarantined chunk: an unexecuted point has no outcome,
        so the tallies and the kept stratum's weight stand."""
        self.index += 1

    @property
    def converged(self) -> bool:
        """Is the overall outcome rate pinned down tightly enough?"""
        stop = self.stop
        if stop is None or self.census + self.executed < stop.min_injections:
            return False
        if self.kept == 0:
            # the filter resolved every point: nothing uncertain (an
            # empty campaign, though, has nothing to converge on)
            return self.census > 0
        if self.executed == 0:
            return False  # a census alone never pins the kept stratum
        kept_weight = self.kept / self.planned if self.planned else 0.0
        ci = wilson_interval(self.hits, self.executed, stop.confidence)
        return (ci.width / 2) * kept_weight <= stop.margin


def replayed_stop(db: CampaignDb, campaign_id: int, plan: CampaignPlan,
                  stop: EarlyStop) -> StopRule:
    """The stop rule fed, counts only, from the committed records: where
    a serial run would stand — what pins a distributed stop to its chunk."""
    rule = StopRule(stop, plan)
    for event in replayed(db, campaign_id, len(plan.chunks)):
        if rule.converged:
            break
        if event.batch is None:
            rule.skip()
        else:
            rule.add([outcome for _, _, outcome in event.batch])
    return rule


class CheckpointSink:
    """Sink: chunk events → crash-consistent ``CampaignDb`` checkpoints
    (a chunk's rows plus its record keyed by ``(campaign_id,
    chunk_index)``), one transaction per ``commit_every`` chunks."""

    def __init__(self, db: CampaignDb, campaign_id: int,
                 seeds: Sequence[int], commit_every: int) -> None:
        self.db, self.campaign_id = db, campaign_id
        self.seeds, self.commit_every = seeds, commit_every
        self.pending: list[ChunkEvent] = []

    def __call__(self, event: ChunkEvent) -> None:
        self.pending.append(event)
        # a quarantine proves the campaign unstable: checkpoint at once
        if event.batch is None or len(self.pending) >= self.commit_every:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        with self.db.transaction():
            for event in self.pending:
                done = event.batch is not None
                self.db.record_chunk(
                    self.campaign_id, event.index,
                    [inj.row() for inj in event.batch] if done else [],
                    seed=self.seeds[event.index],
                    status="done" if done else "failed",
                    attempts=event.attempts, error=event.error)
        self.pending.clear()


class CampaignFold:
    """The one accounting path: ``fold(event)`` folds a chunk event into
    the report and the stop rule, hands executed ones to the sink, and
    returns ``report.converged``: True means stop.

    Events must arrive in chunk-index order — that, not the source, is
    what makes the report and the stop decision deterministic.  It runs
    in the consumer's frame, so its errors (an ``on_chunk`` hook, a
    checkpoint flush) are the caller's, never a chunk failure.
    """

    def __init__(self, report: CampaignReport, plan: CampaignPlan,
                 stop: EarlyStop | None, sink: CheckpointSink | None = None,
                 on_chunk: Callable[[CampaignReport], None] | None = None
                 ) -> None:
        self.report, self.plan = report, plan
        self.rule = StopRule(stop, plan)
        self.sink, self.on_chunk = sink, on_chunk
        report.converged = self.rule.converged

    def __call__(self, event: ChunkEvent) -> bool:
        report, rule = self.report, self.rule
        fresh = event.executor is not None
        if fresh:
            report.executor = event.executor
            if self.sink is not None:
                self.sink(event)
        if event.batch is None:
            report.quarantined.append(QuarantinedChunk(
                event.index, len(self.plan.chunks[event.index]),
                event.attempts, event.error))
            rule.skip()
            return False
        batch = event.batch
        if fresh:
            report.retried_chunks += event.attempts > 1
        else:
            report.resumed_chunks += 1
            chunk = self.plan.chunks[event.index]
            if len(batch) != len(chunk):
                raise ValueError(
                    f"campaign {report.campaign_id} checkpointed {len(batch)} "
                    f"rows for chunk {event.index} of {len(chunk)} points; "
                    "the database does not match this campaign")
            batch = [Injection(point, location, cycle, outcome)
                     for point, (location, cycle, outcome)
                     in zip(chunk, batch)]
        report.injections.extend(batch)
        rule.add([inj.outcome for inj in batch])
        if self.on_chunk is not None:
            self.on_chunk(report)
        report.converged = rule.converged
        return report.converged


def run_campaign(
    backend: InjectionBackend,
    config: EngineConfig = EngineConfig(),
    db: CampaignDb | None = None,
    on_chunk: Callable[[CampaignReport], None] | None = None,
    resume: int | None = None,
) -> CampaignReport:
    """Run a campaign: plan → chunk-event source → fold → sink.

    Deterministic at any worker count and executor choice: the sampled
    point list depends only on ``config.seed``, chunks (and their
    per-chunk RNG seeds) are formed before dispatch, and both result
    accounting and the early-stop decision fold chunks in index order.
    ``on_chunk`` (if given) observes the report after each accounted
    chunk — the hook used for progress streaming; it always runs in the
    calling thread, as does all CampaignDb persistence.

    A backend's ``filter_points`` runs exactly once, in the parent, on
    the post-sampling point list; the outcomes it proves are accounted
    and persisted up front as a census (:class:`StopRule`), so a filter
    that resolves every point converges the campaign unexecuted.

    With a ``db``, every executed chunk is checkpointed
    (:class:`CheckpointSink`); ``resume=campaign_id`` continues such a
    campaign (:func:`resume_campaign`).  Chunk failures (a backend
    raise, a malformed worker result, a result overdue past
    ``config.chunk_timeout``) are retried in the parent, then
    quarantined into ``report.quarantined``; pool failures walk the
    recovery ladder (:func:`executed`).  Errors raised by the accounting
    path itself (``on_chunk`` hooks, database writes) or by the
    backend's ``prepare()`` are *not* retried: they abort the campaign.
    """
    plan = plan_campaign(backend, config)
    report = open_campaign(backend, config, plan, db, resume)
    sink = None if db is None else CheckpointSink(
        db, report.campaign_id, plan.seeds, config.commit_every)
    fold = CampaignFold(report, plan, config.early_stop, sink, on_chunk)
    start = time.perf_counter()
    if resume is not None and not report.converged:
        for event in replayed(db, resume, len(plan.chunks)):
            # a quarantined chunk re-executes on resume (and its record
            # upgrades on success): replay stops in front of it
            if event.batch is None or fold(event):
                break
    if not report.converged:  # (stopping early drains the open executor)
        with closing(executed(backend, plan, config,
                              fold.rule.index)) as source:
            for event in source:
                if fold(event):
                    break
    if sink is not None:
        sink.flush()
    report.elapsed_s = time.perf_counter() - start
    return report


def resume_campaign(
    backend: InjectionBackend,
    campaign_id: int,
    config: EngineConfig = EngineConfig(),
    db: CampaignDb | None = None,
    on_chunk: Callable[[CampaignReport], None] | None = None,
) -> CampaignReport:
    """Resume a checkpointed campaign from its last committed chunk.

    ``backend`` and ``config`` must reconstruct the interrupted campaign
    exactly (same circuit, seed, sampling, chunking — the stored
    fingerprint is checked); ``db`` must be the database it checkpointed
    to.  Completed chunks are replayed from their records, the remainder
    (including any quarantined chunks) is executed, and the returned
    :class:`CampaignReport` is byte-identical to an uninterrupted run —
    early-stop decisions included — except that ``Injection.detail`` is
    not restored on replayed chunks.  Execution policy is free to differ:
    a campaign checkpointed from a process pool may resume serially.
    """
    return run_campaign(backend, config, db=db, on_chunk=on_chunk,
                        resume=campaign_id)
