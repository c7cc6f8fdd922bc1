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
  all workloads in one place — a chunk's outcomes stay one columnar
  :class:`repro.core.campaign.Outcomes` block from the backend through
  the fold to the database, and the report reads them as
  :class:`Injection` records only when asked (:class:`InjectionView`);
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
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterator, Mapping, Sequence
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, NamedTuple, Protocol, runtime_checkable

from ..core.campaign import CampaignDb, ListSequence, Outcomes
from ..core.stats import Interval, wilson_interval
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

    A record is what a reader of a report sees, not what the campaign
    carries: a chunk's outcomes travel from the backend to the database
    as one :class:`repro.core.campaign.Outcomes` block of columns, and
    ``report.injections`` builds the records from those blocks on first
    read (:class:`InjectionView`).  Backends without a columnar path
    still return a list of records, built positionally, which the
    engine adapts into a block once.  A record is one immutable tuple
    with no ``__dict__``; it compares equal to the plain tuple of its
    fields, and orders and iterates like one.
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
    provide an optional ``filter_points(points) -> (kept, census)``
    method.  The engine calls it exactly once, in the parent, after
    sampling and before chunking (``prepare()`` runs first so the filter
    can consult golden data); ``census`` holds the skipped points'
    outcomes, accounted — and persisted — as first-class outcomes
    without ever being executed: one
    :class:`repro.core.campaign.Outcomes` block (the skipped points by
    reference, their locations and cycles, one outcome code per point,
    the skip rule in ``details`` — what the in-tree filters build), or a
    list of ready-made :class:`Injection` records, which
    :func:`plan_campaign` adapts into a block once.  Filters must be
    *lossless*: a skipped point's outcome must equal what ``run_batch``
    would have produced.  A backend with a switchable filter may also
    expose a ``use_filter`` attribute; when it is False the stage
    (including its parent-side ``prepare()``) is skipped entirely.
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

    def run_batch(self, points: Sequence[Any]) -> Outcomes | list[Injection]:
        """Execute the given injection points, one outcome per point in
        point order: an :class:`repro.core.campaign.Outcomes` block
        (``points`` by reference, columns of equal length — what the
        lane-packed backends return), or a list of :class:`Injection`
        records, which the engine adapts into a block once."""
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
    (a process pool of the campaign's own, its workers forked on Linux
    from a single-threaded caller and spawned otherwise: the backend
    ships to each worker once, a task carries a run of chunks, true
    multicore scaling applies, and the pool is joined before the
    campaign returns), or
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


class InjectionView(ListSequence):
    """A campaign's executed points: the chunks' :class:`Outcomes`
    blocks in accounting order, read as one ``Sequence[Injection]``.

    The fold appends blocks and their outcome tallies, so ``len`` and
    :meth:`counts` never build a record, and :meth:`column` chains one
    column over the blocks.  Indexing, slicing, iterating, ``==`` and
    ``+`` read each block's own records, built once per block on its
    first such read.
    """

    def __init__(self) -> None:
        self.blocks: list[Outcomes] = []
        self._offsets = [0]  # each block's first point, then the total
        self._counts: Counter[str] = Counter()

    def append(self, block: Outcomes, counts: Mapping[str, int]) -> None:
        """Add ``block``, whose tally is ``counts``."""
        self.blocks.append(block)
        self._offsets.append(len(self) + len(block))
        self._counts.update(counts)

    def counts(self) -> dict[str, int]:
        """Points per outcome, in first-appearance order."""
        return self._counts

    def column(self, name: str) -> Iterator:
        """One :meth:`Outcomes.column` over every block, in order."""
        return chain.from_iterable(block.column(name)
                                   for block in self.blocks)

    def __len__(self) -> int:
        return self._offsets[-1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        if not -len(self) <= index < len(self):
            raise IndexError("InjectionView index out of range")
        index %= len(self)
        block = bisect_right(self._offsets, index) - 1
        return self.blocks[block][index - self._offsets[block]]

    def __iter__(self) -> Iterator[Injection]:
        return chain.from_iterable(self.blocks)

    def __repr__(self) -> str:
        return f"InjectionView({len(self)} points in {len(self.blocks)} blocks)"


@dataclass
class CampaignReport:
    """Aggregated engine output, common to every backend.

    ``injections`` holds executed points — an :class:`InjectionView`
    over the chunks' outcome blocks, whose records are built on first
    read; ``skipped`` holds points the backend's filter stage resolved
    from golden data alone (fixed at construction): the plan's census,
    one :class:`Outcomes` block whose :class:`Injection` records, skip
    rule in ``detail``, are likewise built on first read (a list of
    records passed in is adapted into a block once).  Both are
    first-class outcomes: counts, rates and confidence intervals cover
    their union, so a filter only changes *cost*, never statistics.
    Those are read off tallies — the fold's, and the census block's,
    taken once — so they cost one step per outcome, not per point.

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
    injections: InjectionView = field(default_factory=InjectionView)
    skipped: Outcomes = field(default_factory=lambda: Outcomes.of(()))
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
    _census: Counter[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.skipped, Outcomes):
            self.skipped = Outcomes.of(list(self.skipped))
        self._census = Counter(self.skipped.tally())

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
        return dict(self.injections.counts() + self._census)

    def count(self, outcome: str) -> int:
        return self.injections.counts()[outcome] + self._census[outcome]

    def rate(self, outcome: str) -> float:
        return self.count(outcome) / self.total if self.total else 0.0

    def confidence_interval(self, outcome: str,
                            confidence: float = 0.95) -> Interval:
        return wilson_interval(self.count(outcome), self.total, confidence)

    @property
    def injections_per_second(self) -> float:
        return self.total / self.elapsed_s if self.elapsed_s > 0 else 0.0

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


#: The block of no points: a quarantine record's payload, and the census
#: of a campaign without a filter stage.
_EMPTY = Outcomes.of([])


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

    ``skipped`` is the filter census: one :class:`Outcomes` block of the
    points the filter resolved, in the filter's order, which the report
    holds and the database stores as it is.
    """

    points: list[Any]
    skipped: Outcomes
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

    skipped = _EMPTY
    filter_points = getattr(backend, "filter_points", None)
    # backends with a switchable filter expose ``use_filter`` so a
    # disabled filter costs nothing (no parent-side prepare)
    if filter_points is not None and getattr(backend, "use_filter", True):
        backend.prepare()  # filters consult golden-run data
        kept, census = filter_points(points)
        points = list(kept)
        skipped = _census_block(backend, census)
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


def _census_block(backend: InjectionBackend, census: Any) -> Outcomes:
    """The one seam between a filter's census and the campaign: a block
    as it is, a list of :class:`Injection` records adapted once.  A
    malformed census raises ``ValueError`` here, at plan time, before
    any chunk runs."""
    try:
        if not isinstance(census, Outcomes):
            census = Outcomes.of(list(census))
        problem = _malformed(census, len(census.codes))
    except (TypeError, ValueError) as exc:
        problem = f"{type(exc).__name__}: {exc}"
    if problem is not None:
        raise ValueError(f"{backend.name}.filter_points returned a "
                         f"malformed census: {problem}")
    return census


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
            if plan.skipped:  # the census block is one first-class block
                db.record_many(report.campaign_id, report.skipped)
    return report


@dataclass(frozen=True)
class ChunkEvent:
    """One resolved chunk, as every source reports it to the fold:
    ``batch`` is the result, an :class:`Outcomes` block (*done*), or
    ``None`` (*failed*: quarantined, ``error`` says why) after
    ``attempts`` executions.  ``executor`` names the ladder rung that
    resolved it — ``None`` for an event replayed from a checkpoint,
    which the fold neither re-checkpoints nor counts as a retry; its
    ``batch`` is the checkpointed block, without points, to which the
    fold re-attaches the plan's."""

    index: int
    attempts: int
    batch: Outcomes | None = None
    error: str | None = None
    executor: str | None = None


def check_batch(batch: Any, chunk: Sequence[Any], index: int
                ) -> tuple[Outcomes | None, str | None]:
    """The one seam between a chunk result and the accounting:
    ``(block, None)``, or ``(None, error)`` for a malformed batch (a
    crashed deserialization, a corrupted return) — a chunk failure,
    retried and then quarantined, not corrupt accounting.

    A block must hold one point per chunk point in columns of equal
    length, its codes naming its outcomes; a list of :class:`Injection`
    records is adapted into a block here, once.  The checks are
    C-speed column reads, no per-point Python."""
    if isinstance(batch, list) and (not batch
                                    or isinstance(batch[0], Injection)):
        try:
            batch = Outcomes.of(batch)
        except (TypeError, ValueError) as exc:
            return None, (f"ValueError: malformed result for chunk {index}: "
                          f"{type(exc).__name__}: {exc}")
    if isinstance(batch, Outcomes):
        got = _malformed(batch, len(chunk))
        if got is None:
            return batch, None
    else:
        got = (f"{type(batch).__name__}[{len(batch)}]"
               if isinstance(batch, (list, tuple)) else type(batch).__name__)
    return None, (f"ValueError: malformed result for chunk {index}: expected "
                  f"{len(chunk)} Injection entries, got {got}")


def _malformed(block: Outcomes, n: int) -> str | None:
    """``None`` when ``block`` holds ``n`` points in columns of equal
    length, its codes naming its outcomes; else what it holds instead.
    C-speed column reads, no per-point Python."""
    columns = [block.points, block.locations, block.cycles]
    if block.details is not None:
        columns.append(block.details)
    if (len(block.codes) == n and all(column is not None
                                      and len(column) == n
                                      for column in columns)
            and (not n or max(block.codes) < len(block.names))):
        return None
    return (f"Outcomes[{len(block.codes)}] with columns of "
            f"{[None if c is None else len(c) for c in columns]} "
            f"points, codes up to {max(block.codes, default=0)} for "
            f"{len(block.names)} outcome names")


def attempt_chunk(backend: InjectionBackend, plan: CampaignPlan, index: int,
                  timeout: float | None
                  ) -> tuple[Outcomes | None, str | None]:
    """Execute chunk ``index`` once, here: ``(block, None)``, or ``(None,
    error)`` when the backend raised or the result was malformed or
    overdue — ``timeout`` is a deadline, so a deterministically hung
    chunk spends its budget and quarantines instead of blocking."""
    chunk = plan.chunks[index]
    try:
        batch = _executors.execute_chunk_timed(backend, chunk,
                                               plan.seeds[index], timeout)
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return check_batch(batch, chunk, index)


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
    if isinstance(result, Exception):
        block, error = None, f"{type(result).__name__}: {result}"
    else:
        block, error = check_batch(result, plan.chunks[index], index)
    if error is None:
        return ChunkEvent(index, 1, block, executor=executor)
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
    blocks = db.chunk_rows(campaign_id)
    for index in range(n_chunks):
        record = records.get(index)
        if record is None:
            return
        yield ChunkEvent(index, record.attempts, error=record.error, batch=(
            blocks.get(index, _EMPTY) if record.status == "done" else None))


class StopRule:
    """The convergence arithmetic and the chunk cursor, implemented once.

    Filtered points are a *census* of their stratum (known outcomes,
    zero variance); only the executed sample of the kept points is
    uncertain.  The overall-rate half-width is therefore the
    executed-sample Wilson half-width scaled by the kept stratum's share
    of the campaign — treating skips as Bernoulli draws would bias the
    interval whenever the filtered subpopulation differs from the kept
    one.  Running tallies, fed one outcome tally per chunk, keep the
    per-chunk check O(outcomes), not O(history).  ``index`` is the first chunk not yet folded; fed in
    chunk order — by the engine's fold or, counts only, by
    :func:`replayed_stop` — the rule converges on the same chunk.
    """

    def __init__(self, stop: EarlyStop | None, plan: CampaignPlan) -> None:
        self.stop = stop
        self.census = len(plan.skipped)
        self.kept, self.planned = plan.n_kept, plan.planned
        self.executed = self.hits = self.index = 0

    def add(self, counts: Mapping[str, int]) -> None:
        """Fold one executed chunk's outcome tally (points per outcome)."""
        self.index += 1
        self.executed += sum(counts.values())
        if self.stop is not None:
            self.hits += counts.get(self.stop.outcome, 0)

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
            rule.add(event.batch.tally())
    return rule


class CheckpointSink:
    """Sink: chunk events → crash-consistent ``CampaignDb`` checkpoints
    (a chunk's block, packed from its columns, plus its record keyed by
    ``(campaign_id, chunk_index)``), one transaction per
    ``commit_every`` chunks."""

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
                    event.batch if done else _EMPTY,
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
            batch = batch.with_points(chunk)
        counts = batch.tally()
        report.injections.append(batch, counts)
        rule.add(counts)
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
