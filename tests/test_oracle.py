"""One differential oracle over the campaign configuration product.

Whatever runs a campaign — backend, circuit, lane width and carrier,
compiled or interpreted, serial loop or process pool, fresh, aborted
after chunk *k* and resumed, or N ``repro.service`` workers, with
transient ``ChaosFault`` / ``HostChaos`` faults — its report
(``conftest._signature``; ``Injection.detail`` on fresh runs only) and
its exported ``CampaignDb`` rows equal the serial ``lane_width=1``
reference interpreter's, memoised per (backend, circuit, workload
length, sampling, chunking and stop policy).  On the service path only
the chunks the reference recorded are compared: workers may record past
a stop.  On the other paths the database's summary is also the
report's.

:func:`check` asserts that for one :class:`Config`; the property draws
configurations (derandomized), ``PINNED`` runs every backend on every
path, and other modules pin named configurations through :func:`check`.
A new backend needs a branch in :func:`_inputs` and :func:`_backend`
and an entry in ``BACKENDS``; a new axis a :class:`Config` field, a
draw in :func:`configs`, its effect in :func:`_run` and, if it changes
the reference, a place in :func:`_reference_config`.
"""

from __future__ import annotations

import functools
import os
import random
import tempfile
import threading
from contextlib import nullcontext, suppress
from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _signature
from repro.circuit import load
from repro.circuit.library import random_sequential
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
    SlicingBackend,
    resume_campaign,
    run_campaign,
)
from repro.engine.lanes import aligned_batch_size
from repro.engine.workloads import GpgpuSeuBackend
from repro.faults import all_stuck_at, collapse
from repro.service import CampaignQueue, CampaignWorker, run_service_campaign
from repro.sim import compiled, random_patterns
from repro.soft_error import random_workload

BACKENDS = ("seu", "seu-filter", "slicing", "slicing-nofilter", "ppsfp",
            "gpgpu")
CARRIERS = ("seu", "seu-filter", "slicing", "slicing-nofilter")
#: the outcome an early stop watches (``failure`` where not named)
STOP_OUTCOME = {"ppsfp": "detected", "gpgpu": "sdc"}
#: ``rndN``: a 6-flop random sequential circuit of seed N
CIRCUITS = ("s27", "rand_seq", "rnd1", "rnd2")
KERNELS = ("vector_add", "reduction")
LANE_WIDTHS = (1, 7, 64, 192)
GPGPU_WIDTHS = (1, 8, 64)
BACKINGS = (None, "int", "soa")
PATHS = ("fresh", "resume", "service")
CHAOS_MODES = ("raise", "malform", "die")
#: per-worker host fault schedules the threaded service draws
HOST_SCHEDULES = ((), ((HostFault("clock_skew", skew_s=30.0),),),
                  ((HostFault("freeze_heartbeat"),),))


@dataclass(frozen=True)
class Config:
    """One point of the product.  ``long``: the long SEU / slicing
    workload, enough points that one wide chunk spans several 64-bit
    lane words; ``faults``: ``(point index, chaos mode, failures)``
    triples; ``hosts``: one ``HostFault`` schedule per service worker;
    ``worker_processes``: spawned service workers instead of threads."""

    backend: str = "seu"
    circuit: str = "rand_seq"
    long: bool = False
    lane_width: int = 1
    backing: str | None = None
    compiled: bool = True
    executor: str = "serial"
    workers: int = 2
    path: str = "fresh"
    kill_after: int = 2
    batch_size: int = 16
    sample: int | None = None
    shuffle: bool = False
    seed: int = 7
    stop: bool = False
    commit_every: int = 4
    faults: tuple[tuple[int, str, int], ...] = ()
    hosts: tuple[tuple[HostFault, ...], ...] = ()
    worker_processes: bool = False
    lease_ttl: float = 5.0


# ----------------------------------------------------------------------
# workloads, built once per (backend, circuit, length)
# ----------------------------------------------------------------------
def _slicing_faults(circuit):
    """Up to three stuck-at faults of every site kind: stems, gate and
    flop-D branches, primary inputs, flop outputs."""
    kinds = {}
    for fault in all_stuck_at(circuit):
        line = fault.line
        if not line.is_stem:
            kind = "flop_branch" if line.sink in circuit.flops else "branch"
        else:
            kind = ("pi" if line.net in circuit.inputs
                    else "q" if line.net in circuit.flops else "stem")
        kinds.setdefault(kind, []).append(fault)
    return [fault for members in kinds.values()
            for fault in members[::max(1, len(members) // 3)][:3]]


@functools.cache
def _inputs(backend, name, long=False):
    if backend == "gpgpu":
        from repro.gpgpu import reduction_kernel, vector_add_kernel
        from repro.gpgpu.apps import _draw_faults, _run

        kernel = {"vector_add": vector_add_kernel,
                  "reduction": reduction_kernel}[name]()
        rng = random.Random(5)
        inputs = [rng.randrange(256) for _ in range(128)]
        _golden, issues = _run(kernel, inputs, [])
        return kernel, inputs, _draw_faults(rng, 48, 32, issues)
    circuit = random_sequential(
        n_inputs=5, n_gates=40, n_flops=6, n_outputs=4, seed=int(name[3:])
    ) if name.startswith("rnd") else load(name)
    if backend == "ppsfp":
        return circuit, collapse(circuit)[0], [
            (random_patterns(circuit.inputs, 16, seed=b), 16)
            for b in range(3)]
    if backend.startswith("slicing"):  # long on rand_seq: 480 points
        faults = collapse(circuit)[0][:40] if long else _slicing_faults(
            circuit)
        return circuit, faults, random_workload(circuit, 12 if long else 6,
                                                seed=3)
    return circuit, random_workload(circuit, 20 if long else 8, seed=7)


def _backend(config):
    kind = config.backend
    inputs = _inputs(kind, config.circuit, config.long)
    lanes = dict(lane_width=config.lane_width, lane_backing=config.backing)
    if kind in ("seu", "seu-filter"):
        circuit, stimuli = inputs
        backend = SeuBackend(circuit.copy(), stimuli,
                             skip_dead_flops=kind == "seu-filter", **lanes)
    elif kind.startswith("slicing"):
        circuit, faults, stimuli = inputs
        backend = SlicingBackend(circuit.copy(), faults, stimuli,
                                 use_filter=kind == "slicing", **lanes)
    elif kind == "ppsfp":
        circuit, faults, batches = inputs
        backend = PpsfpBackend(circuit.copy(), faults, batches)
    else:
        kernel, stimuli, faults = inputs
        backend = GpgpuSeuBackend(kernel, stimuli, faults,
                                  label=config.circuit,
                                  lane_width=config.lane_width)
    if not config.faults:
        return backend
    points = backend.enumerate_points()
    return ChaosBackend(backend, [
        ChaosFault(points[index % len(points)], mode, failures)
        for index, mode, failures in config.faults])


def _engine(config):
    stop = EarlyStop(STOP_OUTCOME.get(config.backend, "failure"),
                     margin=0.15, min_injections=16) if config.stop else None
    # the retry budget outlasts every transient schedule: two faults of
    # two failures on one chunk, plus an attempt lost to a pool another
    # chunk's worker death broke before this chunk ran
    return EngineConfig(batch_size=config.batch_size, workers=config.workers,
                        sample=config.sample, shuffle=config.shuffle,
                        seed=config.seed, early_stop=stop,
                        commit_every=config.commit_every,
                        executor=config.executor, max_chunk_retries=5,
                        retry_backoff_s=0.001)


def _exported(db, campaign_id):
    """A campaign's rows: the filter census, and each chunk's."""
    census, chunks = [], {}
    for _campaign, chunk, *row in db.rows(campaign_id):
        (census if chunk is None else chunks.setdefault(chunk, [])).append(
            tuple(row))
    return census, chunks


# ----------------------------------------------------------------------
# the three paths
# ----------------------------------------------------------------------
class AbortCampaign(Exception):
    """Simulated crash raised from the accounting path."""


def _abort_after(n_chunks: int):
    """An on_chunk hook that records the campaign id, then kills the
    campaign after ``n_chunks`` accounted chunks."""
    seen = {"n": 0, "campaign_id": None}

    def hook(report):
        seen["campaign_id"] = report.campaign_id
        seen["n"] += 1
        if seen["n"] >= n_chunks:
            raise AbortCampaign(f"aborted after {n_chunks} chunks")

    return hook, seen


def _resumed(config, backend, engine, db):
    hook, seen = _abort_after(config.kill_after)
    with suppress(AbortCampaign):  # (short or stopped early: no abort)
        seen["campaign_id"] = run_campaign(backend, engine, db=db,
                                           on_chunk=hook).campaign_id
    return resume_campaign(_backend(config), seen["campaign_id"], engine,
                           db=db)


def _served(config, backend, engine):
    chaos = [HostChaos(faults) if faults else None for faults in config.hosts]
    chaos += [None] * (config.workers - len(chaos))
    with tempfile.TemporaryDirectory(prefix="repro-oracle-") as scratch:
        path = os.path.join(scratch, "service.sqlite")
        if config.worker_processes:
            run_service_campaign(
                backend, engine, db_path=path, n_workers=config.workers,
                worker_kwargs={"lease_ttl": config.lease_ttl},
                per_worker={i: {"chaos": c} for i, c in enumerate(chaos)
                            if c is not None},
                wait_timeout=180)
        else:
            with CampaignQueue(path) as queue:
                queue.submit(backend, engine)
            workers = [CampaignWorker(path, worker_id=f"w{i}",
                                      lease_ttl=config.lease_ttl, chaos=c)
                       for i, c in enumerate(chaos)]
            threads = [threading.Thread(target=w.run) for w in workers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        with CampaignQueue(path) as queue:
            job = queue.poll(1)  # the only job of a fresh database
            assert job.state == "done", job
            return queue.result(job.id), _exported(queue.db, job.campaign_id)


def _run(config, backend):
    engine = _engine(config)
    with nullcontext() if config.compiled else compiled.disabled():
        if config.path == "service":
            return _served(config, backend, engine)
        db = CampaignDb()
        if config.path == "resume":
            report = _resumed(config, backend, engine, db)
        else:
            report = run_campaign(backend, engine, db=db)
        # the database counts what the report counts (service workers,
        # which may record chunks past a stop, are compared by chunk)
        summary = db.summary(report.campaign_id)
        assert (summary.total, summary.outcomes) == (report.total,
                                                     report.outcomes)
        return report, _exported(db, report.campaign_id)


# ----------------------------------------------------------------------
# the reference and the one assertion
# ----------------------------------------------------------------------
def _reference_config(config, backend):
    """``config``'s workload and sampling and stop policy, run fresh by
    the serial interpreter in the chunks the engine aligns to the
    resolved lane width."""
    chunk = aligned_batch_size(getattr(backend, "lane_width", 1),
                               config.batch_size, EngineConfig.batch_size)
    return Config(backend=config.backend, circuit=config.circuit,
                  long=config.long, compiled=False, batch_size=chunk,
                  sample=config.sample, shuffle=config.shuffle,
                  seed=config.seed, stop=config.stop)


@functools.cache
def _reference(config):
    return _run(config, _backend(config))


def check(config):
    """Run ``config``; assert its report and its exported rows equal the
    serial ``lane_width=1`` interpreter's.  Returns the report, for the
    assertions a caller adds about how it ran."""
    backend = _backend(config)
    report, (census, chunks) = _run(config, backend)
    reference, (ref_census, ref_chunks) = _reference(
        _reference_config(config, backend))
    details = config.path == "fresh"
    assert _signature(report, details) == _signature(reference, details)
    if config.path == "service":  # chunks recorded past the stop
        chunks = {i: rows for i, rows in chunks.items() if i in ref_chunks}
    assert (census, chunks) == (ref_census, ref_chunks)
    return report


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------
@st.composite
def configs(draw):
    backend = draw(st.sampled_from(BACKENDS))
    gpgpu = backend == "gpgpu"
    path = draw(st.sampled_from(PATHS))
    hosts = draw(st.sampled_from(HOST_SCHEDULES)) if path == "service" \
        else ()
    fault = st.tuples(st.integers(0, 999), st.sampled_from(CHAOS_MODES),
                      st.integers(1, 2))
    return Config(
        backend=backend,
        circuit=draw(st.sampled_from(KERNELS if gpgpu else CIRCUITS)),
        lane_width=1 if backend == "ppsfp" else draw(
            st.sampled_from(GPGPU_WIDTHS if gpgpu else LANE_WIDTHS)),
        backing=draw(st.sampled_from(BACKINGS)) if backend in CARRIERS
        else None,
        compiled=draw(st.booleans()),
        executor="serial" if path == "service" else draw(
            st.sampled_from(("serial", "process"))),
        path=path,
        kill_after=draw(st.integers(1, 4)),
        # 64 is the engine default, which a lane wider than 64 raises to
        # its width; 200 fills a 192-lane chunk's three words
        batch_size=draw(st.sampled_from((8, 16, 24, 64, 200))),
        sample=draw(st.sampled_from((None, 40))),
        shuffle=draw(st.booleans()),
        stop=draw(st.booleans()),
        commit_every=draw(st.sampled_from((1, 4))),
        # not both: a lease taken over counts as an attempt, so a chunk
        # fault on top could spend the retry budget and quarantine
        faults=() if hosts else tuple(draw(st.lists(fault, max_size=2))),
        hosts=hosts)


#: every backend on every path: widest lane, SoA carrier where there is
#: one, a transient chunk fault on the engine paths, an early stop on the
#: replayed ones.  The carriers run the long workload in engine-default
#: chunks, which their 192 lanes raise to three 64-bit words.
PINNED = [Config(backend=backend,
                 circuit="reduction" if backend == "gpgpu" else "rand_seq",
                 lane_width={"ppsfp": 1, "gpgpu": 64}.get(backend, 192),
                 backing="soa" if backend in CARRIERS else None,
                 path=path, stop=path != "fresh", shuffle=path != "fresh",
                 commit_every=1,
                 faults=() if path == "service" else ((30, "raise", 1),),
                 **(dict(long=True, batch_size=64, kill_after=1)
                    if backend in CARRIERS else {}))
          for backend in BACKENDS for path in PATHS]


def _pinned(test):
    for config in reversed(PINNED):
        test = example(config)(test)
    return test


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(configs())
@_pinned
@example(Config(lane_width=64))  # the int carrier's skewed walker
@example(Config(path="resume", executor="process", commit_every=1,
                kill_after=2))  # the pool starts at the resumed chunk
def test_every_configuration_reports_the_reference(config):
    check(config)
