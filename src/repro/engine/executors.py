"""Pluggable chunk executors for the campaign engine.

The engine (:mod:`repro.engine.core`) turns a campaign into an ordered
list of point chunks; this module owns *how* those chunks execute:

* ``serial``  — in the calling thread, chunk by chunk (each against
  ``chunk_timeout`` when one is set);
* ``process`` — a ``ProcessPoolExecutor`` of the campaign's own,
  joined when the rung ends.  Its workers are forked on Linux when the
  caller runs one Python thread, and spawned otherwise, and each is
  pinned to a CPU of its own while the usable CPUs suffice.  The backend
  and the chunk list are pickled **once** into a temp file each worker
  loads on its first task and calls ``prepare()`` itself (golden runs
  and caches are rebuilt per process, never pickled); a task is a run
  of consecutive chunk indices, sized from the workers' own timings so
  that a task costs about ``MIN_BATCH_COST_S``.  True multicore scaling
  for CPU-bound backends;
* ``auto``    — probes the campaign (visible CPUs, backend picklability,
  per-batch cost measured on the first chunk) and picks the process
  pool when it can pay off, logging the reason instead of crashing when
  it is not applicable.

Every executor is a *pull source*: a generator yielding one result per
chunk strictly in chunk-index order from ``start``, each chunk run with
its own RNG stream derived from ``(campaign seed, chunk index)``.  A
**chunk failure** (the backend raised; an in-process chunk overran its
deadline) is a *value*: the exception instance, yielded in the chunk's
slot — the rung goes on, and the pool keeps its window and its
workers' prepared state.  An **executor failure**
(:class:`ChunkTimeout` from the pool, ``BrokenProcessPool``,
``OSError``) is *raised* and ends the rung.  The consumer accounts
results in its own frame — its errors are never mistaken for a pool
failure — and stops by closing the generator, whose ``finally`` cancels
all queued chunks, waits out in-flight ones and joins the pool:
speculative batches past the stop point are never accounted, and no
worker but a hung one outlives the campaign.
"""

from __future__ import annotations

import gc
import logging
import math
import multiprocessing
import os
import pickle
import random
import sys
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

log = logging.getLogger("repro.engine")

EXECUTOR_CHOICES = ("auto", "serial", "process")


class ChunkTimeout(Exception):
    """A dispatched chunk exceeded ``EngineConfig.chunk_timeout``.

    The hung task cannot be killed (``concurrent.futures`` offers no
    per-task cancellation of running work), so the pool it sits on is
    abandoned without waiting and the engine steps down to the serial
    rung before retrying the chunk; on the serial rung only its daemon
    thread is abandoned, so there it is a chunk failure like any other.
    """

# auto-probe cost model (module level so tests and benchmarks can tune):
# a chunk cheaper than MIN_BATCH_COST_S is dominated by pool dispatch
# (so a pool task groups chunks up to that cost), and a pool costs
# COLD_POOL_COST_S before its first chunk returns — forking the workers,
# each worker's payload load and prepare(), and the join (0.029-0.031 s
# for two forked workers on a 2-CPU host, a 2000-gate 128-flop SEU
# campaign, warm native cache; 0.26-0.28 s when they are spawned) — so
# it pays only when splitting the remaining work across the workers
# saves more.
MIN_BATCH_COST_S = 0.002
COLD_POOL_COST_S = 0.03

_MASK64 = (1 << 64) - 1


def chunk_seed(seed: int, index: int) -> int:
    """Per-chunk RNG seed: a splitmix-style mix of campaign seed and
    chunk index, so every chunk owns an independent, reproducible stream
    no matter which worker (thread, process, or the parent) runs it."""
    mixed = ((seed & _MASK64) * 0x9E3779B97F4A7C15
             + (index + 1) * 0xBF58476D1CE4E5B9) & _MASK64
    mixed ^= mixed >> 31
    return (mixed * 0x94D049BB133111EB) & _MASK64


def execute_chunk(backend: Any, chunk: Sequence[Any], seed: int) -> list:
    """Run one chunk, threading the per-chunk RNG through if the backend
    wants one (the optional ``run_batch_seeded`` hook for stochastic
    workloads).  The ``random.Random`` is constructed here, inside the
    worker task, so concurrent chunks never share RNG state."""
    seeded = getattr(backend, "run_batch_seeded", None)
    if seeded is not None:
        return seeded(chunk, random.Random(seed))
    return backend.run_batch(chunk)


def execute_chunk_timed(backend: Any, chunk: Sequence[Any], seed: int,
                        timeout: float | None) -> list:
    """:func:`execute_chunk` with a deadline, for every in-process
    execution: the serial rung and parent-side retries.

    A chunk may hang deterministically; running it inline would block
    the campaign forever on exactly the input ``chunk_timeout`` was
    configured to survive.  With a timeout the chunk runs on a one-shot
    daemon thread instead and an overdue result raises
    :class:`ChunkTimeout` — the hung thread cannot be killed, so it is
    abandoned (daemon: it dies with the interpreter).
    """
    if timeout is None:
        return execute_chunk(backend, chunk, seed)
    box: list[tuple[bool, Any]] = []

    def _run() -> None:
        try:
            box.append((True, execute_chunk(backend, chunk, seed)))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box.append((False, exc))

    worker = threading.Thread(target=_run, daemon=True,
                              name="repro-chunk-retry")
    worker.start()
    worker.join(timeout)
    if not box:
        raise ChunkTimeout(f"in-process chunk overdue after {timeout}s")
    ok, value = box[0]
    if ok:
        return value
    raise value


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _window(workers: int) -> int:
    """Sliding submission window, in pool tasks: keeps every worker busy
    while bounding the speculative work discarded when early stop
    converges."""
    return max(4, 2 * workers)


def _task_size(chunk_s: float | None, left: int, workers: int,
               timeout: float | None) -> int:
    """Chunks in the next pool task: one while no task has reported its
    time yet, or when a deadline must stay per chunk; else enough that
    the task costs ``MIN_BATCH_COST_S`` at the last task's ``chunk_s``
    seconds a chunk, but never more than an even share of the ``left``
    chunks not yet dispatched."""
    if chunk_s is None or timeout is not None:
        return 1
    share = -(-left // workers)
    if chunk_s <= 0:
        return share
    return max(1, min(math.ceil(MIN_BATCH_COST_S / chunk_s), share))


@dataclass
class ExecutorPlan:
    """Resolved execution strategy for one campaign.

    ``probe_batches`` holds results of leading chunks the auto-probe
    already executed in the parent — the engine accounts them first so
    probing never repeats (or reorders) work.
    """

    name: str
    reason: str = ""
    probe_batches: list | None = None


def plan_executor(backend: Any, chunks: Sequence[Sequence[Any]],
                  config: Any, seeds: Sequence[int]) -> ExecutorPlan:
    """Resolve ``config.executor`` to a concrete strategy.

    Explicit choices pass through untouched; ``auto`` probes and falls
    back with a reason instead of crashing: a campaign the process pool
    cannot take (cheap batches, unpicklable backend) or would not win
    runs on the serial loop, behind the two chunks the probe executed.
    The probe runs chunk 0 untimed — it pays every first-use cost: the
    lane context, golden tables, walk tables, native library loads — and
    times chunk 1, which is what each chunk after it costs.  The pool is
    picked only when the remaining work split across the workers, plus
    the cold pool's cost, finishes sooner than the remaining work run
    serially.
    """
    choice = getattr(config, "executor", "auto")
    if choice != "auto":  # validated by EngineConfig.__post_init__
        return ExecutorPlan(choice)
    if config.workers <= 1 or len(chunks) <= 1:
        return ExecutorPlan("serial", "single worker or single chunk")
    cpus = _usable_cpus()
    if cpus < 2:
        return ExecutorPlan("serial", "single CPU visible: no pool can scale")
    # cost probe first — it needs no serialization, and cheap campaigns
    # skip the (potentially large) pickle entirely
    backend.prepare()
    probed = [execute_chunk(backend, chunks[0], seeds[0])]
    t0 = time.perf_counter()
    probed.append(execute_chunk(backend, chunks[1], seeds[1]))
    per_batch = time.perf_counter() - t0
    remaining = per_batch * (len(chunks) - 2)
    if per_batch < MIN_BATCH_COST_S:
        return ExecutorPlan(
            "serial",
            f"per-batch cost {per_batch * 1e3:.2f}ms below process dispatch "
            "overhead", probe_batches=probed)
    workers = min(config.workers, cpus)
    if remaining - remaining / workers < COLD_POOL_COST_S:
        return ExecutorPlan(
            "serial",
            f"~{remaining * 1e3:.0f}ms of work left: {workers} workers "
            f"save less than the {COLD_POOL_COST_S * 1e3:.0f}ms a cold "
            "pool costs", probe_batches=probed)
    # the backend alone answers picklability (prepared state is dropped
    # on pickling); the engine pickles the campaign it actually ships
    try:
        pickle.dumps(backend, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # pickle raises many types (Pickling, Type, ...)
        return ExecutorPlan(
            "serial",
            f"backend not picklable ({type(exc).__name__}: {exc})",
            probe_batches=probed)
    return ExecutorPlan(
        "process",
        f"picklable backend, {per_batch * 1e3:.1f}ms/batch x "
        f"{len(chunks) - 2} chunks remaining", probe_batches=probed)


# ----------------------------------------------------------------------
# execution strategies: each is a generator yielding, per chunk of
# chunks[start:] in index order, the batch or the exception the chunk
# raised; the consumer stops by closing it
# ----------------------------------------------------------------------
def run_serial(backend: Any, chunks: Sequence[Sequence[Any]],
               seeds: Sequence[int], start: int = 0,
               timeout: float | None = None) -> Iterator[Any]:
    for i in range(start, len(chunks)):
        try:
            result = execute_chunk_timed(backend, chunks[i], seeds[i],
                                         timeout)
        except Exception as exc:  # noqa: BLE001 - a chunk failure is a value
            result = exc
        yield result


def _drain(futures: Sequence[Any]) -> None:
    """Cancel queued tasks and wait out in-flight ones, aggregating their
    chunks' errors into one log line instead of silently swallowing them
    (a speculative chunk past an early stop may legitimately fail — but
    a *pattern* of suppressed failures is a harness bug worth seeing)."""
    for future in futures:
        future.cancel()
    suppressed: list[str] = []
    for future in futures:  # wait out whatever could not cancel
        if not future.cancelled():
            try:
                _, results = future.result()
            except Exception as exc:  # noqa: BLE001 - collected, not masked
                results = [exc]
            suppressed += [f"{type(exc).__name__}: {exc}" for exc in results
                           if isinstance(exc, Exception)]
    if suppressed:
        log.warning(
            "engine: drained %d suppressed chunk error(s) after stop: %s",
            len(suppressed), "; ".join(suppressed[:3])
            + ("; ..." if len(suppressed) > 3 else ""))


def _run_pool(pool: Any, submit: Callable[[int, int], Any], n_chunks: int,
              workers: int, start: int,
              timeout: float | None = None) -> Iterator[Any]:
    """Sliding-window dispatch yielding results in chunk order.

    A task is a run of consecutive chunks, ``submit(first, count)``,
    whose future returns ``(seconds, results)``: the worker's time on
    those chunks and one result per chunk, a chunk that raised holding
    its exception in its slot.  Each task is sized by
    :func:`_task_size` from the last task's time.  Tasks are consumed
    strictly in submission (= chunk) order and yielded chunk by chunk;
    the next task is submitted only once the consumer asks for more
    than the last one held, every index is submitted exactly once, and
    at most :func:`_window` tasks are in flight.  A task whose whole
    result raised yields that exception in each of its slots.  When
    the consumer closes the generator (early stop, or an error of its
    own) — and on any error here — queued tasks are cancelled and
    in-flight ones are waited out (their errors aggregated into one log
    line), so no speculative batch is yielded or left running in the
    background; the caller then joins the idle pool.

    With a ``timeout`` every task is one chunk, and a chunk whose result
    is overdue raises :class:`ChunkTimeout`; the hung task cannot be
    waited out, so the pool is shut down without waiting and never
    drained.
    """
    tasks: deque = deque()  # (count, future), in chunk order
    next_chunk = start
    chunk_s = None
    hung = False
    try:
        while True:
            while next_chunk < n_chunks and len(tasks) < _window(workers):
                count = _task_size(chunk_s, n_chunks - next_chunk, workers,
                                   timeout)
                tasks.append((count, submit(next_chunk, count)))
                next_chunk += count
            if not tasks:
                break
            count, future = tasks.popleft()
            try:
                busy_s, results = future.result(timeout)
                chunk_s = busy_s / count
            # FutureTimeout: on 3.10 concurrent.futures raises its own
            # TimeoutError (an Exception, not the builtin) — without it
            # the timeout would pass for a chunk failure and the finally
            # path would drain (= block forever on) the hung future
            except (TimeoutError, FutureTimeout) as exc:
                hung = True
                raise ChunkTimeout(
                    f"chunk result overdue after {timeout}s") from exc
            except (BrokenProcessPool, OSError):
                raise  # pool-level failure: the engine degrades the ladder
            except Exception as exc:  # noqa: BLE001 - the task's, a value
                results = [exc] * count
            yield from results
    finally:
        if hung:
            # never wait on a hung task — abandon the pool wholesale
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            _drain([future for _, future in tasks])


# ----------------------------------------------------------------------
# process pool: backend + chunks ship once per worker per campaign
# ----------------------------------------------------------------------
# The initializer gets the payload's path, not its bytes: a spawn child
# reads initargs off a pipe only once its interpreter is up, so a
# payload past the pipe buffer would block the parent per worker spawn.
# ``prepare()`` runs on the first task, not in the initializer, so its
# failure is that chunk's (a value), not a broken pool.
_payload_path = ""  # worker-side: set by the pool initializer
_campaign: tuple | None = None  # worker-side: (backend, chunks, seeds)


def _worker_init(path: str, cpus: Any = None) -> None:
    global _payload_path
    _payload_path = path
    if cpus is not None:
        try:
            os.sched_setaffinity(0, {cpus.get()})
        except OSError:  # pragma: no cover - the CPU went away: unpinned
            pass
    # a forked worker never collects what it inherited: no finalizer of
    # the parent's objects (an open database connection among them) runs
    # here, and the collector does not copy the parent's pages
    gc.freeze()


def _worker_run(first: int, count: int) -> tuple[float, list]:
    """Chunks ``first..first + count - 1``: the seconds spent on them
    (the worker's one-off load and ``prepare()`` not counted) and one
    result per chunk, a chunk failure as its exception."""
    global _campaign
    results: list = []
    t0 = time.perf_counter()
    for index in range(first, first + count):
        try:
            if _campaign is None:
                with open(_payload_path, "rb") as fh:
                    backend, chunks, seeds = pickle.load(fh)
                backend.prepare()  # once per worker; a raise fails this chunk
                _campaign = (backend, chunks, seeds)
                t0 = time.perf_counter()
            backend, chunks, seeds = _campaign
            results.append(execute_chunk(backend, chunks[index],
                                         seeds[index]))
        except Exception as exc:  # noqa: BLE001 - a chunk failure is a value
            results.append(exc)
    return time.perf_counter() - t0, results


def _start_method() -> str:
    """``fork`` on Linux from a process running one Python thread — a
    forked worker inherits the imported modules and loaded native
    libraries instead of booting an interpreter — else ``spawn``: a
    fork from a multi-threaded process can deadlock on a lock another
    thread held (Python 3.12 warns about it)."""
    if sys.platform.startswith("linux") and threading.active_count() == 1:
        return "fork"
    return "spawn"


def _worker_cpus(context: Any, workers: int) -> Any:
    """A queue of ``workers`` distinct usable CPUs, one taken by each
    worker's initializer to pin itself; ``None`` (workers unpinned) on
    a platform without CPU affinity or when the workers outnumber the
    CPUs.  Left to the Linux scheduler, workers that a parent wakes
    with short tasks stay packed on the parent's CPU while the other
    CPUs idle — the pool then runs no faster than one core, or as fast
    as two, depending on what last kept the CPUs busy."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return None
    if not 1 < workers <= len(allowed):
        return None
    cpus = context.SimpleQueue()
    for cpu in allowed[:workers]:
        cpus.put(cpu)
    return cpus


def shutdown_pools() -> None:
    """Sweep chaos scratch directories (attempt-marker files).  No pool
    outlives its campaign, so there is none left to tear down; the name
    stays for callers that tidy up between campaigns."""
    # Lazy on purpose: chaos is a test/CI tool and must not become
    # worker-import baggage — only sweep if it was ever imported.
    chaos = sys.modules.get("repro.engine.chaos")
    if chaos is not None:
        chaos.cleanup_scratch()


def run_process(payload: bytes, n_chunks: int, workers: int, start: int = 0,
                timeout: float | None = None) -> Iterator[Any]:
    """Chunks ``start..n_chunks`` of the pickled ``(backend, chunks,
    seeds)`` in ``payload`` on a pool of this rung's own, forked or
    spawned (:func:`_start_method`), its workers pinned to distinct CPUs
    (:func:`_worker_cpus`), in index order (the caller pickles,
    so that a pickling failure is not mistaken for a pool failure) —
    one ``prepare()`` per worker, however many chunks fail.  The pool
    is joined when the rung ends, abandoned only past a
    :class:`ChunkTimeout` (a hung worker never joins); the payload file
    is deleted last."""
    n_workers = max(1, min(workers, n_chunks - start))
    fd, path = tempfile.mkstemp(prefix="repro-engine-payload-",
                                suffix=".pkl")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        context = multiprocessing.get_context(_start_method())
        pool = ProcessPoolExecutor(
            max_workers=n_workers, mp_context=context,
            initializer=_worker_init,
            initargs=(path, _worker_cpus(context, n_workers)))
        results = _run_pool(
            pool, lambda first, count: pool.submit(_worker_run, first, count),
            n_chunks, n_workers, start, timeout=timeout)
        hung = False
        try:
            yield from results
        except ChunkTimeout:
            hung = True  # _run_pool already abandoned the pool
            raise
        finally:
            results.close()  # the consumer stopped: drain before the join
            if not hung:
                # joined, so no worker's teardown runs into whatever the
                # caller does next (the next campaign's auto-probe timing)
                pool.shutdown(wait=True)
    finally:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - already gone
            pass
