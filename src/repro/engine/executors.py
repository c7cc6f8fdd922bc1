"""Pluggable chunk executors for the campaign engine.

The engine (:mod:`repro.engine.core`) turns a campaign into an ordered
list of point chunks; this module owns *how* those chunks execute:

* ``serial``  — in the calling thread, chunk by chunk (each against
  ``chunk_timeout`` when one is set);
* ``process`` — a spawn-safe ``ProcessPoolExecutor`` of the campaign's
  own, joined when the rung ends.  The backend and the chunk list are
  pickled **once** into a temp file each worker loads on its first task
  and calls ``prepare()`` itself (golden runs and caches are rebuilt
  per process, never pickled); tasks are just chunk indices.  True
  multicore scaling for CPU-bound backends;
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

import logging
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
# a chunk cheaper than MIN_BATCH_COST_S is dominated by pool dispatch,
# and a pool costs COLD_POOL_COST_S before its first chunk returns —
# spawning the workers, each worker's prepare() and native library load,
# and the join (0.27-0.29 s for two workers on a 2-CPU host, a 2000-gate
# 128-flop SEU campaign, warm native cache) — so it pays only when
# splitting the remaining work across the workers saves more.
MIN_BATCH_COST_S = 0.002
COLD_POOL_COST_S = 0.28

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
    """Sliding submission window: keeps every worker busy while bounding
    the speculative work discarded when early stop converges."""
    return max(4, 2 * workers)


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


def _drain(futures: deque) -> None:
    """Cancel queued futures and wait out in-flight ones, aggregating
    their errors into one log line instead of silently swallowing them
    (a speculative chunk past an early stop may legitimately fail — but
    a *pattern* of suppressed failures is a harness bug worth seeing)."""
    for future in futures:
        future.cancel()
    suppressed: list[str] = []
    for future in futures:  # wait out whatever could not cancel
        if not future.cancelled():
            try:
                future.result()
            except Exception as exc:  # noqa: BLE001 - collected, not masked
                suppressed.append(f"{type(exc).__name__}: {exc}")
    if suppressed:
        log.warning(
            "engine: drained %d suppressed chunk error(s) after stop: %s",
            len(suppressed), "; ".join(suppressed[:3])
            + ("; ..." if len(suppressed) > 3 else ""))


def _run_pool(pool: Any, submit: Callable[[int], Any], n_chunks: int,
              window: int, start: int,
              timeout: float | None = None) -> Iterator[Any]:
    """Sliding-window dispatch yielding results in chunk order.

    Futures are consumed strictly in submission (= chunk) order, and the
    next chunk is submitted only once the consumer asks for more; a
    chunk that raised yields its exception in its slot and the window
    slides on, every index submitted exactly once.  When the consumer
    closes the generator (early stop, or an error of its own) — and on
    any error here — queued chunks are cancelled and in-flight ones are
    waited out (their errors aggregated into one log line), so no
    speculative batch is yielded or left running in the background; the
    caller then joins the idle pool.

    With a ``timeout``, a chunk whose result is overdue raises
    :class:`ChunkTimeout`; the hung task cannot be waited out, so the
    pool is shut down without waiting and never drained.
    """
    futures: deque = deque()
    next_chunk = start
    hung = False
    try:
        while next_chunk < n_chunks and len(futures) < window:
            futures.append(submit(next_chunk))
            next_chunk += 1
        while futures:
            future = futures.popleft()
            try:
                result = future.result(timeout)
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
            except Exception as exc:  # noqa: BLE001 - the chunk's, a value
                result = exc
            yield result
            if next_chunk < n_chunks:
                futures.append(submit(next_chunk))
                next_chunk += 1
    finally:
        if hung:
            # never wait on a hung task — abandon the pool wholesale
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            _drain(futures)


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


def _worker_init(path: str) -> None:
    global _payload_path
    _payload_path = path


def _worker_run(index: int) -> tuple[int, list]:
    global _campaign
    if _campaign is None:
        with open(_payload_path, "rb") as fh:
            backend, chunks, seeds = pickle.load(fh)
        backend.prepare()  # once per worker; a raise fails this chunk
        _campaign = (backend, chunks, seeds)
    backend, chunks, seeds = _campaign
    return index, execute_chunk(backend, chunks[index], seeds[index])


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
    seeds)`` in ``payload`` on a spawn pool of this rung's own, in index
    order (the caller pickles, so that a pickling failure is not
    mistaken for a pool failure) — one ``prepare()`` per worker, however
    many chunks fail.  The pool is joined when the rung ends, abandoned
    only past a :class:`ChunkTimeout` (a hung worker never joins); the
    payload file is deleted last."""
    n_workers = max(1, min(workers, n_chunks - start))
    fd, path = tempfile.mkstemp(prefix="repro-engine-payload-",
                                suffix=".pkl")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        pool = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init, initargs=(path,))
        results = _run_pool(pool, lambda i: pool.submit(_worker_run, i),
                            n_chunks, _window(n_workers), start,
                            timeout=timeout)
        hung = False
        try:
            for expected, result in enumerate(results, start):
                if not isinstance(result, Exception):
                    index, result = result
                    if index != expected:
                        raise RuntimeError(
                            f"chunk results out of order: got {index}, "
                            f"expected {expected}")
                yield result
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
