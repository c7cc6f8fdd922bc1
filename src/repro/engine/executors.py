"""Pluggable chunk executors for the campaign engine.

The engine (:mod:`repro.engine.core`) turns a campaign into an ordered
list of point chunks; this module owns *how* those chunks execute:

* ``serial``  — in the calling thread, chunk by chunk (each against
  ``chunk_timeout`` when one is set);
* ``process`` — a spawn-safe ``ProcessPoolExecutor``.  The backend and
  the chunk list are pickled **once** per campaign; workers call
  ``prepare()`` themselves (golden runs and caches are rebuilt per
  process, never pickled), and tasks are just chunk indices.  True
  multicore scaling for CPU-bound backends.  The pool itself is
  **persistent**: it lives in a module-level registry keyed by worker
  count and is reused across campaigns, so sweep-style callers
  (``compare_configurations``, ``encoding_style_study``) pay interpreter
  spawn and module imports once.  Each campaign's payload is written to
  a temp file and lazily loaded by every worker on its first task of
  that campaign (a token guards the worker-side cache), because a
  long-lived pool cannot re-run initializers.  ``shutdown_pools()``
  tears the registry down (also registered at exit);
* ``auto``    — probes the campaign (visible CPUs, backend picklability,
  per-batch cost measured on the first chunk) and picks the process
  pool when it can pay off, logging the reason instead of crashing when
  it is not applicable.

Every executor is a *pull source*: a generator yielding one result per
chunk strictly in chunk-index order from ``start``, each chunk run with
its own RNG stream derived from ``(campaign seed, chunk index)``.  A
**chunk failure** (the backend raised; an in-process chunk overran its
deadline) is a *value*: the exception instance, yielded in the chunk's
slot — the rung goes on, and the pool keeps its window, its payload
file and its workers' prepared state.  An **executor failure**
(:class:`ChunkTimeout` from the pool, ``BrokenProcessPool``,
``OSError``) is *raised* and ends the rung.  The consumer accounts
results in its own frame — its errors are never mistaken for a pool
failure — and stops by closing the generator, whose ``finally`` cancels
all queued chunks and waits out in-flight ones: speculative batches
past the stop point are never accounted.
"""

from __future__ import annotations

import atexit
import itertools
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

# auto-probe thresholds (module level so tests and benchmarks can tune):
# a chunk cheaper than MIN_BATCH_COST_S is dominated by pool dispatch,
# and a campaign with less than MIN_CAMPAIGN_COST_S of work left cannot
# amortise spawning worker interpreters.
MIN_BATCH_COST_S = 0.002
MIN_CAMPAIGN_COST_S = 0.25

# Vector-tier campaigns (lane_width > 64) retire up to lane_width points
# per dispatched chunk, so the conservative MIN_BATCH_COST_S — tuned to
# keep *scalar* campaigns from drowning in per-chunk IPC — would send
# exactly the densest campaigns to the serial loop.  For them the bail
# threshold drops to the bare per-dispatch overhead instead (the
# remaining-work guard still keeps genuinely small campaigns out of the
# pool).
MIN_DISPATCH_COST_S = 0.0004

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
    cannot take (cheap batches, little work, unpicklable backend) runs
    on the serial loop, behind the one chunk the probe executed.
    """
    choice = getattr(config, "executor", "auto")
    if choice != "auto":  # validated by EngineConfig.__post_init__
        return ExecutorPlan(choice)
    if config.workers <= 1 or len(chunks) <= 1:
        return ExecutorPlan("serial", "single worker or single chunk")
    if _usable_cpus() < 2:
        return ExecutorPlan("serial", "single CPU visible: no pool can scale")
    # cost probe first — it needs no serialization, and cheap campaigns
    # skip the (potentially large) pickle entirely
    backend.prepare()
    t0 = time.perf_counter()
    batch0 = execute_chunk(backend, chunks[0], seeds[0])
    per_batch = time.perf_counter() - t0
    remaining = per_batch * (len(chunks) - 1)
    # Lane-aware cost floor: a vector-tier chunk (lane_width > 64) packs
    # up to lane_width points into each dispatch, so a "cheap" batch
    # still amortises process-shipping overhead across a dense point
    # payload — only batches below the raw dispatch cost bail, and only
    # when enough total work remains to amortise the pool at all.
    lane_width = max(1, int(getattr(backend, "lane_width", 1) or 1))
    batch_floor = (MIN_DISPATCH_COST_S
                   if lane_width > 64 and remaining >= MIN_CAMPAIGN_COST_S
                   else MIN_BATCH_COST_S)
    if per_batch < batch_floor:
        return ExecutorPlan(
            "serial",
            f"per-batch cost {per_batch * 1e3:.2f}ms below process dispatch "
            "overhead", probe_batches=[batch0])
    if remaining < MIN_CAMPAIGN_COST_S:
        return ExecutorPlan(
            "serial",
            f"~{remaining * 1e3:.0f}ms of work left: too small to amortise "
            "process spawn", probe_batches=[batch0])
    # the backend alone answers picklability (prepared state is dropped
    # on pickling); the engine pickles the campaign it actually ships
    try:
        pickle.dumps(backend, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # pickle raises many types (Pickling, Type, ...)
        return ExecutorPlan(
            "serial",
            f"backend not picklable ({type(exc).__name__}: {exc})",
            probe_batches=[batch0])
    return ExecutorPlan(
        "process",
        f"picklable backend, {per_batch * 1e3:.1f}ms/batch x "
        f"{len(chunks) - 1} chunks remaining", probe_batches=[batch0])


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
    pool itself stays alive for the next campaign.

    With a ``timeout``, a chunk whose result is overdue raises
    :class:`ChunkTimeout`; the hung task cannot be waited out, so the
    pool is shut down without waiting (the caller evicts it from the
    registry) and never drained.
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
# Persistent pools: one spawn pool per worker count, reused across
# campaigns.  A long-lived pool cannot re-run its initializer, so each
# campaign's payload is parked in a temp file and every worker loads it
# lazily on its first task of that campaign; ``_campaign_state`` caches
# exactly one campaign per worker (tokens are monotonically increasing,
# so a stale cache is simply replaced).  The parent deletes the file
# only after every future of the campaign has completed or been
# cancelled, so no worker can read past the unlink.
_pool_registry: dict[int, ProcessPoolExecutor] = {}
_campaign_tokens = itertools.count(1)
_campaign_state: tuple | None = None  # worker-side: (token, backend, ...)


def persistent_pool(workers: int) -> ProcessPoolExecutor:
    """The registry pool for ``workers``, spawned on first use."""
    pool = _pool_registry.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"))
        _pool_registry[workers] = pool
    return pool


def _discard_pool(workers: int) -> None:
    pool = _pool_registry.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Tear down every persistent pool (tests, benchmarks, atexit) and
    sweep chaos scratch directories (attempt-marker files) with them."""
    pools = list(_pool_registry.values())
    _pool_registry.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)
    # Lazy on purpose: chaos is a test/CI tool and must not become
    # worker-import baggage — only sweep if it was ever imported.
    chaos = sys.modules.get("repro.engine.chaos")
    if chaos is not None:
        chaos.cleanup_scratch()


atexit.register(shutdown_pools)


def _persistent_worker_run(token: int, path: str,
                           index: int) -> tuple[int, list]:
    global _campaign_state
    if _campaign_state is None or _campaign_state[0] != token:
        _campaign_state = None  # free the stale campaign before loading
        with open(path, "rb") as fh:
            backend, chunks, seeds = pickle.load(fh)
        backend.prepare()  # once per worker per campaign, as before
        _campaign_state = (token, backend, chunks, seeds)
    _, backend, chunks, seeds = _campaign_state
    return index, execute_chunk(backend, chunks[index], seeds[index])


def _persistent_worker_release(token: int) -> None:
    """Drop the cached campaign if it is (at most) ``token``'s.

    Tokens increase monotonically, so a worker that already loaded a
    *newer* campaign must keep it; everything older is garbage."""
    global _campaign_state
    if _campaign_state is not None and _campaign_state[0] <= token:
        _campaign_state = None


def run_process(payload: bytes, n_chunks: int, workers: int, start: int = 0,
                timeout: float | None = None) -> Iterator[Any]:
    """Chunks ``start..n_chunks`` of the pickled ``(backend, chunks,
    seeds)`` in ``payload`` on the persistent pool, in index order (the
    caller pickles, so that a pickling failure is not mistaken for a
    pool failure) — one token, one payload file and one ``prepare()``
    per worker per campaign, however many chunks fail."""
    n_workers = max(1, min(workers, n_chunks - start))
    pool = persistent_pool(workers)
    token = next(_campaign_tokens)
    fd, path = tempfile.mkstemp(prefix="repro-engine-payload-",
                                suffix=".pkl")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)

        def submit(i: int):
            return pool.submit(_persistent_worker_run, token, path, i)

        results = _run_pool(pool, submit, n_chunks, _window(n_workers),
                            start, timeout=timeout)
        try:
            for expected, result in enumerate(results, start):
                if not isinstance(result, Exception):
                    index, result = result
                    if index != expected:
                        raise RuntimeError(
                            f"chunk results out of order: got {index}, "
                            f"expected {expected}")
                yield result
        except (ChunkTimeout, BrokenProcessPool, OSError):
            # a pool with a worker stuck on a hung task cannot be trusted
            # (or waited on) and a broken one never heals: evict without
            # waiting, so the next campaign spawns fresh (the engine's
            # recovery ladder handles *this* campaign)
            _discard_pool(workers)
            raise
        finally:
            results.close()  # the consumer stopped: drain before release
            # best-effort memory release: idle workers would otherwise
            # hold this campaign's backend + chunks until the next
            # campaign reaches them.  Fire-and-forget; the shared queue
            # does not guarantee every worker takes one, and a worker
            # already on a newer campaign ignores it (token guard).
            if _pool_registry.get(workers) is pool:
                for _ in range(pool._max_workers):
                    try:
                        pool.submit(_persistent_worker_release, token)
                    except RuntimeError:  # pragma: no cover - shutdown
                        break
    finally:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - already gone
            pass
