"""Deterministic harness-fault injection: chaos testing for the engine.

The rest of this package injects faults into *designs*; this module
injects faults into the *campaign harness itself*, so the engine's
fault-tolerance machinery — chunk retry with backoff, quarantine, the
process → serial recovery ladder, chunk timeouts, checkpoint/resume —
can be driven deterministically in tests and CI instead of waiting for
a flaky pool in production.

:class:`ChaosBackend` wraps any :class:`~repro.engine.core
.InjectionBackend` transparently (same ``name``/identity, same
outcomes, picklable iff the inner backend is) and sabotages the
execution of chunks containing scripted trigger points:

* ``raise``   — raise :class:`ChaosError` from the batch call;
* ``hang``    — sleep ``hang_s`` seconds, then raise (drives
  ``EngineConfig.chunk_timeout``; without a timeout the chunk
  eventually fails and retries like a ``raise``);
* ``die``     — ``os._exit`` the *worker* process mid-batch (breaks a
  process pool; in the parent process it degrades to ``raise`` so a
  serial campaign is not killed);
* ``malform`` — return a wrong-shaped result instead of injections.

Each :class:`ChaosFault` fires for its first ``failures`` executions of
the triggering chunk and then lets it run clean — exactly the shape of
a transient harness fault the retry loop must survive.  The attempt
counter lives in a scratch directory as ``O_CREAT | O_EXCL`` marker
files, so it counts correctly across worker *processes* (a worker that
died mid-chunk has still consumed an attempt) and needs no shared
memory.  :meth:`ChaosBackend.clear_markers` resets the attempt budgets
between campaigns run on one wrapper, and every owned scratch dir is
swept by :func:`cleanup_scratch` (at exit, or earlier through
``shutdown_pools()``), so nothing leaks into the temp dir.

:class:`HostFault` / :class:`HostChaos` extend the same idea one level
up, to the campaign *service* (:mod:`repro.service`): scripted
host-level failures — SIGKILL mid-chunk, frozen heartbeats, clock
skew, a stale worker resuming after its lease was reassigned — that
the lease machinery must absorb while keeping the campaign report
byte-identical to a serial run.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

CHAOS_MODES = ("raise", "hang", "die", "malform")

# Scratch directories created by ChaosBackend instances in this process
# (attempt-marker files live there).  Every owned dir is registered here
# and swept by :func:`cleanup_scratch` — at interpreter exit, or on demand
# through ``engine.executors.shutdown_pools()``.
_scratch_dirs: set[str] = set()


def cleanup_scratch() -> None:
    """Remove every chaos scratch directory this process created."""
    for path in list(_scratch_dirs):
        _scratch_dirs.discard(path)
        shutil.rmtree(path, ignore_errors=True)


atexit.register(cleanup_scratch)


class ChaosError(RuntimeError):
    """The synthetic failure a scripted harness fault raises."""


@dataclass(frozen=True)
class ChaosFault:
    """One scripted harness fault.

    ``trigger`` is an injection *point*; the fault fires on any batch
    containing it (matched by ``repr``, since points cross process
    boundaries by pickling).  ``failures`` is how many executions of
    that batch to sabotage — ``None`` sabotages every one, which is how
    a *persistent* failure (quarantine path) is scripted.
    """

    trigger: Any
    mode: str = "raise"
    failures: int | None = 1

    def __post_init__(self) -> None:
        if self.mode not in CHAOS_MODES:
            raise ValueError(f"unknown chaos mode {self.mode!r}; "
                             f"pick one of {CHAOS_MODES}")


class ChaosBackend:
    """Transparent fault-injecting wrapper around any backend.

    Identity attributes mirror the wrapped backend exactly, so a
    campaign run under chaos has the same fingerprint as a clean one —
    a checkpointed chaos run can resume with the bare backend, which is
    precisely the "harness fixed, campaign resumed" scenario.
    """

    def __init__(self, inner: Any, faults: Iterable[ChaosFault],
                 scratch_dir: str | None = None,
                 hang_s: float = 30.0) -> None:
        self.inner = inner
        self.faults = list(faults)
        self.hang_s = hang_s
        if scratch_dir is None:
            scratch_dir = tempfile.mkdtemp(prefix="repro-chaos-")
            _scratch_dirs.add(scratch_dir)
        self.scratch_dir = scratch_dir
        self._parent_pid = os.getpid()
        self.name = inner.name
        self.circuit_name = inner.circuit_name
        self.fault_model = inner.fault_model
        self.workload = inner.workload
        self._trigger_reprs = [repr(f.trigger) for f in self.faults]

    # -- delegation ----------------------------------------------------
    def enumerate_points(self) -> Sequence[Any]:
        return self.inner.enumerate_points()

    def prepare(self) -> None:
        self.inner.prepare()

    def run_batch(self, points: Sequence[Any]) -> list:
        garbage = self._maybe_sabotage(points)
        if garbage is not None:
            return garbage
        return self.inner.run_batch(points)

    def clear_markers(self) -> None:
        """Drop the attempt markers, so the next campaign run on this
        wrapper gets the scripted faults afresh.

        Parent-process only — a pool worker holding a pickled copy must
        not delete markers the parent still owns.
        """
        if os.getpid() != self._parent_pid:
            return
        try:
            names = os.listdir(self.scratch_dir)
        except OSError:
            return
        for name in names:
            try:
                os.unlink(os.path.join(self.scratch_dir, name))
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    def __getattr__(self, name: str):
        # Optional-protocol hooks (lane_width, filter_points, use_filter,
        # __getstate__, ...) must look absent when the inner backend
        # lacks them; "inner" itself may be missing mid-unpickle.
        if name.startswith("__") or "inner" not in self.__dict__:
            raise AttributeError(name)
        inner = self.__dict__["inner"]
        if name == "run_batch_seeded":
            seeded = getattr(inner, "run_batch_seeded")  # may raise: good

            def run_batch_seeded(points: Sequence[Any], rng: Any) -> list:
                garbage = self._maybe_sabotage(points)
                if garbage is not None:
                    return garbage
                return seeded(points, rng)

            return run_batch_seeded
        return getattr(inner, name)

    # -- sabotage ------------------------------------------------------
    def _claim_attempt(self, fault_index: int) -> int:
        """The next attempt ordinal for this fault, claimed atomically
        across processes via O_EXCL marker files."""
        key = hashlib.sha1(
            self._trigger_reprs[fault_index].encode()).hexdigest()[:12]
        ordinal = 0
        while True:
            path = os.path.join(self.scratch_dir,
                                f"{key}.{fault_index}.{ordinal}")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                ordinal += 1
                continue
            os.close(fd)
            return ordinal

    def _maybe_sabotage(self, points: Sequence[Any]) -> list | None:
        """Fire any armed fault whose trigger is in this batch.  Returns
        a malformed result for ``malform`` mode, else None (run clean)."""
        for index, fault in enumerate(self.faults):
            trigger = self._trigger_reprs[index]
            if not any(repr(point) == trigger for point in points):
                continue
            attempt = self._claim_attempt(index)
            if fault.failures is not None and attempt >= fault.failures:
                continue  # budget spent: this execution runs clean
            if fault.mode == "hang":
                time.sleep(self.hang_s)
                raise ChaosError(
                    f"hung execution {attempt} of chunk containing "
                    f"{fault.trigger!r} woke up")
            if fault.mode == "die":
                if os.getpid() != self._parent_pid:
                    os._exit(17)  # a real worker death: no cleanup, no trace
                # in the parent, dying would kill the campaign process
                # itself — degrade to a raise so serial runs stay testable
                raise ChaosError(
                    f"die-in-worker fault hit in the parent process "
                    f"(execution {attempt})")
            if fault.mode == "malform":
                return ["<malformed chaos result>"]
            raise ChaosError(
                f"injected failure {attempt} on chunk containing "
                f"{fault.trigger!r}")
        return None


# ----------------------------------------------------------------------
# host-level faults: sabotage a campaign-service *worker host*, not a
# chunk.  ChaosFault breaks one batch; HostFault breaks the machine the
# batch runs on — the failure modes the lease machinery must survive.
# ----------------------------------------------------------------------
HOST_FAULT_KINDS = ("sigkill", "freeze_heartbeat", "clock_skew", "stall")


@dataclass(frozen=True)
class HostFault:
    """One scripted host fault for a :class:`repro.service.worker
    .CampaignWorker`.

    ``after_chunks`` is the 1-based ordinal of the worker's *claimed*
    chunk the fault keys on:

    * ``sigkill``          — ``SIGKILL`` the worker process the moment
      it claims its Nth lease (dead mid-chunk: lease held, chunk
      unrecorded; recovery = deadline expiry + reclaim by a peer);
    * ``freeze_heartbeat`` — heartbeats stop once N chunks have been
      claimed; the worker keeps executing, so its leases expire under
      it and peers legitimately take the work over;
    * ``clock_skew``       — every clock read this worker makes is off
      by ``skew_s`` (positive: it reclaims peers' live leases early;
      negative: its own deadlines are born expired — either way the
      campaign must stay byte-identical, duplicates and all);
    * ``stall``            — the worker goes dark for ``stall_s``
      seconds *between executing its Nth chunk and recording it*: the
      stale-worker scenario, where the lease is reassigned and
      re-executed elsewhere while the original still comes back and
      writes its (idempotently ignored, byte-identical) result.
    """

    kind: str
    after_chunks: int = 1
    skew_s: float = 0.0
    stall_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in HOST_FAULT_KINDS:
            raise ValueError(f"unknown host fault {self.kind!r}; "
                             f"pick one of {HOST_FAULT_KINDS}")


class HostChaos:
    """Deterministic host-fault script, consulted by a CampaignWorker.

    Pickles with the worker spawn arguments (plain data + counters), so
    a scripted worker process carries its own sabotage.  The worker
    calls :meth:`on_chunk_claimed` right after winning a lease,
    :meth:`stall_before_record` between execution and recording, reads
    all wall-clock time through :meth:`now`, and its heartbeat thread
    checks :meth:`heartbeats_frozen` every tick.
    """

    def __init__(self, faults: Iterable[HostFault]) -> None:
        self.faults = list(faults)
        self.claimed = 0

    def now(self, real: float) -> float:
        """The worker's (possibly skewed) view of ``real`` wall time."""
        return real + sum(f.skew_s for f in self.faults
                          if f.kind == "clock_skew")

    def heartbeats_frozen(self) -> bool:
        return any(f.kind == "freeze_heartbeat"
                   and self.claimed >= f.after_chunks for f in self.faults)

    def on_chunk_claimed(self) -> None:
        """Advance the claim ordinal; a due ``sigkill`` fires here —
        after the lease row is committed, before any result exists."""
        self.claimed += 1
        for fault in self.faults:
            if fault.kind == "sigkill" and self.claimed == fault.after_chunks:
                os.kill(os.getpid(), signal.SIGKILL)  # no cleanup, no trace

    def stall_before_record(self) -> None:
        """Sleep out any ``stall`` fault due on the current chunk."""
        for fault in self.faults:
            if fault.kind == "stall" and self.claimed == fault.after_chunks:
                time.sleep(fault.stall_s)
