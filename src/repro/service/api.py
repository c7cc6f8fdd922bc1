"""Single-host conveniences over the campaign service.

:class:`LocalWorkerPool` spawns N ``CampaignWorker`` processes against
one shared file — the single-host deployment, and the harness the
resilience tests and benchmarks drive (it exposes ``kill(i)`` for
SIGKILL scenarios and ``terminate()`` for SIGTERM drains).  Multi-host
deployments need none of this: point ``CampaignWorker`` at the shared
file from each host.

``run_service_campaign`` is the one-call local mode: submit, run a
pool to completion, assemble the report by replay.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile
from typing import Any

from ..engine.core import CampaignReport, EngineConfig
from .queue import CampaignQueue
from .worker import worker_main


class LocalWorkerPool:
    """N worker *processes* on this host, sharing one CampaignDb file.

    ``worker_kwargs`` is passed to every :class:`CampaignWorker`;
    ``per_worker`` overrides it per index — how tests hand worker 2 a
    :class:`~repro.engine.chaos.HostChaos` script while its peers run
    clean.  Workers run with ``idle_timeout`` seconds of patience for
    new jobs (default: exit as soon as the queue drains).
    """

    def __init__(self, db_path: str | os.PathLike, n_workers: int = 2, *,
                 worker_kwargs: dict | None = None,
                 per_worker: dict[int, dict] | None = None,
                 idle_timeout: float = 0.0) -> None:
        self.db_path = os.fspath(db_path)
        ctx = multiprocessing.get_context("spawn")
        self.procs = []
        for i in range(n_workers):
            kwargs = dict(worker_kwargs or {})
            kwargs.update((per_worker or {}).get(i, {}))
            kwargs.setdefault("worker_id", f"local-{i}")
            self.procs.append(ctx.Process(
                target=worker_main,
                args=(self.db_path, kwargs, idle_timeout),
                name=f"campaign-worker-{i}", daemon=True))

    def start(self) -> "LocalWorkerPool":
        for proc in self.procs:
            proc.start()
        return self

    def join(self, timeout: float | None = None) -> None:
        for proc in self.procs:
            proc.join(timeout)

    def alive(self) -> list[int]:
        return [i for i, proc in enumerate(self.procs) if proc.is_alive()]

    def kill(self, index: int) -> None:
        """SIGKILL one worker — the hard-death scenario (no drain, no
        cleanup; its leases must expire and be reclaimed by peers)."""
        proc = self.procs[index]
        if proc.pid is not None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=10.0)

    def terminate(self) -> None:
        """SIGTERM everyone: graceful drain."""
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()

    def stop(self) -> None:
        self.terminate()
        self.join(timeout=10.0)
        for proc in self.procs:
            if proc.is_alive():  # drain ignored: escalate
                proc.kill()
                proc.join(timeout=5.0)

    def __enter__(self) -> "LocalWorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def run_service_campaign(backend: Any,
                         config: EngineConfig = EngineConfig(), *,
                         db_path: str | os.PathLike | None = None,
                         n_workers: int = 2,
                         worker_kwargs: dict | None = None,
                         per_worker: dict[int, dict] | None = None,
                         wait_timeout: float | None = 300.0
                         ) -> CampaignReport:
    """Submit one campaign, run a local pool until it finishes, and
    return the replay-assembled report (byte-identical to serial)."""
    own_dir: tempfile.TemporaryDirectory | None = None
    if db_path is None:
        own_dir = tempfile.TemporaryDirectory(prefix="repro-service-")
        db_path = os.path.join(own_dir.name, "service.sqlite")
    try:
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(backend, config)
        pool = LocalWorkerPool(db_path, n_workers,
                               worker_kwargs=worker_kwargs,
                               per_worker=per_worker)
        with pool:
            with CampaignQueue(db_path) as queue:
                job = queue.wait(job_id, timeout=wait_timeout)
                if job.state != "done":
                    raise RuntimeError(
                        f"service campaign did not finish: job {job_id} "
                        f"is {job.state!r} after {wait_timeout}s "
                        f"(error: {job.error})")
                return queue.result(job_id)
    finally:
        if own_dir is not None:
            own_dir.cleanup()
