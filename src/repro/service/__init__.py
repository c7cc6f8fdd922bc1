"""Campaign service: distributed, fault-tolerant campaign execution.

The engine (:mod:`repro.engine`) runs one campaign in one process; this
package runs campaigns across any number of worker processes or hosts
that share nothing but a :class:`~repro.core.campaign.CampaignDb`
SQLite file (WAL mode).  The division of labour:

* :mod:`.queue`  — ``CampaignQueue``: submit / poll / cancel jobs;
  job activation; completion + distributed early-stop detection;
  report assembly by engine replay.
* :mod:`.leases` — ``LeaseManager``: the per-chunk work-claim state
  machine (atomic conditional-UPDATE claims, heartbeat deadline
  extensions, expiry takeovers, quarantine).
* :mod:`.worker` — ``CampaignWorker``: the claim → execute → record
  loop, heartbeat thread, SIGTERM graceful drain, and the
  :class:`~repro.engine.chaos.HostChaos` sabotage points.
* :mod:`.api`    — ``LocalWorkerPool`` and the one-call
  ``run_service_campaign`` for single-host deployments, tests and
  benchmarks.

The load-bearing invariant, proven in ``tests/test_service.py``: a
campaign run by N workers — including workers that are SIGKILLed
mid-chunk, freeze their heartbeats, skew their clocks, or stall and
resume after their lease was reassigned — produces a report
byte-identical to a serial ``run_campaign`` of the same (backend,
config).
"""

from .api import LocalWorkerPool, run_service_campaign
from .leases import Lease, LeaseManager
from .queue import CampaignQueue, Job
from .worker import CampaignWorker, worker_main

__all__ = [
    "CampaignQueue",
    "CampaignWorker",
    "Job",
    "Lease",
    "LeaseManager",
    "LocalWorkerPool",
    "run_service_campaign",
    "worker_main",
]
