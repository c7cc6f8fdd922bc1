"""Unified fault-injection campaign engine (paper IV.A).

One parallel, statistically-adaptive execution core behind every FI
workload: backends adapt gate-level PPSFP, SEU, ISO 26262 safety,
SoC-level, RSN test/diagnosis, laser-FI, side-channel trace and GPGPU
SEU campaigns — plus the dynamic-slicing campaign, which drives the
engine's point-filter stage — onto a shared chunked/parallel/
early-stopping runner with streaming CampaignDb persistence.
Execution strategies (serial / spawn-safe multicore processes with a
persistent cross-campaign pool / auto probing) are pluggable via
:mod:`repro.engine.executors`, and sequential fault models
pack up to :data:`repro.engine.lanes.DEFAULT_LANE_WIDTH` injections into
one bit-parallel run via :mod:`repro.engine.lanes`.

The names below resolve on first use (:func:`repro._lazy.lazy_exports`):
``import repro.engine`` loads no submodule, and a process-pool or
service worker that unpickles one backend imports that backend's module
graph only — the circuit backends live in :mod:`.backends`, every other
family (SoC, RSN, laser, SCA, GPGPU, slicing, composite) in
:mod:`.workloads`, the chaos wrappers in :mod:`.chaos`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "backends": ("DETECTED", "UNDETECTED", "PpsfpBackend", "SafetyBackend",
                 "SeuBackend", "ppsfp_result"),
    "core": ("CampaignReport", "EarlyStop", "EngineConfig", "Injection",
             "InjectionBackend", "QuarantinedChunk", "resume_campaign",
             "run_campaign"),
    "executors": ("EXECUTOR_CHOICES", "ChunkTimeout", "ExecutorPlan",
                  "chunk_seed", "plan_executor", "shutdown_pools"),
    "lanes": ("DEFAULT_LANE_WIDTH",),
    "workloads": ("CompositeBackend", "GpgpuSeuBackend", "LaserFiBackend",
                  "RsnDiagnosisBackend", "SKIP_DEAD_FLOP",
                  "SKIP_NO_ACTIVATION", "SKIP_NO_PATH", "ScaTraceBackend",
                  "SlicingBackend", "SocBackend", "point_seed"),
    "chaos": ("ChaosBackend", "ChaosError", "ChaosFault", "HostChaos",
              "HostFault", "cleanup_scratch"),
})
