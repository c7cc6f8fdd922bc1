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
"""

from .backends import (
    DETECTED,
    UNDETECTED,
    PpsfpBackend,
    SafetyBackend,
    SeuBackend,
    SocBackend,
    ppsfp_result,
)
from .core import (
    CampaignReport,
    EarlyStop,
    EngineConfig,
    Injection,
    InjectionBackend,
    QuarantinedChunk,
    resume_campaign,
    run_campaign,
)
from .executors import (
    EXECUTOR_CHOICES,
    ChunkTimeout,
    ExecutorPlan,
    chunk_seed,
    plan_executor,
    shutdown_pools,
)
from .lanes import DEFAULT_LANE_WIDTH

#: Exports resolved lazily from ``.workloads`` (PEP 562): process-pool
#: workers unpickling one of the original backends import this package,
#: and must not pay for the new workload families' module graph.
_WORKLOAD_EXPORTS = frozenset({
    "CompositeBackend",
    "GpgpuSeuBackend",
    "LaserFiBackend",
    "RsnDiagnosisBackend",
    "SKIP_DEAD_FLOP",
    "SKIP_NO_ACTIVATION",
    "SKIP_NO_PATH",
    "ScaTraceBackend",
    "SlicingBackend",
    "point_seed",
})


#: Exports resolved lazily from ``.chaos`` (same rationale: the chaos
#: wrapper is a test/CI tool, not worker-import baggage).
_CHAOS_EXPORTS = frozenset({
    "ChaosBackend",
    "ChaosError",
    "ChaosFault",
    "HostChaos",
    "HostFault",
    "cleanup_scratch",
})


def __getattr__(name: str):
    if name in _WORKLOAD_EXPORTS or name == "workloads":
        from importlib import import_module

        workloads = import_module(".workloads", __name__)
        return workloads if name == "workloads" else getattr(workloads, name)
    if name in _CHAOS_EXPORTS or name == "chaos":
        from importlib import import_module

        chaos = import_module(".chaos", __name__)
        return chaos if name == "chaos" else getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CampaignReport",
    "ChaosBackend",
    "ChaosError",
    "ChaosFault",
    "ChunkTimeout",
    "CompositeBackend",
    "DEFAULT_LANE_WIDTH",
    "DETECTED",
    "EXECUTOR_CHOICES",
    "EarlyStop",
    "EngineConfig",
    "ExecutorPlan",
    "GpgpuSeuBackend",
    "HostChaos",
    "HostFault",
    "Injection",
    "InjectionBackend",
    "LaserFiBackend",
    "PpsfpBackend",
    "QuarantinedChunk",
    "RsnDiagnosisBackend",
    "SKIP_DEAD_FLOP",
    "SKIP_NO_ACTIVATION",
    "SKIP_NO_PATH",
    "SafetyBackend",
    "ScaTraceBackend",
    "SeuBackend",
    "SlicingBackend",
    "SocBackend",
    "UNDETECTED",
    "chunk_seed",
    "cleanup_scratch",
    "plan_executor",
    "point_seed",
    "ppsfp_result",
    "resume_campaign",
    "run_campaign",
    "shutdown_pools",
]
