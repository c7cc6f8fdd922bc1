"""GPGPU application kernels and the encoding-style reliability study.

[25] evaluates SEU effects on typical GPGPU applications; [40] shows
that *how* software encodes the same computation changes its fault
vulnerability.  Two encodings of the same saturating-add workload are
provided:

* **branchy** — per-thread data-dependent branch (divergence: more
  issue slots, state in the divergence machinery);
* **predicated** — branch-free arithmetic (select via masks computed in
  registers).

The campaign injects pipeline-register transients at random issue slots
and compares outcome distributions (masked / SDC) between encodings —
the [40] experiment shape — plus a plain SEU study on vector-add and
reduction kernels ([25]).  Both studies execute on the unified campaign
engine via :class:`repro.engine.GpgpuSeuBackend`, one campaign per
kernel, keeping their result types while gaining
``db=``/``workers=``/``executor=``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .simt import PipeRegFault, SimtCore, SimtIns


def vector_add_kernel() -> list[SimtIns]:
    """mem[tid+128] = mem[tid] + mem[tid+64]."""
    return [
        SimtIns("tid", dst=0),
        SimtIns("ldg", dst=1, a=0, imm=0),
        SimtIns("ldg", dst=2, a=0, imm=64),
        SimtIns("add", dst=3, a=1, b=2),
        SimtIns("stg", dst=3, a=0, imm=128),
        SimtIns("halt"),
    ]


def reduction_kernel() -> list[SimtIns]:
    """Per-thread partial sums: mem[tid+128] = mem[tid] + mem[tid+32] + mem[tid+64]."""
    return [
        SimtIns("tid", dst=0),
        SimtIns("ldg", dst=1, a=0, imm=0),
        SimtIns("ldg", dst=2, a=0, imm=32),
        SimtIns("add", dst=1, a=1, b=2),
        SimtIns("ldg", dst=2, a=0, imm=64),
        SimtIns("add", dst=1, a=1, b=2),
        SimtIns("stg", dst=1, a=0, imm=128),
        SimtIns("halt"),
    ]


def saturating_add_branchy(limit: int = 100) -> list[SimtIns]:
    """out = min(a + b, limit) using a data-dependent branch.

    The comparison is kept unsigned-safe: ``over = (limit < sum)`` with
    the limit materialized in a register (r5 is never written, so it
    reads 0 and serves as the zero source).
    """
    return [
        SimtIns("tid", dst=0),
        SimtIns("ldg", dst=1, a=0, imm=0),
        SimtIns("ldg", dst=2, a=0, imm=64),
        SimtIns("add", dst=3, a=1, b=2),
        SimtIns("addi", dst=6, a=5, imm=limit),    # r6 = limit
        SimtIns("slt", dst=4, a=6, b=3),           # over = limit < sum
        SimtIns("branch_ez", a=4, imm=8),          # if not over: skip clamp
        SimtIns("add", dst=3, a=6, b=5),           # clamp: r3 = limit
        SimtIns("stg", dst=3, a=0, imm=128),
        SimtIns("halt"),
    ]


def saturating_add_predicated(limit: int = 100) -> list[SimtIns]:
    """Branch-free encoding: out = sum*(1-over) + limit*over."""
    return [
        SimtIns("tid", dst=0),
        SimtIns("ldg", dst=1, a=0, imm=0),
        SimtIns("ldg", dst=2, a=0, imm=64),
        SimtIns("add", dst=3, a=1, b=2),
        SimtIns("addi", dst=4, a=5, imm=limit),    # r4 = limit
        SimtIns("slt", dst=6, a=4, b=3),           # over = limit < sum
        SimtIns("addi", dst=7, a=5, imm=1),
        SimtIns("sub", dst=7, a=7, b=6),           # keep = 1 - over
        SimtIns("mul", dst=3, a=3, b=7),           # sum*keep
        SimtIns("mul", dst=4, a=4, b=6),           # limit*over
        SimtIns("add", dst=3, a=3, b=4),
        SimtIns("stg", dst=3, a=0, imm=128),
        SimtIns("halt"),
    ]


def _run(kernel: list[SimtIns], inputs: list[int], faults: list[object],
         n_warps: int = 2, warp_size: int = 8) -> tuple[list[int], int]:
    core = SimtCore(kernel, n_warps=n_warps, warp_size=warp_size)
    for i, value in enumerate(inputs):
        core.memory[i] = value
    for fault in faults:
        core.inject(fault)
    issues = core.run()
    return core.memory[128:128 + core.n_threads], issues


@dataclass
class EncodingStudyResult:
    """The [40]-style comparison row for one encoding."""

    encoding: str
    issue_slots: int
    masked: int
    sdc: int
    injections: int

    @property
    def sdc_rate(self) -> float:
        return self.sdc / self.injections if self.injections else 0.0


def _draw_faults(rng: random.Random, n: int, bits: int,
                 golden_issues: int) -> list[PipeRegFault]:
    """The fault sequence of the pre-engine loops, draw for draw."""
    return [PipeRegFault(warp=rng.randrange(2), lane=rng.randrange(8),
                         bit=rng.randrange(bits),
                         at_issue=rng.randrange(golden_issues))
            for _ in range(n)]


def _seu_report(kernel: list[SimtIns], inputs: list[int],
                faults: list[PipeRegFault], label: str,
                db, workers: int, executor: str):
    """Run one GPGPU SEU campaign on the unified engine."""
    from ..engine.core import EngineConfig, run_campaign
    from ..engine.workloads import GpgpuSeuBackend

    backend = GpgpuSeuBackend(kernel, inputs, faults, label=label)
    return run_campaign(
        backend, EngineConfig(batch_size=16, workers=workers,
                              executor=executor), db=db)


def encoding_style_study(
    n_injections: int = 60,
    limit: int = 100,
    seed: int = 0,
    db=None,
    workers: int = 1,
    executor: str = "auto",
) -> list[EncodingStudyResult]:
    """Inject pipeline transients into both encodings of the same kernel.

    Each encoding runs as its own engine campaign, recorded under its
    own circuit (``simt-branchy``, ``simt-predicated``).  The fault
    sequences continue a single RNG stream exactly like the pre-engine
    loop, so the outcome counts are draw-for-draw identical.
    """
    rng = random.Random(seed)
    inputs = [rng.randrange(90) for _ in range(128)]
    results = []
    for name, kernel in (("branchy", saturating_add_branchy(limit)),
                         ("predicated", saturating_add_predicated(limit))):
        _golden, golden_issues = _run(kernel, inputs, [])
        faults = _draw_faults(rng, n_injections, 16, golden_issues)
        report = _seu_report(kernel, inputs, faults, name, db, workers,
                             executor)
        results.append(EncodingStudyResult(
            name, golden_issues, masked=report.count("masked"),
            sdc=report.count("sdc"), injections=n_injections))
    return results


def seu_campaign_on_kernel(
    kernel: list[SimtIns],
    n_injections: int = 80,
    seed: int = 0,
    db=None,
    workers: int = 1,
    executor: str = "auto",
) -> dict[str, float]:
    """Random pipeline-register SEUs on one kernel: outcome rates ([25]).

    Runs on the unified campaign engine (``db``/``workers``/``executor``
    passthrough); inputs and fault sequence match the pre-port loop, so
    the rates are injection-for-injection identical.
    """
    rng = random.Random(seed)
    inputs = [rng.randrange(256) for _ in range(128)]
    _golden, golden_issues = _run(kernel, inputs, [])
    faults = _draw_faults(rng, n_injections, 32, golden_issues)
    report = _seu_report(kernel, inputs, faults, "kernel", db, workers,
                         executor)
    return {"masked": report.count("masked") / n_injections,
            "sdc": report.count("sdc") / n_injections,
            "issue_slots": float(golden_issues)}
