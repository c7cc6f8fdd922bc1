"""The declarative workload table: six fixed campaigns, no timing code.

Each :class:`Workload` names a design (a circuit whose topology is part
of the workload definition, like an ISCAS netlist), how its seeded
inputs are generated, the :class:`~repro.engine.EngineConfig` of the
campaign, and which execution path carries it (in-process engine,
process executor, campaign service).  ``--seed`` drives the *traffic* —
stimulus cycles, test patterns, and the sample of points the oracle
re-checks; ``src/`` only ever sees the generated inputs.

The sizes are the ISSUE's campaigns scaled so that one campaign takes
1-2 s on the 2-CPU sandbox (the contract allows ~25 s per benchmark
run, five repeats included); the scaled sizes are recorded in every
output record under ``sizes``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.circuit.library import random_combinational, random_sequential
from repro.engine import (EarlyStop, EngineConfig, PpsfpBackend, SeuBackend,
                          SlicingBackend)
from repro.faults.universe import collapse
from repro.sim.fault_sim import fault_simulate
from repro.sim.logic import random_patterns
from repro.soft_error.seu import random_workload


@dataclass
class Inputs:
    """Generated inputs of one workload at one seed.

    ``backend(circuit)`` builds a fresh campaign backend on the given
    circuit object (the runner passes ``circuit.copy()`` so program,
    cone and topo caches start cold); ``oracle(points)`` classifies
    points on the reference path and is called under
    ``sim.compiled.disabled()``.
    """

    circuit: Any
    backend: Callable[[Any], Any]
    oracle: Callable[[Sequence[Any]], list[str]]
    sizes: dict
    #: seconds spent per set-up layer (children of ``setup_s``)
    setup_layers: dict[str, float] = field(default_factory=dict)
    #: the generated stimulus cycles / pattern batches (the lane and
    #: fault-sim probes replay them)
    stimuli: Any = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], Inputs]
    config: EngineConfig
    #: ``inproc`` (engine in this process), ``process`` (process
    #: executor, 2 workers) or ``service`` (campaign service, 2 workers)
    mode: str = "inproc"
    min_repeats: int = 5
    #: outcome whose confidence interval enters the digest
    ci_outcome: str = "failure"
    #: points re-run through the oracle (sized so the check costs <= ~2 s)
    oracle_points: int = 128
    #: serial workload this one must be outcome-identical to
    twin_of: str | None = None
    #: per-layer probe families applied in the traced run
    probes: tuple[str, ...] = ()


def _stopwatch(layers: dict[str, float], name: str,
               fn: Callable[[], Any]) -> Any:
    start = time.perf_counter()
    out = fn()
    layers[name] = layers.get(name, 0.0) + time.perf_counter() - start
    return out


def seu_inputs(n_in: int, n_gates: int, n_flops: int, design_seed: int,
                n_cycles: int, lane_width: int) -> Callable[[int], Inputs]:
    def build(seed: int) -> Inputs:
        layers: dict[str, float] = {}
        circuit = _stopwatch(layers, "circuit.build_s", lambda:
                             random_sequential(n_in, n_gates, n_flops,
                                               seed=design_seed))
        stimuli = _stopwatch(layers, "sim.patterns_s", lambda:
                             random_workload(circuit, n_cycles, seed=seed))

        def oracle(points: Sequence[Any]) -> list[str]:
            ref = SeuBackend(circuit.copy(), stimuli, lane_width=1)
            ref.prepare()
            return [inj.outcome for inj in ref.run_batch(points)]

        return Inputs(
            circuit=circuit,
            backend=lambda c: SeuBackend(c, stimuli, lane_width=lane_width,
                                         lane_backing=None),
            oracle=oracle,
            sizes={"inputs": n_in, "gates": n_gates, "flops": n_flops,
                   "cycles": n_cycles, "lane_width": lane_width,
                   "population": n_flops * n_cycles},
            setup_layers=layers, stimuli=stimuli)
    return build


def ppsfp_inputs(n_in: int, n_gates: int, design_seed: int, n_batches: int,
                  batch_patterns: int) -> Callable[[int], Inputs]:
    def build(seed: int) -> Inputs:
        layers: dict[str, float] = {}
        circuit = _stopwatch(layers, "circuit.build_s", lambda:
                             random_combinational(n_in, n_gates,
                                                  seed=design_seed))
        faults = _stopwatch(layers, "faults.collapse_s",
                            lambda: collapse(circuit)[0])
        batches = _stopwatch(layers, "sim.patterns_s", lambda: [
            (random_patterns(circuit.inputs, batch_patterns,
                             seed=seed * 1000 + i), batch_patterns)
            for i in range(n_batches)])

        def oracle(points: Sequence[Any]) -> list[str]:
            # unbatched PPSFP: every fault against every batch, no
            # dropping, no cone-program reuse across batches
            ref = circuit.copy()
            detected: set = set()
            for pi_values, n in batches:
                detected.update(
                    fault_simulate(ref, points, pi_values, n).detected)
            return ["detected" if f in detected else "undetected"
                    for f in points]

        return Inputs(
            circuit=circuit,
            backend=lambda c: PpsfpBackend(c, faults, batches),
            oracle=oracle,
            sizes={"inputs": n_in, "gates": n_gates,
                   "batches": n_batches, "batch_patterns": batch_patterns,
                   "population": len(faults)},
            setup_layers=layers, stimuli=batches)
    return build


def slicing_inputs(n_in: int, n_gates: int, n_flops: int, design_seed: int,
                    n_cycles: int) -> Callable[[int], Inputs]:
    def build(seed: int) -> Inputs:
        layers: dict[str, float] = {}
        circuit = _stopwatch(layers, "circuit.build_s", lambda:
                             random_sequential(n_in, n_gates, n_flops,
                                               seed=design_seed))
        faults = _stopwatch(layers, "faults.collapse_s",
                            lambda: collapse(circuit)[0])
        stimuli = _stopwatch(layers, "sim.patterns_s", lambda:
                             random_workload(circuit, n_cycles, seed=seed))

        def oracle(points: Sequence[Any]) -> list[str]:
            ref = SlicingBackend(circuit.copy(), faults, stimuli,
                                 use_filter=False, lane_width=1)
            ref.prepare()
            return [inj.outcome for inj in ref.run_batch(points)]

        return Inputs(
            circuit=circuit,
            backend=lambda c: SlicingBackend(c, faults, stimuli,
                                             use_filter=True, lane_width=64),
            oracle=oracle,
            sizes={"inputs": n_in, "gates": n_gates, "flops": n_flops,
                   "cycles": n_cycles, "faults": len(faults),
                   "population": len(faults) * n_cycles},
            setup_layers=layers, stimuli=stimuli)
    return build


SERIAL = EngineConfig(executor="serial")

_SEU_PACKED64 = seu_inputs(16, 2000, 128, design_seed=11, n_cycles=120,
                            lane_width=64)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="seu_packed64",
        why="default engine path: 64-lane compiled big-int step kernel "
            "is ~90 % of wall, DB/accounting <4 %; serial bypass twin of "
            "_proc2/_svc2",
        build=_SEU_PACKED64, config=SERIAL, oracle_points=24,
        probes=("lanes",)),
    Workload(
        name="seu_soa4096",
        why="same layers at 4096 lanes: numpy SoA kernel, few huge "
            "chunks, prepare() and outcome recovery are a large share; "
            "where SoA width scaling and backing resolution show",
        build=seu_inputs(80, 12800, 320, design_seed=12, n_cycles=136,
                          lane_width=4096),
        config=SERIAL, oracle_points=2, probes=("lanes", "soa_widths")),
    Workload(
        name="ppsfp_stat",
        why="bypasses engine.lanes: sim.fault_sim + cone caches + fault "
            "dropping + Wilson early stop; a lanes/SoA change must leave "
            "it flat, a stop-rule change moves its executed count",
        build=ppsfp_inputs(32, 2400, design_seed=13, n_batches=16,
                            batch_patterns=64),
        # The stop rule is checked once per 1024-fault chunk and the
        # margin puts the natural stopping point (4610 +- 85 faults over
        # seeds) midway between two checks, so the executed count repeats
        # exactly across seeds (5120) while a stop-rule change of >~10 %
        # still moves it by a whole chunk.  With the ISSUE's 128-fault
        # chunks the count itself had a 3-4 % seed-to-seed spread, which
        # fed straight into campaign_wall_s and db_mb.
        config=EngineConfig(
            executor="serial", shuffle=True, batch_size=1024,
            early_stop=EarlyStop("detected", margin=0.0064,
                                 min_injections=200)),
        ci_outcome="detected", oracle_points=128, probes=("fault_sim",)),
    Workload(
        name="slicing_filtered",
        why="accounting-heavy: ~65 % of points resolved by the filter "
            "census, 425 small chunks, filter + DB + engine loop ~35 % of "
            "wall; CampaignDb/one-loop/telemetry changes show, a "
            "kernel-only gain should not",
        build=slicing_inputs(10, 400, 40, design_seed=14, n_cycles=48),
        config=SERIAL, oracle_points=128),
    Workload(
        name="seu_packed64_proc2",
        why="the seu_packed64 campaign on the process executor x2: "
            "pickle/ship, spawn, per-worker prepare, sliding window; a "
            "one-shot user pays pool spawn every campaign",
        build=_SEU_PACKED64,
        config=replace(SERIAL, executor="process", workers=2),
        mode="process", oracle_points=24, twin_of="seu_packed64",
        probes=("executors",)),
    Workload(
        name="seu_packed64_svc2",
        why="the same campaign through repro.service with 2 workers: "
            "queue/leases/worker, two writers on one WAL file, and the "
            "replay read side of CampaignDb",
        build=_SEU_PACKED64, config=SERIAL, mode="service",
        min_repeats=7, oracle_points=24, twin_of="seu_packed64",
        probes=("service",)),
)

BY_NAME = {w.name: w for w in WORKLOADS}
