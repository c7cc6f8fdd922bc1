"""Injection backends: adapters from each FI workload onto the engine.

Each backend owns the workload-specific physics (how to build the golden
reference, how to inject one point, how to classify the outcome) and
exposes the uniform :class:`repro.engine.core.InjectionBackend` surface.
``run_batch`` implementations are pure with respect to backend state
after :meth:`prepare`, so the engine may execute them from any worker
in any order.  Every backend also pickles cleanly before
``prepare()`` (circuits drop their memoized caches on serialization)
and ``prepare()`` is idempotent, which is what the process-pool
executor needs: the backend ships to each worker once and rebuilds its
golden runs and caches locally.

Since the engine grew chunk-level fault tolerance, purity and
idempotence carry one more obligation: execution is **at-least-once**.
A chunk that raised or hung past ``chunk_timeout``, or whose pool died
under it, is re-executed in the parent process (after a ``prepare()``
there; the pool and its workers' prepared state carry on unless it was
the pool that failed), and a checkpointed campaign re-executes any
chunk whose record never committed.  A backend must therefore produce
the same injections for the same points on every execution and must
not accumulate observable side effects across ``run_batch`` calls; all
backends below satisfy this by construction (their mutable state is
golden-run caches keyed only by the immutable workload).

The SEU backend packs its points into lane words of any width; every
width runs on one carrier, the lane walker of :mod:`repro.engine.lanes`
(in C where the host has a compiler, in Python otherwise).
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter, not_
from typing import Any, Mapping, Sequence

from ..circuit.netlist import Circuit
from ..core.campaign import Outcomes
from ..faults.models import StuckAtFault
from ..faults.universe import check_sites
from ..sim.fault_sim import PatternWindows, _pattern_windows, _sweep
from ..sim.logic import mask_of, simulate
from ..soft_error.seu import _golden_run, inject_seu
from . import lanes
from .core import Injection
from .lanes import DEFAULT_LANE_WIDTH

DETECTED = "detected"
UNDETECTED = "undetected"


class PpsfpBackend:
    """Gate-level stuck-at PPSFP over one or more packed pattern batches.

    Injection points are the faults; each fault is simulated against the
    pattern batches in order with fault dropping (first detecting batch
    wins).  ``prepare()`` concatenates the batches into pattern windows
    (:data:`repro.sim.fault_sim.WINDOW_BITS` patterns wide, one good
    simulation each); per window a fault costs one gate evaluation and
    a read of the window's observability memo, and a cone is walked once
    per fan-out-free region the faults touch, not once per fault (the
    memo holds one word per net and window, ``nets x windows x
    WINDOW_BITS / 8`` bytes at most, and goes with the windows).  Where
    the C kernel loads, a chunk is one call per window
    (:func:`repro.sim.fault_sim._sweep`), and ``run_batch`` returns one
    :class:`repro.core.campaign.Outcomes` block: outcome codes,
    ``describe()`` locations and the detection words as ``details``.

    The pattern batches pickle with the backend: they ride the campaign
    payload (one temp file, loaded once per process-pool worker) and the
    campaign service's job row inline, so a submitted job depends on
    nothing outside the database.  A fault that is not on a line of the
    circuit raises ``ValueError`` at construction (simulated, it would
    read as ``undetected``), as do a batch width that is not an ``int``
    of at least 1 and a ``state`` key that is not a flop of the circuit
    (ignored, a misspelt flop would simulate from its reset value).
    """

    name = "ppsfp"
    fault_model = "stuck-at"

    def __init__(
        self,
        circuit: Circuit,
        faults: Sequence[StuckAtFault],
        batches: Sequence[tuple[Mapping[str, int], int]],
        state: Mapping[str, int] | None = None,
        full_scan: bool = True,
        drop_detected: bool = True,
    ) -> None:
        self.circuit = circuit
        self.circuit_name = circuit.name
        self.workload = f"ppsfp[{len(batches)} batches]"
        self.faults = list(faults)
        check_sites(circuit, self.faults)  # in the parent, not a worker
        self.batches = list(batches)
        widths = [n for _, n in self.batches]
        if not all(isinstance(n, int) and n >= 1 for n in widths):
            raise ValueError(f"PPSFP batch widths must be ints >= 1, "
                             f"got {widths}")
        unknown = [q for q in state or () if q not in circuit.flops]
        if unknown:
            raise ValueError(f"PPSFP state keys {unknown} are not flops of "
                             f"{circuit.name}")
        self.state = state
        self.full_scan = full_scan
        self.drop_detected = drop_detected
        self._windows: PatternWindows | None = None
        self.n_patterns = sum(widths)

    def enumerate_points(self) -> Sequence[StuckAtFault]:
        return self.faults

    def prepare(self) -> None:
        if self._windows is not None:  # idempotent: re-run per worker
            return
        self._windows = _pattern_windows(self.circuit, self.batches,
                                         self.state, self.full_scan)

    def __getstate__(self) -> dict:
        """Prepared state (pattern windows and their observability
        memos) is dropped: process-pool workers rebuild it via their own
        ``prepare()``."""
        state = self.__dict__.copy()
        state["_windows"] = None
        return state

    def run_batch(self, points: Sequence[StuckAtFault]) -> Outcomes:
        """One block: the sweep's detection words (one C call per window
        where the kernel loaded) as ``details``, ``detected`` where a
        word is not zero."""
        words = _sweep(self.circuit, points, self._windows,
                       self.drop_detected)
        return Outcomes(points, list(map(StuckAtFault.describe, points)),
                        [0] * len(words), bytes(map(not_, words)),
                        (DETECTED, UNDETECTED), words)


class SeuBackend:
    """Sequential SEU flop flips over a stimulus workload.

    Points are ``(flop, cycle)`` pairs; outcomes are the classic
    masked / latent / failure split of :func:`repro.soft_error.seu
    .inject_seu` against a shared golden run.

    ``lane_width`` > 1 (the default) packs that many points into one
    sequential run via :mod:`repro.engine.lanes`: bit-lane *i* carries
    fault instance *i* and outcomes come back per lane by XOR against
    the golden trace — byte-identical to the per-point path, ~W× fewer
    circuit evaluations, and only while some lane is still undecided:
    every lane runs on its own clock from its own injection cycle, so a
    group costs as many steps as its slowest lane needs to fail or
    re-converge (a dozen, not the span of its injection cycles; see
    :mod:`repro.engine.lanes`).  ``lane_width=1`` keeps the per-point
    :func:`inject_seu` path for parity testing.  A ``targets`` entry
    that is not a flop of the circuit and an injection cycle outside the
    workload raise ``ValueError`` here, not in a worker.  Every host
    runs the width asked for, and outcomes are byte-identical at every
    width.  ``lane_backing`` is a retired-name shim: every width runs
    on the one packed-int carrier, so only ``None`` is accepted.

    ``skip_dead_flops=True`` opts into the engine's point-filter stage:
    a flop whose single-cycle fan-out cone reaches no primary output and
    no flop D input cannot change the observable trace or the next
    state, so every injection on it is provably ``masked`` — the same
    lossless skip-rule machinery :class:`repro.engine.workloads
    .SlicingBackend` uses, reused for dead state bits.  Verdicts are
    cached per flop on the backend, so repeated campaigns on the same
    instance never recompute a fan-out cone.
    """

    name = "seu"
    fault_model = "seu"

    def __init__(
        self,
        circuit: Circuit,
        stimuli: Sequence[Mapping[str, int]],
        targets: Sequence[str] | None = None,
        cycles: Sequence[int] | None = None,
        skip_dead_flops: bool = False,
        lane_width: int = DEFAULT_LANE_WIDTH,
        lane_backing: str | None = None,
    ) -> None:
        if not circuit.flops:
            raise ValueError(f"{circuit.name} has no flops to upset")
        self.circuit = circuit
        self.circuit_name = circuit.name
        self.stimuli = list(stimuli)
        self.workload = f"seu[{len(self.stimuli)} cycles]"
        self.targets = list(targets if targets is not None else circuit.flops)
        # rejected here, in the parent: in run_batch an unknown name is a
        # KeyError that retries and then quarantines the whole chunk,
        # its valid points included
        unknown = [q for q in self.targets if q not in circuit.flops]
        if unknown:
            raise ValueError(f"SEU targets {unknown} are not flops of "
                             f"{circuit.name}")
        self.cycles = list(cycles if cycles is not None
                           else range(len(self.stimuli)))
        # a flip that never happens would be counted as a masked upset
        lanes.check_cycles(self.cycles, len(self.stimuli))
        self.skip_dead_flops = skip_dead_flops
        self.use_filter = skip_dead_flops  # engine filter-stage gate
        lanes.check_lane_width(lane_width)
        self.lane_width = lane_width
        if lane_backing is not None:
            raise ValueError(f"lane_backing={lane_backing!r}: the carrier "
                             "was retired, every width runs on the one "
                             "packed-int carrier")
        self._golden: tuple | None = None
        self._lane_ctx: lanes.LaneContext | None = None
        self._dead_flops: dict[str, bool] = {}  # flop -> cone verdict cache

    def enumerate_points(self) -> Sequence[tuple[str, int]]:
        return [(flop, cyc) for flop in self.targets for cyc in self.cycles]

    def filter_points(self, points: Sequence[tuple[str, int]]
                      ) -> tuple[list, Outcomes]:
        """Resolve injections on dead flops as ``masked`` without
        simulating them (only when ``skip_dead_flops`` is set).  The
        census is one :class:`Outcomes` block: the skipped points, their
        flops and cycles, all ``masked``, each with the dead-flop rule
        in ``details``."""
        if not self.skip_dead_flops:
            return list(points), Outcomes.of(())
        from ..circuit.levelize import fanout_cone
        from .workloads import SKIP_DEAD_FLOP

        observables = set(self.circuit.outputs)
        d_nets = {flop.d for flop in self.circuit.flops.values()}
        dead = self._dead_flops  # structural verdicts survive campaigns
        for flop in set(map(itemgetter(0), points)) - dead.keys():
            cone = fanout_cone(self.circuit, [flop], through_flops=False)
            dead[flop] = not (cone & observables) and not (cone & d_nets)
        kept: list[tuple[str, int]] = []
        skipped: list[tuple[str, int]] = []
        keep, skip = kept.append, skipped.append
        for point in points:
            (skip if dead[point[0]] else keep)(point)
        n = len(skipped)
        return kept, Outcomes(skipped, list(map(itemgetter(0), skipped)),
                              list(map(itemgetter(1), skipped)), bytes(n),
                              ("masked",), [SKIP_DEAD_FLOP] * n)

    def prepare(self) -> None:
        # idempotent (re-run per worker process); one golden pass either
        # way: the per-point path keeps a trace, the packed path a
        # lane context
        if self.lane_width == 1:
            if self._golden is None:
                self._golden = _golden_run(self.circuit, self.stimuli)
        elif self._lane_ctx is None:
            self._lane_ctx = lanes.build_context(
                self.circuit, self.stimuli, self.lane_width)

    def __getstate__(self) -> dict:
        """The golden pass (trace or lane context) is dropped: workers
        re-run it in ``prepare``."""
        state = self.__dict__.copy()
        state["_golden"] = None
        state["_lane_ctx"] = None
        return state

    def run_batch(self, points: Sequence[tuple[str, int]]
                  ) -> Outcomes | list[Injection]:
        if self.lane_width > 1:
            return self._run_batch_packed(points)
        out: list[Injection] = []
        for point in points:
            flop, cyc = point
            outcome = inject_seu(self.circuit, self.stimuli, flop, cyc,
                                 self._golden)
            out.append(Injection(point, flop, cyc, outcome))
        return out

    def _run_batch_packed(self, points: Sequence[tuple[str, int]]
                          ) -> Outcomes:
        """Lane-packed path: up to ``lane_width`` points per sequential
        run (grouped by cycle), returned as one block in point order —
        the walker's outcome codes and the points' own flop and cycle
        columns, no per-point record."""
        cycles = list(map(itemgetter(1), points))
        codes = lanes.packed_codes(points, cycles, self.lane_width,
                                   partial(lanes.seu_outcomes, self._lane_ctx))
        return Outcomes(points, list(map(itemgetter(0), points)), cycles,
                        codes, lanes.OUTCOMES)


class SafetyBackend:
    """ISO 26262 classification of stuck-at faults under packed patterns.

    Points are the faults; outcomes are the ISO fault-class values
    (``safe`` / ``detected`` / ``residual`` / ``latent_detected``),
    computed by :func:`repro.safety.campaign.classify_injection_values`
    on mission vs detection output groups.  Output groups and fault
    sites that name nothing in the circuit raise ``ValueError`` at
    construction (classified, they would all come back ``safe``), as do
    an ``n_patterns`` that is not an ``int`` of at least 1 and a
    ``state`` key that is not a flop of the circuit (ignored, a misspelt
    flop would simulate from its reset value).
    """

    name = "safety"
    fault_model = "stuck-at"

    def __init__(
        self,
        circuit: Circuit,
        faults: Sequence[StuckAtFault],
        mission_outputs: Sequence[str],
        detection_outputs: Sequence[str],
        patterns: Mapping[str, int],
        n_patterns: int,
        state: Mapping[str, int] | None = None,
    ) -> None:
        self.circuit = circuit
        self.circuit_name = circuit.name
        self.workload = f"safety[{n_patterns} patterns]"
        self.faults = list(faults)
        self.mission_outputs = list(mission_outputs)
        self.detection_outputs = list(detection_outputs)
        # in the parent: a misspelt output group reads as constant 0 and
        # would classify every fault ``safe``
        check_sites(circuit, self.faults,
                    self.mission_outputs + self.detection_outputs)
        # 0 patterns would classify every fault ``safe``, a negative
        # count fails in a worker's prepare()
        if not isinstance(n_patterns, int) or n_patterns < 1:
            raise ValueError(f"safety n_patterns must be an int >= 1, "
                             f"got {n_patterns!r}")
        unknown = [q for q in state or () if q not in circuit.flops]
        if unknown:
            raise ValueError(f"safety state keys {unknown} are not flops of "
                             f"{circuit.name}")
        self.patterns = patterns
        self.n_patterns = n_patterns
        self.state = state
        self._good: dict[str, int] = {}
        self._mask = mask_of(n_patterns)

    def enumerate_points(self) -> Sequence[StuckAtFault]:
        return self.faults

    def prepare(self) -> None:
        if not self._good:  # idempotent: re-run per worker process
            self._good = simulate(self.circuit, self.patterns,
                                  self.n_patterns, self.state)

    def __getstate__(self) -> dict:
        """Good-machine values are dropped: workers re-simulate them."""
        state = self.__dict__.copy()
        state["_good"] = {}
        return state

    def run_batch(self, points: Sequence[StuckAtFault]) -> list[Injection]:
        from ..safety.campaign import classify_injection_values
        from ..sim.fault_sim import faulty_values

        out: list[Injection] = []
        for fault in points:
            bad = faulty_values(self.circuit, fault, self._good, self._mask)
            cls = classify_injection_values(
                self._good, bad, self._mask,
                self.mission_outputs, self.detection_outputs)
            out.append(Injection(fault, fault.describe(), 0, cls.value))
        return out


def ppsfp_result(report, n_patterns: int) -> Any:
    """Rebuild a :class:`repro.sim.fault_sim.FaultSimResult` from a
    PPSFP engine report (detection masks ride in ``detail``, which a
    checkpoint does not store: a resumed or service-assembled report
    has none on its replayed chunks, and raises ``ValueError`` here)."""
    from ..sim.fault_sim import FaultSimResult

    result = FaultSimResult(n_patterns=n_patterns)
    detected, undetected = result.detected, result.undetected
    view = report.injections
    for fault, outcome, word in zip(view.column("points"),
                                    view.column("outcomes"),
                                    view.column("details")):
        if outcome != DETECTED:
            undetected.append(fault)
        elif word is None:
            raise ValueError(
                f"detected fault {fault.describe()} carries no detection "
                "mask: the report was resumed or assembled by service "
                "replay, which does not restore Injection.detail")
        else:
            detected[fault] = word
    return result
