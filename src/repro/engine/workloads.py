"""Engine backends for the SoC, RSN, security, GPGPU and slicing workloads.

These complete the port started in :mod:`repro.engine.backends`: every
fault-effect campaign in the toolkit — dependability *and* security,
gate level to instruction level — now runs through
:func:`repro.engine.core.run_campaign`, so all of them inherit chunked
parallel execution, seeded sampling, Wilson early stop and streaming
CampaignDb persistence.  Kept separate from ``backends`` so process-pool
workers for the three circuit workloads (PPSFP, SEU, safety) do not pay
these modules' import cost; the subsystems each backend drives (AutoSoC,
RSN, laser, SCA, GPGPU) are imported inside its methods, so a worker of
one family loads none of the others.

All backends here follow the shared contract: ``run_batch`` is pure
with respect to prepared state, ``prepare()`` is idempotent, prepared
state is dropped on pickling (workers rebuild it), and per-point
randomness is derived from ``(seed, point index)`` so results are
byte-identical at any worker count and executor choice.

:class:`SlicingBackend` additionally exercises the engine's point-filter
stage: its no-activation / no-path skip rules run once against the
golden pass and resolve doomed injections as first-class ``masked``
outcomes without simulating them; the injections it keeps share packed
runs of the one lane walker (:mod:`repro.engine.lanes`) at any lane
width, as the SEU backend's do.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, Sequence

from ..circuit import levelize
from ..circuit.netlist import Circuit
from ..faults.models import StuckAtFault
from ..faults.universe import check_sites
from ..sim import fault_sim
from ..sim.logic import mask_of, pack_patterns
from . import lanes
from .core import Injection
from .executors import chunk_seed
from .lanes import DEFAULT_LANE_WIDTH

DETECTED = "detected"
UNDETECTED = "undetected"

#: Skip-rule tags carried in ``Injection.detail`` by filter stages.
SKIP_NO_ACTIVATION = "no_activation"
SKIP_NO_PATH = "no_path"
SKIP_DEAD_FLOP = "dead_flop"


def point_seed(seed: int, index: int) -> int:
    """Per-point RNG seed: chunk-size independent, worker independent."""
    return chunk_seed(seed, index)


# ----------------------------------------------------------------------
# AutoSoC CPU / RAM transients
# ----------------------------------------------------------------------
class SocBackend:
    """SoC-level CPU/RAM transients on AutoSoC runs.

    Points are :class:`repro.autosoc.fi.SocInjection` descriptors; each
    batch boots a fresh SoC per injection (runs are independent, so
    batches parallelise trivially).  ``detail`` carries the lockstep
    detection latency when one was observed.  An injection whose
    ``kind`` is not ``"cpu"`` / ``"ram"``, whose CPU ``unit`` is not in
    :data:`repro.autosoc.cpu.UNITS`, whose ``bit`` is outside the 32-bit
    word, whose ``ram_offset`` is outside RAM or whose ``cycle`` is
    negative raises ``ValueError`` at construction (run, it would be
    another kind of flip, a wrapped bit or a worker-side error).
    """

    name = "autosoc"
    fault_model = "transient"

    def __init__(self, app: Any, config: Any,
                 injections: Sequence[Any]) -> None:
        from ..autosoc.cpu import UNITS
        from ..autosoc.soc import RAM_SIZE

        self.injections = list(injections)
        for inj in self.injections:
            if inj.kind not in ("cpu", "ram"):
                problem = f"kind {inj.kind!r} is not 'cpu' or 'ram'"
            elif inj.kind == "cpu" and inj.unit not in UNITS:
                problem = f"unit {inj.unit!r} is not one of {UNITS}"
            elif not 0 <= inj.bit < 32:
                problem = f"bit {inj.bit} is outside [0, 32)"
            elif inj.kind == "ram" and not 0 <= inj.ram_offset < RAM_SIZE:
                problem = (f"ram_offset {inj.ram_offset} is outside "
                           f"[0, {RAM_SIZE})")
            elif inj.cycle < 0:
                problem = f"cycle {inj.cycle} is negative"
            else:
                continue
            raise ValueError(f"SoC injection {inj}: {problem}")
        self.app = app
        self.config = config
        self.circuit_name = f"autosoc-{config.value}"
        self.workload = app.name

    def enumerate_points(self) -> Sequence[Any]:
        return self.injections

    def prepare(self) -> None:  # golden runs live inside run_injection
        return None

    def run_batch(self, points: Sequence[Any]) -> list[Injection]:
        from ..autosoc.fi import run_injection

        out: list[Injection] = []
        for injection in points:
            outcome, latency = run_injection(self.app, self.config, injection)
            if injection.kind == "cpu":
                location = f"cpu:{injection.unit}.bit{injection.bit}"
            else:
                location = f"ram:{injection.ram_offset}.bit{injection.bit}"
            out.append(Injection(injection, location, injection.cycle,
                                 outcome, latency))
        return out


# ----------------------------------------------------------------------
# RSN test / diagnosis
# ----------------------------------------------------------------------
class RsnDiagnosisBackend:
    """Per-fault signature campaigns on reconfigurable scan networks.

    Points are RSN faults (``SibStuck`` / ``MuxSelStuck`` /
    ``CellStuck``); each is injected into a fresh network from
    ``factory`` and driven through the golden-planned test, and the TDO
    stream becomes its signature.  Outcome is ``detected`` when the
    signature differs from the golden one — the quantity both
    ``coverage`` and ``build_signature_table`` are built from; the
    signature itself rides in ``detail`` for diagnosis.

    ``factory`` must be picklable for the process executor (a
    module-level function or ``functools.partial`` of one — not a
    lambda; unpicklable factories fall back to serial with a logged
    reason).  A fault naming no node of its kind in ``factory()``, with
    a mux branch or cell bit out of range or a stuck value not 0 / 1,
    or of no RSN fault type raises ``ValueError`` at construction (run,
    it would match nothing and read as ``undetected``, or wrap).
    """

    name = "rsn-diagnosis"
    fault_model = "rsn-structural"

    def __init__(self, factory: Callable[[], Any], faults: Sequence[Any],
                 test: Any) -> None:
        from ..rsn.network import (CellStuck, Mux, MuxSelStuck, Reg, Sib,
                                   SibStuck)

        network = factory()
        self.faults = list(faults)
        sites = {SibStuck: (Sib,), MuxSelStuck: (Mux,), CellStuck: (Reg, Sib)}
        for fault in self.faults:
            node = network.registry.get(getattr(fault, "name", None))
            kinds = sites.get(type(fault))
            length = getattr(node, "length", 1)  # a SIB is one cell
            if kinds is None:
                problem = f"is a {type(fault).__name__}, not an RSN fault"
            elif not isinstance(node, kinds):
                problem = "names no " + " or ".join(k.__name__ for k in kinds)
            elif (isinstance(fault, MuxSelStuck)
                    and not 0 <= fault.branch < len(node.branches)):
                problem = (f"branch {fault.branch} is outside "
                           f"range({len(node.branches)})")
            elif isinstance(fault, CellStuck) and not 0 <= fault.bit < length:
                problem = f"bit {fault.bit} is outside [0, {length})"
            elif isinstance(fault, CellStuck) and fault.value not in (0, 1):
                problem = f"value {fault.value!r} is not 0 or 1"
            else:
                continue
            raise ValueError(f"RSN fault {fault!r} on {network.name}: "
                             f"{problem}")
        self.factory = factory
        self.test = test
        self.circuit_name = network.name
        self.workload = f"rsn-test[{test.name}]"
        self._golden: tuple[int, ...] | None = None

    def enumerate_points(self) -> Sequence[Any]:
        return self.faults

    def prepare(self) -> None:
        if self._golden is None:  # idempotent: re-run per worker process
            self._golden = self._signature(None)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_golden"] = None  # workers re-run the golden test
        return state

    def _signature(self, fault: Any | None) -> tuple[int, ...]:
        from ..rsn.test_gen import apply_test

        network = self.factory()
        network.reset()
        if fault is not None:
            network.inject(fault)
        return tuple(apply_test(network, self.test))

    @property
    def golden_signature(self) -> tuple[int, ...]:
        self.prepare()
        return self._golden

    def run_batch(self, points: Sequence[Any]) -> list[Injection]:
        out: list[Injection] = []
        for fault in points:
            signature = self._signature(fault)
            outcome = (DETECTED if signature != self._golden
                       else UNDETECTED)
            out.append(Injection(fault, fault.describe(), 0, outcome,
                                 signature))
        return out


# ----------------------------------------------------------------------
# laser fault injection
# ----------------------------------------------------------------------
class LaserFiBackend:
    """Laser-shot campaigns on a register floorplan.

    Points are ``(index, LaserShot)`` pairs; each shot is evaluated with
    its own jitter seed derived from ``(seed, index)``, so the same
    campaign reproduces shot for shot on any executor.  With a
    ``target`` cell the outcomes are the repeatability split of a
    targeted attack (``exact_hit`` / ``collateral`` / ``miss``);
    without one they classify the upset multiplicity (``single_bit`` /
    ``multi_bit`` / ``no_flip``) — the shot-grid sensitivity-map view.
    The flipped cell list rides in ``detail``.
    """

    name = "laser-fi"
    fault_model = "laser"

    def __init__(self, floorplan: Any, shots: Sequence[Any],
                 target: str | None = None, seed: int = 0,
                 jitter_um: float = 0.15) -> None:
        from ..security.laser import UPSET_THRESHOLD

        # each would otherwise surface per shot: an unknown target reads
        # every shot as ``miss``, an unknown node raises inside a worker
        if floorplan.technology not in UPSET_THRESHOLD:
            raise ValueError(f"laser floorplan technology "
                             f"{floorplan.technology!r} has no upset "
                             f"threshold (known: {sorted(UPSET_THRESHOLD)})")
        if target is not None and target not in {
                cell.name for cell in floorplan.cells}:
            raise ValueError(f"laser target {target!r} names no floorplan "
                             f"cell")
        if not (math.isfinite(jitter_um) and jitter_um >= 0):
            raise ValueError(f"laser jitter_um must be finite and >= 0, "
                             f"not {jitter_um!r}")
        self.floorplan = floorplan
        self.shots = list(shots)
        self.target = target
        self.seed = seed
        self.jitter_um = jitter_um
        self.circuit_name = (f"floorplan-{floorplan.technology}"
                             f"[{len(floorplan.cells)} cells]")
        self.workload = (f"laser[{len(self.shots)} shots"
                         + (f", target {target}]" if target else "]"))

    def enumerate_points(self) -> Sequence[tuple[int, Any]]:
        return list(enumerate(self.shots))

    def prepare(self) -> None:  # shots are self-contained
        return None

    def run_batch(self, points: Sequence[tuple[int, Any]]) -> list[Injection]:
        from ..security.laser import fire  # lazy: keeps worker imports lean

        out: list[Injection] = []
        for index, shot in points:
            outcome_obj = fire(self.floorplan, shot,
                               jitter_um=self.jitter_um,
                               seed=self.seed * 100_003 + index)
            flipped = outcome_obj.flipped
            if self.target is not None:
                if not flipped or self.target not in flipped:
                    outcome = "miss"
                elif outcome_obj.single_bit:
                    outcome = "exact_hit"
                else:
                    outcome = "collateral"
            else:
                if not flipped:
                    outcome = "no_flip"
                else:
                    outcome = "single_bit" if outcome_obj.single_bit \
                        else "multi_bit"
            out.append(Injection(
                (index, shot), f"({shot.x_um:.2f},{shot.y_um:.2f})um",
                index, outcome, list(flipped)))
        return out


# ----------------------------------------------------------------------
# side-channel trace collection
# ----------------------------------------------------------------------
class ScaTraceBackend:
    """Power-trace collection campaigns over an instrumented cipher.

    Points are ``(index, group, plaintext)`` triples; each encryption
    runs on an independent per-trace cipher obtained via the optional
    ``cipher.fork(seed)`` protocol (masked implementations draw a fresh
    mask stream per trace; stateless ciphers may return ``self``), so
    batches are pure and trace values are identical on every executor.
    ``group`` labels the TVLA population (``fixed`` / ``random``) or
    plain ``collected`` traces; the ``(cycles, power)`` observables ride
    in ``detail`` for CPA/TVLA to consume.  A plaintext that is not one
    16-byte block raises ``ValueError`` at construction (run, a longer
    one is silently truncated, a shorter one raises in a worker).
    """

    name = "sca-trace"
    fault_model = "side-channel"

    def __init__(self, cipher: Any, points: Sequence[tuple[int, str, bytes]],
                 seed: int = 0) -> None:
        self.points = list(points)
        for index, _group, plaintext in self.points:
            if len(plaintext) != 16:
                raise ValueError(f"SCA trace {index}: plaintext of "
                                 f"{len(plaintext)} bytes, not 16")
        self.cipher = cipher
        self.seed = seed
        self.circuit_name = type(cipher).__name__
        self.workload = f"sca[{len(self.points)} traces]"

    def enumerate_points(self) -> Sequence[tuple[int, str, bytes]]:
        return self.points

    def prepare(self) -> None:  # ciphers carry their own key schedule
        return None

    def run_batch(self,
                  points: Sequence[tuple[int, str, bytes]]) -> list[Injection]:
        out: list[Injection] = []
        for index, group, plaintext in points:
            fork = getattr(self.cipher, "fork", None)
            cipher = (fork(point_seed(self.seed, index))
                      if fork is not None else self.cipher)
            _ct, trace = cipher.encrypt(plaintext)
            out.append(Injection(
                (index, group, plaintext), f"trace{index}", index, group,
                (trace.cycles, list(trace.power))))
        return out


# ----------------------------------------------------------------------
# GPGPU SEU sweeps
# ----------------------------------------------------------------------
class GpgpuSeuBackend:
    """Pipeline-register SEUs on a SIMT kernel ([25]/[40] campaigns).

    Points are ``(index, PipeRegFault)`` pairs; each run boots a fresh
    :class:`repro.gpgpu.simt.SimtCore`, injects one transient and
    compares the output region against the golden run (``masked`` /
    ``sdc``).  The golden outputs are rebuilt per worker in
    ``prepare()`` and never shipped.
    """

    name = "gpgpu-seu"
    fault_model = "seu"

    def __init__(self, kernel: Sequence[Any], inputs: Sequence[int],
                 faults: Sequence[Any], label: str = "kernel",
                 n_warps: int = 2, warp_size: int = 8,
                 lane_width: int = DEFAULT_LANE_WIDTH) -> None:
        self.kernel = list(kernel)
        self.inputs = list(inputs)
        self.faults = list(faults)
        self.n_warps = n_warps
        self.warp_size = warp_size
        # rejected here, in the parent: an out-of-range transient never
        # fires and would be counted as a masked upset
        bad = [f for f in self.faults
               if not (0 <= f.warp < n_warps and 0 <= f.lane < warp_size
                       and 0 <= f.bit < 32 and f.at_issue >= 0)]
        if bad:
            raise ValueError(f"GPGPU transients {bad} lie outside the "
                             f"{n_warps}x{warp_size} core's 32-bit "
                             f"pipeline registers")
        lanes.check_lane_width(lane_width)
        self.lane_width = lane_width
        self.circuit_name = f"simt-{label}"
        self.workload = f"gpgpu-seu[{len(self.faults)} transients]"
        self._golden: list[int] | None = None
        self._golden_issues: int = 0

    def enumerate_points(self) -> Sequence[tuple[int, Any]]:
        return list(enumerate(self.faults))

    def prepare(self) -> None:
        if self._golden is None:  # idempotent: re-run per worker process
            self._golden, self._golden_issues = self._run([])

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_golden"] = None  # workers re-run the golden kernel
        state["_golden_issues"] = 0
        return state

    def _run(self, faults: list[Any]) -> tuple[list[int], int]:
        from ..gpgpu.apps import _run

        return _run(self.kernel, self.inputs, faults,
                    n_warps=self.n_warps, warp_size=self.warp_size)

    @property
    def golden_issues(self) -> int:
        self.prepare()
        return self._golden_issues

    def run_batch(self, points: Sequence[tuple[int, Any]]) -> list[Injection]:
        if self.lane_width > 1:
            outcomes = self._forked_outcomes(points)
        else:
            outcomes = []
            for _index, fault in points:
                observed, _ = self._run([fault])
                outcomes.append("masked" if observed == self._golden
                                else "sdc")
        return [Injection(
            (index, fault), f"w{fault.warp}.l{fault.lane}.b{fault.bit}",
            fault.at_issue, outcome)
            for (index, fault), outcome in zip(points, outcomes)]

    def _boot(self):
        from ..gpgpu.simt import SimtCore

        core = SimtCore(self.kernel, n_warps=self.n_warps,
                        warp_size=self.warp_size)
        for i, value in enumerate(self.inputs):
            core.memory[i] = value
        return core

    def _forked_outcomes(self, points: Sequence[tuple[int, Any]]
                         ) -> list[str]:
        """The SIMT flavour of lane packing: the fault-free prefix is
        executed once per batch.  Points are visited in ``at_issue``
        order while a single golden core advances; at each injection
        slot the core is forked, the transient injected, and only the
        *remainder* of the kernel replayed.  A :class:`PipeRegFault`
        cannot act before its slot, so the fork is bit-exact with a
        from-scratch faulty run (the ``rr`` continuation keeps the warp
        schedule aligned)."""
        from ..gpgpu.simt import MAX_ISSUES

        order = sorted(range(len(points)), key=lambda i: points[i][1].at_issue)
        outcomes: list[str | None] = [None] * len(points)
        core = self._boot()
        rr = 0
        issued = 0
        alive = True
        budget = MAX_ISSUES  # the per-point path's implicit run cap
        for i in order:
            _index, fault = points[i]
            target = min(fault.at_issue, budget)
            while alive and issued < target:
                stepped = core.run(max_issues=target - issued, rr=rr)
                issued += stepped
                if stepped:
                    rr = (core.schedule_trace[-1] + 1) % len(core.warps)
                if issued < target:
                    alive = False  # kernel finished before the slot
            if not alive and issued <= fault.at_issue:
                outcomes[i] = "masked"  # fault slot never issues
                continue
            clone = core.fork()
            clone.inject(fault)
            clone.run(max_issues=budget - issued, rr=rr)
            observed = clone.memory[128:128 + clone.n_threads]
            outcomes[i] = "masked" if observed == self._golden else "sdc"
        return outcomes  # type: ignore[return-value]


# ----------------------------------------------------------------------
# dynamic-slicing FI campaigns (the first point-filter user)
# ----------------------------------------------------------------------
class SlicingBackend:
    """Gate-level (fault, cycle) campaigns with dynamic-slicing skips.

    Points are ``(fault, cycle)`` pairs classified by
    :func:`repro.safety.slicing._simulate_injection` against the golden
    trace.  With ``use_filter=True`` the two slicing skip rules run in
    the engine's point-filter stage: *no structural path* (the fault
    site is outside the fan-in cone of the observables — it can never
    fail) and *no activation* (the golden value at the fault site
    already equals the forced value at that cycle — machines identical,
    masked).  Both answer ``masked`` without simulating, so a filtered
    campaign skips most of the simulation cost and classifies as the
    unfiltered one does — with one known gap, pinned by a strict xfail
    in ``tests/test_slicing_kernel.py``: a no-path site that still
    reaches a flop can leave dead state perturbed at the end of the
    workload, which the reference calls ``latent``.

    ``lane_width`` > 1 is the packed path, and it packs twice.  Along
    *time*: ``prepare()`` lays the golden net values of consecutive
    cycles side by side, one word per net per window of at most
    :data:`repro.sim.fault_sim.WINDOW_BITS` cycles (bit *t* = cycle *t*
    of the window), so one ``faulty_values`` walk over a window is the
    injection cycle of a fault at every cycle of it — a chunk evaluates
    each distinct fault once per window holding one of its cycles, and
    every point's ``(failed_now, perturbed flops)`` is a bit read (the
    filter reads its no-activation bit off the same words).  Along
    *lanes*: the state perturbations that survive the injection cycle
    share one multi-cycle propagation per ``lane_width`` points
    (:func:`repro.engine.lanes.transient_outcomes`).
    ``lane_width=1`` runs ``_simulate_injection`` point by point: the
    reference both packings are tested against.  An injection cycle
    outside the workload and a fault that is not on a line of the
    circuit raise ``ValueError`` at construction.
    """

    name = "slicing"
    fault_model = "stuck-at"

    def __init__(self, circuit: Circuit, faults: Sequence[StuckAtFault],
                 stimuli: Sequence[Mapping[str, int]],
                 cycles: Sequence[int] | None = None,
                 use_filter: bool = True,
                 lane_width: int = DEFAULT_LANE_WIDTH) -> None:
        self.circuit = circuit
        self.circuit_name = circuit.name
        self.faults = list(faults)
        check_sites(circuit, self.faults)  # in the parent, not a worker
        self.stimuli = list(stimuli)
        self.cycles = list(cycles if cycles is not None
                           else range(len(self.stimuli)))
        lanes.check_cycles(self.cycles, len(self.stimuli))
        self.use_filter = use_filter
        lanes.check_lane_width(lane_width)
        self.lane_width = lane_width
        self.workload = (f"slicing[{len(self.stimuli)} cycles, "
                         f"{'sliced' if use_filter else 'naive'}]")
        self._golden: tuple[list, list] | None = None
        self._windows: tuple[int, list[tuple[dict[str, int], int]]] | None \
            = None
        self._lane_ctx: lanes.LaneContext | None = None

    def enumerate_points(self) -> Sequence[tuple[StuckAtFault, int]]:
        return [(fault, cyc) for fault in self.faults for cyc in self.cycles]

    def prepare(self) -> None:
        if self._golden is None:  # idempotent: re-run per worker process
            from ..safety.slicing import _golden_states

            self._golden = _golden_states(self.circuit, self.stimuli)
            # cycle-packed golden words: ``(span, [(good, mask), ...])``,
            # cycle c is bit ``c % span`` of window ``c // span``
            values = self._golden[1]
            span = fault_sim.WINDOW_BITS
            spans = [values[base:base + span]
                     for base in range(0, len(values), span)]
            self._windows = (span, [
                (pack_patterns(cycles), mask_of(len(cycles)))
                for cycles in spans])
        if self.lane_width > 1 and self._lane_ctx is None:
            # the lane context replicates the golden pass already held in
            # ``_golden`` — no second golden simulation
            self._lane_ctx = lanes.build_context(
                self.circuit, self.stimuli, self.lane_width,
                golden=self._golden)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_golden"] = None  # workers re-run the golden pass
        state["_windows"] = None
        state["_lane_ctx"] = None
        return state

    def filter_points(self, points: Sequence[tuple[StuckAtFault, int]]
                      ) -> tuple[list, list[Injection]]:
        """The slicing skip rules, engine-side (runs after prepare()).

        One backward sweep from the observables (through flops) settles
        *no path* for every net at once; *no activation* at cycle ``c``
        is bit ``c`` of ``golden word ^ forced word`` being clear.  Per
        distinct fault the site is looked up, XORed and described once.
        """
        if not self.use_filter:
            return list(points), []
        span, windows = self._windows
        observable = levelize.fanin_cone(
            self.circuit, self.circuit.outputs, through_flops=True)
        #: fault -> (location, per-window activation words | None: no path)
        sites: dict[StuckAtFault, tuple[str, list[int] | None]] = {}
        kept: list[tuple[StuckAtFault, int]] = []
        skipped: list[Injection] = []
        last = None
        for point in points:
            fault, cyc = point
            if fault is not last:
                # hashing a fault costs what describing it did, so a
                # fault-major run of points looks its site up once
                last = fault
                site = sites.get(fault)
                if site is None:
                    net = fault.line.net
                    site = sites[fault] = (fault.describe(), [
                        good.get(net, 0) ^ (mask if fault.value else 0)
                        for good, mask in windows]
                        if net in observable else None)
                location, active = site
            if active is None:
                skipped.append(Injection(point, location, cyc, "masked",
                                         SKIP_NO_PATH))
            elif not active[cyc // span] >> (cyc % span) & 1:
                skipped.append(Injection(point, location, cyc, "masked",
                                         SKIP_NO_ACTIVATION))
            else:
                kept.append(point)
        return kept, skipped

    def run_batch(self, points: Sequence[tuple[StuckAtFault, int]]
                  ) -> list[Injection]:
        if self.lane_width > 1:
            return self._run_batch_packed(points)
        from ..safety.slicing import _simulate_injection

        states, values = self._golden
        out: list[Injection] = []
        for fault, cyc in points:
            cls = _simulate_injection(self.circuit, fault, cyc, self.stimuli,
                                      values, states)
            out.append(Injection((fault, cyc), fault.describe(), cyc, cls))
        return out

    def _inject_window(self, fault: StuckAtFault, good: Mapping[str, int],
                       mask: int) -> tuple[int, dict[str, int]]:
        """The injection cycle of one fault at every cycle of a window.

        Returns ``(failed, deltas)``: the cycles (bits) in which a
        primary output differs from golden in the injection cycle, and
        per flop whose captured value changed in some cycle the word of
        those cycles — bit for bit the first loop iteration of
        :func:`repro.safety.slicing._simulate_injection` (including the
        flop-branch ``__flopD__`` capture rule), for all cycles of the
        window in one walk of the fault's cone.  A window in which the
        site's golden word already is the forced word never activates
        the fault and is not walked.
        """
        line = fault.line
        if good.get(line.net, 0) == (mask if fault.value else 0):
            return 0, {}
        vals = fault_sim.faulty_values(self.circuit, fault, good, mask)
        failed = 0
        for po in self.circuit.outputs:
            failed |= vals.get(po, 0) ^ good.get(po, 0)
        pin = None if line.is_stem else line.sink  # branch into a flop D?
        deltas: dict[str, int] = {}
        for q, flop in self.circuit.flops.items():
            d = flop.d
            captured = (vals.get(f"__flopD__{q}", vals[d]) if q == pin
                        else vals[d])
            word = captured ^ good[d]
            if word:
                deltas[q] = word
        return failed, deltas

    def _run_batch_packed(self, points: Sequence[tuple[StuckAtFault, int]]
                          ) -> list[Injection]:
        """Packed path: one :meth:`_inject_window` per distinct (fault,
        window) of the chunk — the memo lives for this call only — then
        per point a bit read, and the multi-cycle propagation of the
        surviving state perturbations shared across up to ``lane_width``
        lanes."""
        span, windows = self._windows
        walked: dict[tuple[StuckAtFault, int],
                     tuple[int, dict[str, int]]] = {}

        def inject(fault: StuckAtFault, cyc: int) -> tuple[bool, list[str]]:
            index, bit = divmod(cyc, span)
            words = walked.get((fault, index))
            if words is None:
                words = walked[fault, index] = self._inject_window(
                    fault, *windows[index])
            failed, deltas = words
            if failed >> bit & 1:
                return True, []
            return False, [q for q, word in deltas.items() if word >> bit & 1]

        outcomes = lanes.packed_dispatch(
            points, self.lane_width, lambda p: p[1],
            lambda group: lanes.transient_outcomes(
                self._lane_ctx, group, inject))
        out: list[Injection] = []
        last = location = None
        for point, outcome in zip(points, outcomes):
            fault = point[0]
            if fault is not last:  # a fault-major run is described once
                last, location = fault, fault.describe()
            out.append(Injection(point, location, point[1], outcome))
        return out


# ----------------------------------------------------------------------
# round batching: several campaigns behind one engine run
# ----------------------------------------------------------------------
class CompositeBackend:
    """Several independent backends fused into one campaign.

    Multi-round facades (``gpgpu.encoding_style_study`` comparing two
    kernel encodings, ``rsn.diagnostic_test`` evaluating a window of
    candidate tests) used to run one engine campaign per round, paying
    campaign setup — and, on the process executor, backend shipping —
    once per round.  A composite fuses the rounds: points are
    ``(tag, sub_point)`` pairs, ``run_batch`` routes each chunk slice to
    its part (so per-part lane packing still applies within a chunk),
    and callers recover per-round results by filtering injections on the
    tag (``Injection.location`` is prefixed with it for DB readability).

    Parts must follow the usual contract (pure ``run_batch``, idempotent
    ``prepare``, prepared state dropped on pickling); the composite then
    inherits picklability and process-executor support for free.
    """

    def __init__(self, parts: Sequence[tuple[str, Any]]) -> None:
        if not parts:
            raise ValueError("CompositeBackend needs at least one part")
        self.parts = list(parts)
        self._by_tag = dict(self.parts)
        if len(self._by_tag) != len(self.parts):
            raise ValueError("CompositeBackend tags must be unique")
        first = self.parts[0][1]
        self.name = f"composite[{first.name} x{len(self.parts)}]"
        self.circuit_name = first.circuit_name
        self.fault_model = first.fault_model
        self.workload = f"{len(self.parts)} rounds batched"

    @property
    def lane_width(self) -> int:
        return max(int(getattr(b, "lane_width", 1) or 1)
                   for _, b in self.parts)

    def part(self, tag: str) -> Any:
        return self._by_tag[tag]

    def enumerate_points(self) -> Sequence[tuple[str, Any]]:
        return [(tag, point) for tag, backend in self.parts
                for point in backend.enumerate_points()]

    def prepare(self) -> None:
        for _, backend in self.parts:
            backend.prepare()

    def run_batch(self, points: Sequence[tuple[str, Any]]) -> list[Injection]:
        out: list[Injection | None] = [None] * len(points)
        groups: dict[str, list[tuple[int, Any]]] = {}
        for pos, (tag, point) in enumerate(points):
            groups.setdefault(tag, []).append((pos, point))
        for tag, items in groups.items():
            batch = self._by_tag[tag].run_batch([p for _, p in items])
            for (pos, _), inj in zip(items, batch):
                out[pos] = inj._replace(point=(tag, inj.point),
                                        location=f"{tag}:{inj.location}")
        return out  # type: ignore[return-value]
