"""Dynamic-slicing acceleration of fault-injection campaigns (III.D, [49][51]).

A gate-level FI campaign injects (fault, cycle) pairs and simulates the
remaining testbench for each.  Most injections are wasted: either the
fault site already holds the forced value at the injection cycle
(no activation), or its fan-out cone cannot reach an observable before
the testbench ends.  Dynamic slicing computes both conditions from the
*golden* simulation alone — one cheap pass — and skips the doomed
injections.  [51] reports campaign-time reductions of this flavour; the
acceleration must be *lossless* (identical classifications), which
``verify_equivalence`` checks and the tests enforce.

The skip rules are the engine's **point-filter stage**
(:class:`repro.engine.SlicingBackend.filter_points`): both campaign
facades delegate to :func:`repro.engine.core.run_campaign`, skipped
injections are first-class engine outcomes, and every counter on
:class:`CampaignOutcome` derives from the engine's own accounting — the
skip fraction can no longer drift from the classification table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..circuit.netlist import Circuit
from ..faults.models import StuckAtFault
from ..sim.fault_sim import faulty_values
from ..sim.logic import simulate


@dataclass
class CampaignOutcome:
    """Classification of every (fault, cycle) injection plus cost metrics.

    ``simulated`` and the per-rule skip counters are populated from the
    engine report's executed/filtered split (one source of truth), so
    ``total`` always equals ``len(classifications)``.
    """

    classifications: dict[tuple[StuckAtFault, int], str] = field(default_factory=dict)
    simulated: int = 0
    skipped_no_activation: int = 0
    skipped_no_path: int = 0

    @property
    def total(self) -> int:
        return (self.simulated + self.skipped_no_activation
                + self.skipped_no_path)

    @property
    def skip_fraction(self) -> float:
        return 1 - self.simulated / self.total if self.total else 0.0

    def speedup_estimate(self, per_sim_cost: float = 1.0,
                         per_slice_cost: float = 0.02) -> float:
        """Campaign-cost ratio naive/sliced under a simple cost model."""
        naive = self.total * per_sim_cost
        sliced = self.simulated * per_sim_cost + self.total * per_slice_cost
        return naive / sliced if sliced else 1.0

    @classmethod
    def from_report(cls, report) -> "CampaignOutcome":
        """Build the outcome from an engine report: classifications from
        executed + filtered injections, counters from the engine's
        filter accounting."""
        from ..engine.workloads import SKIP_NO_ACTIVATION, SKIP_NO_PATH

        outcome = cls(simulated=report.executed)
        for inj in report.injections:
            outcome.classifications[inj.point] = inj.outcome
        for inj in report.skipped:
            outcome.classifications[inj.point] = inj.outcome
            if inj.detail == SKIP_NO_PATH:
                outcome.skipped_no_path += 1
            elif inj.detail == SKIP_NO_ACTIVATION:
                outcome.skipped_no_activation += 1
            else:  # a rule this result type cannot attribute
                raise ValueError(f"unknown skip rule {inj.detail!r}")
        assert outcome.total == report.total == len(outcome.classifications)
        return outcome


def _golden_states(circuit: Circuit, stimuli: Sequence[Mapping[str, int]]):
    """State and full net values per cycle of the fault-free run."""
    state = {q: (1 if f.init else 0) for q, f in circuit.flops.items()}
    states, values = [], []
    for stim in stimuli:
        vals = simulate(circuit, stim, 1, state)
        states.append(dict(state))
        values.append(vals)
        state = {q: vals[f.d] for q, f in circuit.flops.items()}
    return states, values


def _simulate_injection(
    circuit: Circuit,
    fault: StuckAtFault,
    cycle: int,
    stimuli: Sequence[Mapping[str, int]],
    golden_values: list[dict[str, int]],
    golden_states: list[dict[str, int]],
    persistent: bool = False,
) -> str:
    """Simulate from the injection cycle on; classify failure/latent/masked.

    ``persistent`` False models a transient stuck condition lasting one
    cycle (an SET-like event); True keeps the line forced to the end.
    """
    state = dict(golden_states[cycle])
    for cyc in range(cycle, len(stimuli)):
        # the injection cycle enters the golden state, so its good
        # machine is the golden pass's; later cycles enter a state that
        # differs from golden (equal would have returned "masked")
        good_vals = (golden_values[cyc] if cyc == cycle
                     else simulate(circuit, stimuli[cyc], 1, state))
        if cyc == cycle or persistent:
            vals = faulty_values(circuit, fault, good_vals, 1)
        else:
            vals = good_vals
        if any(vals.get(po, 0) != golden_values[cyc].get(po, 0)
               for po in circuit.outputs):
            return "failure"
        state = {}
        for q, flop in circuit.flops.items():
            if (not fault.line.is_stem and fault.line.sink == q
                    and (cyc == cycle or persistent)):
                state[q] = vals.get(f"__flopD__{q}", vals[flop.d])
            else:
                state[q] = vals[flop.d]
        if cyc + 1 < len(stimuli) and state == golden_states[cyc + 1]:
            return "masked"  # converged back to golden: nothing can differ later
    final_golden = ({q: golden_values[-1][f.d] for q, f in circuit.flops.items()}
                    if stimuli else {})
    return "latent" if state != final_golden else "masked"


def _run_slicing_campaign(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    stimuli: Sequence[Mapping[str, int]],
    cycles: Sequence[int] | None,
    use_filter: bool,
    db,
    workers: int,
    executor: str,
    lane_width: int | None,
    resume: int | None = None,
) -> CampaignOutcome:
    from ..engine.core import EngineConfig, run_campaign
    from ..engine.workloads import SlicingBackend

    kwargs = {} if lane_width is None else {"lane_width": lane_width}
    backend = SlicingBackend(circuit, faults, stimuli, cycles,
                             use_filter=use_filter, **kwargs)
    report = run_campaign(
        backend, EngineConfig(batch_size=32, workers=workers,
                              executor=executor), db=db, resume=resume)
    return CampaignOutcome.from_report(report)


def run_naive_campaign(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    stimuli: Sequence[Mapping[str, int]],
    cycles: Sequence[int] | None = None,
    db=None,
    workers: int = 1,
    executor: str = "auto",
    lane_width: int | None = None,
    resume: int | None = None,
) -> CampaignOutcome:
    """Simulate every (fault, cycle) pair — the reference cost.

    Runs on the unified engine with the point filter disabled
    (``db``/``workers``/``executor``/``lane_width``
    passthrough; lane packing shares the multi-cycle propagation of up
    to ``lane_width`` injections per run — any width via the vector
    tier — with byte-identical classifications).  ``resume`` restarts a
    checkpointed campaign from its last committed chunk.
    """
    return _run_slicing_campaign(circuit, faults, stimuli, cycles,
                                 use_filter=False, db=db, workers=workers,
                                 executor=executor, lane_width=lane_width,
                                 resume=resume)


def run_sliced_campaign(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    stimuli: Sequence[Mapping[str, int]],
    cycles: Sequence[int] | None = None,
    db=None,
    workers: int = 1,
    executor: str = "auto",
    lane_width: int | None = None,
    resume: int | None = None,
) -> CampaignOutcome:
    """The accelerated campaign: skip provably-masked injections.

    Skip rules (both derived from the golden pass only, implemented as
    the engine point-filter stage of
    :class:`repro.engine.SlicingBackend`):

    1. *No activation*: the golden value at the fault line equals the
       forced value at the injection cycle → the machines are identical →
       masked, no simulation needed.
    2. *No structural path*: the static fan-out cone (through flops)
       contains no observable — masked forever.  (A dynamic refinement
       triggers per-cycle; the static check already covers dead logic.)

    Classifications are byte-identical to :func:`run_naive_campaign`
    (``verify_equivalence`` holds by construction of the lossless
    rules); ``simulated``/``skipped_*`` come from the engine's
    executed/filtered accounting.
    """
    return _run_slicing_campaign(circuit, faults, stimuli, cycles,
                                 use_filter=True, db=db, workers=workers,
                                 executor=executor, lane_width=lane_width,
                                 resume=resume)


def verify_equivalence(naive: CampaignOutcome, sliced: CampaignOutcome) -> bool:
    """The acceleration is only legitimate if classifications match exactly."""
    return naive.classifications == sliced.classifications
