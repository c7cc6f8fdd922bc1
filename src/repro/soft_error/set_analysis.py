"""Analytic SET vulnerability analysis: the three-masking model.

For a transient pulse born at a gate output, the probability that it
becomes an error is the product of three survival factors:

* **logical**   — some sensitized path reaches a flop/PO under the
  applied pattern (computed exactly with the event-driven simulator);
* **electrical** — the pulse survives per-gate attenuation; width shrinks
  by ``attenuation_per_gate`` per traversed level and dies below
  ``min_width``;
* **latch-window** — the surviving pulse overlaps a capture window:
  probability ``min(1, w_eff / clock_period)`` for a uniformly random
  pulse phase.

``set_derating`` combines them per net over a pattern sample — these are
the logic-derating factors the ML models of E5 learn to predict, and the
comparison axis for the CDN study (E4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..circuit.levelize import levels
from ..circuit.netlist import Circuit
from ..sim.event import EventSim
from ..sim.logic import mask_of, simulate


@dataclass(frozen=True)
class SetSensitivity:
    """Per-net SET sensitivity decomposition."""

    net: str
    logical: float      # fraction of patterns with a sensitized path out
    electrical: float   # pulse-survival factor (width model)
    latch_window: float # capture probability of the surviving pulse

    @property
    def combined(self) -> float:
        return self.logical * self.electrical * self.latch_window


def electrical_survival(
    pulse_width: float,
    path_depth: int,
    attenuation_per_gate: float = 0.1,
    min_width: float = 0.2,
) -> float:
    """Surviving width fraction after ``path_depth`` gates (0 if filtered)."""
    surviving = pulse_width - attenuation_per_gate * path_depth
    if surviving < min_width:
        return 0.0
    return surviving / pulse_width


def latch_window_probability(
    surviving_width: float,
    clock_period: float,
    window: float = 0.5,
) -> float:
    """Probability a pulse of the given width is captured.

    A pulse is latched when it overlaps the setup+hold window around the
    capture edge; for a uniformly random arrival phase this is
    ``(w + window) / T`` clamped to [0, 1] — 0 for a dead pulse.
    """
    if surviving_width <= 0:
        return 0.0
    return min(1.0, (surviving_width + window) / clock_period)


def logical_derating(
    circuit: Circuit,
    net: str,
    patterns: Mapping[str, int],
    n_patterns: int,
    state: Mapping[str, int] | None = None,
) -> float:
    """Fraction of patterns under which flipping ``net`` changes an output.

    Exact logical masking via the bit-parallel simulator: re-simulate the
    fan-out cone with the net inverted and compare observables (POs and
    flop Ds — a captured wrong D is an error next cycle).

    Note this models a *static* flip: transient glitches that cancel at
    reconvergence points are counted as masked even though a brief output
    glitch may exist — consistent with standard logic-derating practice.

    Raises ``ValueError`` when ``net`` is not a net of ``circuit``.
    """
    good = simulate(circuit, patterns, n_patterns, state)
    return _logical_with_state(circuit, net, good, n_patterns)


def set_derating(
    circuit: Circuit,
    nets: Sequence[str] | None = None,
    n_patterns: int = 64,
    pulse_width: float = 1.0,
    clock_period: float = 10.0,
    attenuation_per_gate: float = 0.1,
    seed: int = 0,
) -> dict[str, SetSensitivity]:
    """Three-masking SET sensitivity for each requested net.

    The good machine is simulated once for the whole sample; each net
    then re-evaluates only its fan-out cone.  Raises ``ValueError`` when
    a requested net is not a net of ``circuit``.
    """
    rng = random.Random(seed)
    stim = {pi: rng.getrandbits(n_patterns) for pi in circuit.inputs}
    state = {q: rng.getrandbits(n_patterns) for q in circuit.flops}
    good = simulate(circuit, stim, n_patterns, state)
    lvl = levels(circuit)
    max_level = max(lvl.values(), default=0)

    result: dict[str, SetSensitivity] = {}
    target_nets = list(nets if nets is not None else
                       [g.output for g in circuit.topo_order()])
    for net in target_nets:
        depth_to_capture = max(0, max_level - lvl.get(net, 0))
        logical = _logical_with_state(circuit, net, good, n_patterns)
        electrical = electrical_survival(pulse_width, depth_to_capture,
                                         attenuation_per_gate)
        latch = latch_window_probability(pulse_width * electrical, clock_period)
        result[net] = SetSensitivity(net, logical, electrical, latch)
    return result


def _logical_with_state(circuit, net, good, n_patterns) -> float:
    """Logical derating of ``net`` over the good-machine values ``good``."""
    from ..sim.fault_sim import _cone_gates
    from ..sim.logic import eval_gate

    if net not in good:
        raise ValueError(f"{net!r} is not a net of {circuit.name}")
    mask = mask_of(n_patterns)
    flipped = dict(good)
    flipped[net] = ~good[net] & mask
    for gate in _cone_gates(circuit, [net]):
        if gate.output == net:
            continue
        flipped[gate.output] = eval_gate(gate, flipped, mask)
    observables = list(circuit.outputs) + [f.d for f in circuit.flops.values()]
    diff = 0
    for obs in observables:
        diff |= (good.get(obs, 0) ^ flipped.get(obs, 0)) & mask
    return bin(diff).count("1") / n_patterns


def validate_against_event_sim(
    circuit: Circuit,
    net: str,
    pattern: Mapping[str, int],
    pulse_width: float = 2.0,
) -> bool:
    """Cross-check: analytic 'logically sensitized' vs event-driven outcome.

    Returns True when both engines agree on whether a wide pulse on
    ``net`` reaches an observable under ``pattern`` (wide pulses bypass
    electrical masking, isolating logical masking).
    """
    analytic = logical_derating(circuit, net, {k: v & 1 for k, v in pattern.items()}, 1)
    sim = EventSim(circuit, delays=1.0, inertial=0.0)
    outcome = sim.inject_set(pattern, net, pulse_width)
    reached = bool(outcome.reached_outputs or outcome.captured_flops)
    return (analytic > 0) == reached
