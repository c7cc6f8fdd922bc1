"""Event-driven timing simulation with inertial delays.

Used for single-event-transient (SET) studies: a radiation-induced pulse
is injected on a net, propagates through gates with real delays, may be
logically masked by off-path non-controlling values, may be swallowed by
gate inertia (electrical masking at the filtering level), and is only
harmful if it still overlaps a flop's latching window (latch-window
masking).  The three-masking chain is the standard soft-error model the
RESCUE SET analyses build on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping

from ..circuit.netlist import Circuit
from .logic import simulate


@dataclass
class Waveform:
    """Value-change history of one net: list of (time, value), sorted."""

    initial: int
    changes: list[tuple[float, int]] = field(default_factory=list)

    def value_at(self, t: float) -> int:
        val = self.initial
        for time, new in self.changes:
            if time > t:
                break
            val = new
        return val

    def pulse_widths(self) -> list[float]:
        """Durations of excursions away from the initial value."""
        widths = []
        val = self.initial
        start: float | None = None
        for time, new in self.changes:
            if val == self.initial and new != self.initial:
                start = time
            elif val != self.initial and new == self.initial and start is not None:
                widths.append(time - start)
                start = None
            val = new
        return widths


@dataclass
class SETOutcome:
    """Result of one SET injection."""

    injected_net: str
    width: float
    reached_outputs: list[str]
    captured_flops: list[str]
    glitched_outputs: list[str]
    filtered: bool


class EventSim:
    """Small event-driven gate-level simulator.

    ``delays`` maps gate-output nets to propagation delay (a float default
    applies elsewhere).  ``inertial`` is the minimum pulse width a gate
    passes; narrower output pulses are cancelled (classic inertial-delay
    glitch suppression).
    """

    def __init__(
        self,
        circuit: Circuit,
        delays: Mapping[str, float] | float = 1.0,
        inertial: float | None = None,
    ) -> None:
        self.circuit = circuit
        if isinstance(delays, (int, float)):
            self.delays = {out: float(delays) for out in circuit.gates}
        else:
            self.delays = {out: float(delays.get(out, 1.0)) for out in circuit.gates}
        self.inertial = inertial if inertial is not None else 0.0

    # ------------------------------------------------------------------
    def run(
        self,
        pi_values: Mapping[str, int],
        injections: list[tuple[str, float, float]],
        horizon: float,
        state: Mapping[str, int] | None = None,
    ) -> dict[str, Waveform]:
        """Simulate from a steady state with pulse ``injections``.

        Each injection is ``(net, start_time, width)``: the net flips away
        from its steady value at ``start_time`` and back at
        ``start_time + width``.  Returns a waveform per net up to
        ``horizon``.
        """
        steady = simulate(self.circuit, pi_values, 1, state)
        waves = {net: Waveform(steady.get(net, 0)) for net in self.circuit.nets}
        current = {net: steady.get(net, 0) for net in self.circuit.nets}

        counter = 0
        queue: list[tuple[float, int, str, int, bool]] = []
        for net, t0, width in injections:
            v = current[net]
            heapq.heappush(queue, (t0, counter, net, 1 - v, True))
            counter += 1
            heapq.heappush(queue, (t0 + width, counter, net, v, True))
            counter += 1

        fmap = self.circuit.fanout_map()
        # last scheduled change per net, for inertial cancellation
        last_sched: dict[str, tuple[float, int]] = {}
        cancelled: set[int] = set()

        while queue:
            time, eid, net, value, forced = heapq.heappop(queue)
            if time > horizon:
                break
            if eid in cancelled:
                continue
            if current[net] == value:
                continue
            current[net] = value
            waves[net].changes.append((time, value))
            for sink in fmap.get(net, ()):
                if sink in self.circuit.flops:
                    continue  # flops sample explicitly at capture time
                gate = self.circuit.gates[sink]
                new_out = _eval_scalar(gate, current)
                delay = self.delays.get(sink, 1.0)
                event_time = time + delay
                prev = last_sched.get(sink)
                if prev is not None:
                    prev_time, prev_id = prev
                    if (event_time - prev_time) < self.inertial and prev_id not in cancelled:
                        # pulse narrower than gate inertia: swallow both edges
                        cancelled.add(prev_id)
                        last_sched.pop(sink, None)
                        continue
                heapq.heappush(queue, (event_time, counter, sink, new_out, False))
                last_sched[sink] = (event_time, counter)
                counter += 1
        return waves

    # ------------------------------------------------------------------
    def inject_set(
        self,
        pi_values: Mapping[str, int],
        net: str,
        width: float,
        capture_time: float | None = None,
        setup: float = 0.5,
        hold: float = 0.5,
        state: Mapping[str, int] | None = None,
    ) -> SETOutcome:
        """Inject one SET and classify the outcome.

        The pulse starts at t=0.  ``capture_time`` is the next active clock
        edge (defaults to circuit depth + 2 delay units); a flop captures a
        wrong value iff its D net deviates from steady inside the window
        ``[capture - setup, capture + hold]``.  A PO 'glitches' if its
        waveform deviates at any time; it is *wrong at capture* if it
        deviates exactly at the capture instant.
        """
        if capture_time is None:
            capture_time = float(len(self.circuit.topo_order()) + 2)
        horizon = capture_time + hold + 1.0
        waves = self.run(pi_values, [(net, 0.0, width)], horizon, state)

        glitched, reached = [], []
        for po in self.circuit.outputs:
            wave = waves[po]
            if wave.changes:
                reached.append(po)
            if wave.value_at(capture_time) != wave.initial:
                glitched.append(po)
        captured = []
        for q, flop in self.circuit.flops.items():
            wave = waves[flop.d]
            if not wave.changes:
                continue
            in_window = any(
                capture_time - setup <= t <= capture_time + hold for t, _ in wave.changes
            ) or wave.value_at(capture_time) != wave.initial
            if in_window:
                captured.append(q)
        filtered = not any(waves[n].changes for n in self.circuit.nets if n != net)
        return SETOutcome(net, width, reached, captured, glitched, filtered)


def _eval_scalar(gate, current: Mapping[str, int]) -> int:
    """Scalar (1-bit) gate evaluation on the current value map."""
    from .logic import eval_gate

    return eval_gate(gate, current, 1)
