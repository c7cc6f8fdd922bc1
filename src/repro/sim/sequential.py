"""Multi-cycle simulation of sequential circuits.

A thin state machine over the bit-parallel combinational simulator:
each :meth:`SequentialSim.step` evaluates the combinational logic, emits
the primary outputs and advances every flop (Q ← D).  The packed-pattern
encoding carries through, so one ``SequentialSim`` advances *n* parallel
universes at once — which is exactly what the SEU campaigns need (one
clean universe plus n-1 faulty ones).

``step`` runs on a compiled program (:class:`repro.sim.compiled
.StepProgram`) that fuses the combinational evaluation with the flop
advance and skips logic outside the observables' cone of influence; the
evaluate-then-capture interpreter below is the reference path, selected
by ``RESCUE_NO_COMPILE=1`` or ``compiled.disabled()``.  The
:meth:`SequentialSim.flip_state` SEU-injection hook mutates ``state``
between steps and is oblivious to which path executes them.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..circuit.netlist import Circuit
from . import compiled as _compiled
from .logic import mask_of, simulate


class SequentialSim:
    """Cycle-accurate simulator for a (single-clock) sequential circuit."""

    def __init__(self, circuit: Circuit, n_patterns: int = 1) -> None:
        self.circuit = circuit
        self.n_patterns = n_patterns
        self.mask = mask_of(n_patterns)
        self.state: dict[str, int] = {}
        self.cycle = 0
        self.reset()

    def reset(self) -> None:
        """Load every flop with its init value (replicated across patterns)."""
        self.state = {
            q: (self.mask if flop.init else 0) for q, flop in self.circuit.flops.items()
        }
        self.cycle = 0

    def flip_state(self, q: str, pattern_mask: int | None = None) -> None:
        """Flip flop ``q`` in the selected patterns (SEU injection hook)."""
        if q not in self.state:
            raise KeyError(f"{q!r} is not a flop of {self.circuit.name}")
        self.state[q] ^= self.mask if pattern_mask is None else (pattern_mask & self.mask)

    def evaluate(self, pi_values: Mapping[str, int]) -> dict[str, int]:
        """Combinational evaluation at the current state (no clock edge)."""
        return simulate(self.circuit, pi_values, self.n_patterns, self.state)

    def step(self, pi_values: Mapping[str, int]) -> dict[str, int]:
        """Apply inputs, capture flops, return packed PO values for this cycle."""
        program = _compiled.step_program(self.circuit)
        if program is not None:
            out, self.state = program.run(pi_values, self.state, self.mask)
            self.cycle += 1
            return out
        values = self.evaluate(pi_values)
        next_state = {q: values[flop.d] for q, flop in self.circuit.flops.items()}
        self.state = next_state
        self.cycle += 1
        return {po: values[po] for po in self.circuit.outputs}

    def run(self, stimuli: Sequence[Mapping[str, int]]) -> list[dict[str, int]]:
        """Run one step per stimulus; returns the PO trace."""
        return [self.step(stim) for stim in stimuli]


def output_trace(
    circuit: Circuit,
    stimuli: Sequence[Mapping[str, int]],
    n_patterns: int = 1,
    initial_state: Mapping[str, int] | None = None,
) -> list[dict[str, int]]:
    """Convenience: fresh simulator, optional state override, full PO trace."""
    sim = SequentialSim(circuit, n_patterns)
    if initial_state:
        for q, val in initial_state.items():
            sim.state[q] = val & sim.mask
    return sim.run(stimuli)
