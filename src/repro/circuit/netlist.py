"""Gate-level netlist data model.

The netlist is deliberately simple and SSA-like: every gate drives exactly
one net, identified by a string name.  Primary inputs are undriven nets;
primary outputs are names of nets additionally exposed at the boundary.
Sequential elements are D flip-flops with a single implicit clock.

This model is the substrate for everything above it — fault universes,
logic/fault simulation, ATPG, soft-error analysis and the safety flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Iterator


class GateType(str, Enum):
    """Primitive combinational gate types.

    The set is intentionally small: library circuits (muxes, decoders,
    adders) are built from these primitives so that fault collapsing and
    simulation rules stay trivial and well-tested.
    """

    AND = "AND"
    OR = "OR"
    NAND = "NAND"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    CONST0 = "CONST0"
    CONST1 = "CONST1"

    @property
    def min_arity(self) -> int:
        if self in (GateType.CONST0, GateType.CONST1):
            return 0
        if self in (GateType.NOT, GateType.BUF):
            return 1
        return 2


@dataclass(frozen=True)
class Gate:
    """A combinational gate driving net ``output`` from ``inputs``."""

    output: str
    gtype: GateType
    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.gtype in (GateType.NOT, GateType.BUF) and len(self.inputs) != 1:
            raise ValueError(f"{self.gtype.value} gate {self.output!r} needs exactly 1 input")
        if self.gtype in (GateType.CONST0, GateType.CONST1) and self.inputs:
            raise ValueError(f"constant gate {self.output!r} takes no inputs")
        if self.gtype.min_arity >= 2 and len(self.inputs) < 2:
            raise ValueError(f"{self.gtype.value} gate {self.output!r} needs >= 2 inputs")


@dataclass(frozen=True)
class Flop:
    """A D flip-flop: ``q`` is driven from ``d`` at each clock edge."""

    q: str
    d: str
    init: int = 0

    def __post_init__(self) -> None:
        if self.init not in (0, 1):
            raise ValueError(f"flop {self.q!r} init must be 0 or 1")


class CircuitError(ValueError):
    """Raised for malformed circuit structure."""


class Circuit:
    """A named gate-level circuit.

    Invariants maintained by the mutation API and checked by
    :meth:`validate`:

    * every net is driven by exactly one of: a primary input, a gate, or a
      flop Q pin;
    * gate/flop input nets must exist by validation time (forward
      references are allowed while building);
    * the combinational part (PIs and flop Qs as sources, POs and flop Ds
      as sinks) is acyclic.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.gates: dict[str, Gate] = {}
        self.flops: dict[str, Flop] = {}
        self._topo_cache: list[Gate] | None = None
        self._fanout_cache: dict[str, tuple[str, ...]] | None = None
        self._topo_index_cache: dict[str, int] | None = None
        # fan-out cones by start-net tuple, plus (under the keys None,
        # "ffr" and ("tails", observe-net tuple)) the reachability table
        # they are read from, the fan-out-free-region links and the
        # linear-tail walk table per observe set — repro.sim.fault_sim
        self._cone_cache: dict[tuple | str | None, Any] = {}
        # the compiled step program (repro.sim.compiled, key "step");
        # invalidated with the structural caches above
        self._program_cache: dict = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input net."""
        if name in self.inputs:
            raise CircuitError(f"duplicate input {name!r}")
        if name in self.gates or name in self.flops:
            raise CircuitError(f"net {name!r} already driven")
        self.inputs.append(name)
        self._invalidate()
        return name

    def add_output(self, net: str) -> str:
        """Mark an existing (or forward-referenced) net as a primary output."""
        if net in self.outputs:
            raise CircuitError(f"duplicate output {net!r}")
        self.outputs.append(net)
        self._invalidate()
        return net

    def add_gate(self, output: str, gtype: GateType | str, inputs: Iterable[str]) -> Gate:
        """Add a gate driving ``output``; returns the created :class:`Gate`."""
        if isinstance(gtype, str):
            gtype = GateType(gtype.upper())
        gate = Gate(output, gtype, tuple(inputs))
        self._check_undriven(output)
        self.gates[output] = gate
        self._invalidate()
        return gate

    def add_flop(self, q: str, d: str, init: int = 0) -> Flop:
        """Add a D flip-flop driving net ``q`` from net ``d``."""
        flop = Flop(q, d, init)
        self._check_undriven(q)
        self.flops[q] = flop
        self._invalidate()
        return flop

    def _check_undriven(self, net: str) -> None:
        if net in self.inputs or net in self.gates or net in self.flops:
            raise CircuitError(f"net {net!r} already driven")

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Serialize structure only; memoized caches are dropped.

        The topo/fan-out/cone caches can dwarf the netlist itself and are
        cheap to rebuild, so a pickled circuit (e.g. one shipped to a
        process-pool worker) carries just gates/flops/IO and re-derives
        the caches lazily on first use in the receiving process.
        """
        state = self.__dict__.copy()
        state["_topo_cache"] = None
        state["_fanout_cache"] = None
        state["_topo_index_cache"] = None
        state["_cone_cache"] = {}
        state["_program_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # snapshots pickled before the compiled core existed lack the slot
        self.__dict__.setdefault("_program_cache", {})

    def _invalidate(self) -> None:
        self._topo_cache = None
        self._fanout_cache = None
        self._topo_index_cache = None
        self._cone_cache.clear()
        self._program_cache.clear()

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @property
    def nets(self) -> list[str]:
        """All net names, sources first (PIs, flop Qs), then gate outputs."""
        seen: dict[str, None] = {}
        for name in self.inputs:
            seen.setdefault(name)
        for q in self.flops:
            seen.setdefault(q)
        for out in self.gates:
            seen.setdefault(out)
        return list(seen)

    def driver_of(self, net: str) -> Gate | Flop | str | None:
        """Return the driver of ``net``: a Gate, a Flop, the string ``"input"``
        for primary inputs, or ``None`` if undriven."""
        if net in self.gates:
            return self.gates[net]
        if net in self.flops:
            return self.flops[net]
        if net in self.inputs:
            return "input"
        return None

    def fanout(self, net: str) -> tuple[str, ...]:
        """Nets of gates (and flop Qs) that consume ``net``.

        Flop consumers are reported by their Q net name.
        """
        return self.fanout_map().get(net, ())

    def fanout_map(self) -> dict[str, tuple[str, ...]]:
        """Map each net to the output nets of its consumers (cached)."""
        if self._fanout_cache is None:
            acc: dict[str, list[str]] = {}
            for gate in self.gates.values():
                for src in gate.inputs:
                    acc.setdefault(src, []).append(gate.output)
            for flop in self.flops.values():
                acc.setdefault(flop.d, []).append(flop.q)
            self._fanout_cache = {net: tuple(dst) for net, dst in acc.items()}
        return self._fanout_cache

    def validate(self) -> None:
        """Check structural invariants; raises :class:`CircuitError` on failure."""
        driven = set(self.inputs) | set(self.gates) | set(self.flops)
        for gate in self.gates.values():
            for src in gate.inputs:
                if src not in driven:
                    raise CircuitError(f"gate {gate.output!r} reads undriven net {src!r}")
        for flop in self.flops.values():
            if flop.d not in driven:
                raise CircuitError(f"flop {flop.q!r} reads undriven net {flop.d!r}")
        for out in self.outputs:
            if out not in driven:
                raise CircuitError(f"primary output {out!r} is undriven")
        self.topo_order()  # raises on combinational cycles

    # ------------------------------------------------------------------
    # topological order
    # ------------------------------------------------------------------
    def topo_order(self) -> list[Gate]:
        """Gates in combinational evaluation order (PIs/flop Qs are sources).

        Raises :class:`CircuitError` if the combinational logic is cyclic.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        gates = self.gates
        # one pass: a gate's in-degree counts its gate-driven inputs (a
        # repeated input once per occurrence, matched by one fan-out
        # entry per occurrence)
        indeg: dict[str, int] = {}
        fanout_to_gates: dict[str, list[str]] = {}
        for out, gate in gates.items():
            n = 0
            for src in gate.inputs:
                if src in gates:
                    n += 1
                    consumers = fanout_to_gates.get(src)
                    if consumers is None:
                        fanout_to_gates[src] = [out]
                    else:
                        consumers.append(out)
            indeg[out] = n
        ready = sorted(out for out, n in indeg.items() if n == 0)
        order: list[Gate] = []
        while ready:
            net = ready.pop()
            order.append(gates[net])
            for dst in fanout_to_gates.get(net, ()):
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    ready.append(dst)
        if len(order) != len(gates):
            cyclic = sorted(set(gates) - {g.output for g in order})
            raise CircuitError(f"combinational cycle through nets {cyclic[:5]}")
        self._topo_cache = order
        return order

    def topo_index(self) -> dict[str, int]:
        """Position of each gate output in :meth:`topo_order` (cached)."""
        if self._topo_index_cache is None:
            self._topo_index_cache = {
                gate.output: i for i, gate in enumerate(self.topo_order())
            }
        return self._topo_index_cache

    # ------------------------------------------------------------------
    # reporting / misc
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Size summary used by reports and the Fig. 1 registry."""
        by_type: dict[str, int] = {}
        for gate in self.gates.values():
            by_type[gate.gtype.value] = by_type.get(gate.gtype.value, 0) + 1
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": len(self.gates),
            "flops": len(self.flops),
            "nets": len(self.nets),
            **{f"gates_{key.lower()}": val for key, val in sorted(by_type.items())},
        }

    def copy(self, name: str | None = None) -> "Circuit":
        """Deep-enough copy (gates/flops are frozen, so sharing them is safe)."""
        dup = Circuit(name or self.name)
        dup.inputs = list(self.inputs)
        dup.outputs = list(self.outputs)
        dup.gates = dict(self.gates)
        dup.flops = dict(self.flops)
        return dup

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.topo_order())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Circuit({self.name!r}, pi={len(self.inputs)}, po={len(self.outputs)}, "
            f"gates={len(self.gates)}, flops={len(self.flops)})"
        )
