"""Fluent helpers for constructing circuits.

:class:`CircuitBuilder` removes the naming boilerplate of raw
:class:`~repro.circuit.netlist.Circuit` construction: it generates fresh
net names, offers word-level (bus) helpers and composite cells (mux,
half/full adder) built from the primitive gate set.
"""

from __future__ import annotations

from typing import Sequence

from .netlist import Circuit, GateType


class CircuitBuilder:
    """Incrementally builds a :class:`Circuit` with auto-named nets."""

    def __init__(self, name: str = "circuit") -> None:
        self.circuit = Circuit(name)
        self._counter = 0

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------
    def fresh(self, prefix: str = "n") -> str:
        """Return a fresh, unused net name."""
        while True:
            self._counter += 1
            name = f"{prefix}{self._counter}"
            if self.circuit.driver_of(name) is None and name not in self.circuit.inputs:
                return name

    # ------------------------------------------------------------------
    # scalar ports and gates
    # ------------------------------------------------------------------
    def input(self, name: str | None = None) -> str:
        return self.circuit.add_input(name or self.fresh("in"))

    def output(self, net: str) -> str:
        return self.circuit.add_output(net)

    def gate(self, gtype: GateType | str, *inputs: str, name: str | None = None) -> str:
        out = name or self.fresh()
        self.circuit.add_gate(out, gtype, inputs)
        return out

    def and_(self, *ins: str, name: str | None = None) -> str:
        return self.gate(GateType.AND, *ins, name=name)

    def or_(self, *ins: str, name: str | None = None) -> str:
        return self.gate(GateType.OR, *ins, name=name)

    def nand(self, *ins: str, name: str | None = None) -> str:
        return self.gate(GateType.NAND, *ins, name=name)

    def nor(self, *ins: str, name: str | None = None) -> str:
        return self.gate(GateType.NOR, *ins, name=name)

    def xor(self, *ins: str, name: str | None = None) -> str:
        return self.gate(GateType.XOR, *ins, name=name)

    def xnor(self, *ins: str, name: str | None = None) -> str:
        return self.gate(GateType.XNOR, *ins, name=name)

    def not_(self, a: str, name: str | None = None) -> str:
        return self.gate(GateType.NOT, a, name=name)

    def buf(self, a: str, name: str | None = None) -> str:
        return self.gate(GateType.BUF, a, name=name)

    def const0(self, name: str | None = None) -> str:
        return self.gate(GateType.CONST0, name=name)

    def flop(self, d: str, init: int = 0, name: str | None = None) -> str:
        q = name or self.fresh("q")
        self.circuit.add_flop(q, d, init)
        return q

    # ------------------------------------------------------------------
    # composite cells (built from primitives)
    # ------------------------------------------------------------------
    def mux2(self, sel: str, a: str, b: str, name: str | None = None) -> str:
        """2:1 mux: out = a when sel=0, b when sel=1."""
        nsel = self.not_(sel)
        lo = self.and_(a, nsel)
        hi = self.and_(b, sel)
        return self.or_(lo, hi, name=name)

    def mux_tree(self, sels: Sequence[str], data: Sequence[str], name: str | None = None) -> str:
        """N:1 mux with ``len(sels)`` select lines and ``2**len(sels)`` inputs."""
        if len(data) != 1 << len(sels):
            raise ValueError("mux_tree needs 2**len(sels) data inputs")
        level = list(data)
        for depth, sel in enumerate(sels):
            is_last = depth == len(sels) - 1
            nxt = []
            for i in range(0, len(level), 2):
                out_name = name if (is_last and i == 0) else None
                nxt.append(self.mux2(sel, level[i], level[i + 1], name=out_name))
            level = nxt
        return level[0]

    def half_adder(self, a: str, b: str) -> tuple[str, str]:
        """Return (sum, carry)."""
        return self.xor(a, b), self.and_(a, b)

    def full_adder(self, a: str, b: str, cin: str) -> tuple[str, str]:
        """Return (sum, carry_out)."""
        s1, c1 = self.half_adder(a, b)
        s2, c2 = self.half_adder(s1, cin)
        return s2, self.or_(c1, c2)

    # ------------------------------------------------------------------
    # bus helpers
    # ------------------------------------------------------------------
    def input_bus(self, prefix: str, width: int) -> list[str]:
        """Declare ``width`` primary inputs named ``prefix0 .. prefix{w-1}``
        (index 0 = LSB)."""
        return [self.input(f"{prefix}{i}") for i in range(width)]

    def done(self) -> Circuit:
        """Validate and return the finished circuit."""
        self.circuit.validate()
        return self.circuit
