"""IEEE 1687-style reconfigurable scan networks (paper III.E).

A network is a hierarchy of segments between TDI and TDO containing:

* :class:`Reg` — an n-bit shift register with an update latch (a TDR
  fronting an embedded instrument);
* :class:`Sib` — segment-insertion bit: a 1-bit cell whose update value
  splices its child segment into the active path;
* :class:`Mux` — a ScanMux selecting one of several branch segments by
  the update value of a named control register.

The model implements the full CSU (capture-shift-update) protocol over
the *active* path, which is recomputed from update-latch state before
every operation — the defining property of reconfigurable networks, and
the reason their test/verification problems ([15]-[17], [29], [30],
[44], [45], [47]) are interesting.

Fault models (``SibStuck``, ``MuxSelStuck``, ``CellStuck``) act on the
same simulator, so golden and faulty behaviours come from one engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


class RsnError(ValueError):
    """Malformed network or protocol misuse."""


@dataclass
class Reg:
    """An n-bit scan register (TDR) with shift stage and update latch."""

    name: str
    length: int
    reset_value: int = 0
    shift_stage: int = 0
    update_latch: int = 0
    capture_value: int | None = None  # instrument readback, if any

    def reset(self) -> None:
        self.shift_stage = self.reset_value
        self.update_latch = self.reset_value

    def cells(self) -> list[tuple["Reg", int]]:
        return [(self, i) for i in range(self.length)]


@dataclass
class Sib:
    """Segment-insertion bit; update=1 splices ``child`` after the cell."""

    name: str
    child: "Segment"
    shift_stage: int = 0
    update_latch: int = 0

    def reset(self) -> None:
        self.shift_stage = 0
        self.update_latch = 0
        self.child.reset()

    def cells(self) -> list[tuple["Sib", int]]:
        return [(self, 0)]


@dataclass
class Mux:
    """ScanMux: routes one of ``branches`` based on a control register.

    ``control`` names a :class:`Reg`; its update-latch value (mod the
    branch count) selects the active branch.  The mux has no scan cell of
    its own.
    """

    name: str
    control: str
    branches: list["Segment"] = field(default_factory=list)

    def reset(self) -> None:
        for branch in self.branches:
            branch.reset()


Node = Reg | Sib | Mux


@dataclass
class Segment:
    """An ordered run of nodes between two points of the scan path."""

    nodes: list[Node] = field(default_factory=list)

    def reset(self) -> None:
        for node in self.nodes:
            node.reset()


class RSN:
    """A reconfigurable scan network with CSU semantics."""

    def __init__(self, name: str, top: Segment) -> None:
        self.name = name
        self.top = top
        self.registry: dict[str, Node] = {}
        self._register_segment(top)
        self.faults: list[object] = []
        self.total_shift_cycles = 0
        self.csu_count = 0

    def _register_segment(self, segment: Segment) -> None:
        for node in segment.nodes:
            if node.name in self.registry:
                raise RsnError(f"duplicate node name {node.name!r}")
            self.registry[node.name] = node
            if isinstance(node, Sib):
                self._register_segment(node.child)
            elif isinstance(node, Mux):
                for branch in node.branches:
                    self._register_segment(branch)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.top.reset()
        self.total_shift_cycles = 0
        self.csu_count = 0

    def node(self, name: str) -> Node:
        try:
            return self.registry[name]
        except KeyError:
            raise RsnError(f"unknown node {name!r}") from None

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    def inject(self, fault: object) -> None:
        self.faults.append(fault)

    def _sib_open(self, sib: Sib) -> bool:
        for fault in self.faults:
            if isinstance(fault, SibStuck) and fault.name == sib.name:
                return bool(fault.open_)
        return bool(sib.update_latch & 1)

    def _mux_branch(self, mux: Mux) -> int:
        for fault in self.faults:
            if isinstance(fault, MuxSelStuck) and fault.name == mux.name:
                return fault.branch % len(mux.branches)
        control = self.node(mux.control)
        if not isinstance(control, Reg):
            raise RsnError(f"mux {mux.name!r} control {mux.control!r} is not a Reg")
        return control.update_latch % len(mux.branches)

    def _cell_forced(self, node: Node, bit: int) -> int | None:
        for fault in self.faults:
            if (isinstance(fault, CellStuck) and fault.name == node.name
                    and fault.bit == bit):
                return fault.value
        return None

    # ------------------------------------------------------------------
    # active path and CSU
    # ------------------------------------------------------------------
    def active_path(self) -> list[tuple[Node, int]]:
        """Scan cells on the currently-configured TDI→TDO path."""
        path: list[tuple[Node, int]] = []
        self._walk(self.top, path)
        return path

    def _walk(self, segment: Segment, path: list[tuple[Node, int]]) -> None:
        for node in segment.nodes:
            if isinstance(node, Reg):
                path.extend(node.cells())
            elif isinstance(node, Sib):
                path.extend(node.cells())
                if self._sib_open(node):
                    self._walk(node.child, path)
            elif isinstance(node, Mux):
                self._walk(node.branches[self._mux_branch(node)], path)

    def path_length(self) -> int:
        return len(self.active_path())

    def _get_bit(self, node: Node, bit: int) -> int:
        return (node.shift_stage >> bit) & 1

    def _set_bit(self, node: Node, bit: int, value: int) -> None:
        forced = self._cell_forced(node, bit)
        if forced is not None:
            value = forced
        if value:
            node.shift_stage |= 1 << bit
        else:
            node.shift_stage &= ~(1 << bit)

    def capture(self) -> None:
        """Load capture values into the shift stages of active-path cells."""
        seen: set[str] = set()
        for node, _bit in self.active_path():
            if node.name in seen:
                continue
            seen.add(node.name)
            if isinstance(node, Reg):
                node.shift_stage = (node.capture_value
                                    if node.capture_value is not None
                                    else node.update_latch)
                for i in range(node.length):
                    self._set_bit(node, i, (node.shift_stage >> i) & 1)
            elif isinstance(node, Sib):
                node.shift_stage = node.update_latch & 1
                self._set_bit(node, 0, node.shift_stage)

    def shift(self, tdi_bits: Sequence[int]) -> list[int]:
        """Shift ``tdi_bits`` in (first element first); returns TDO bits.

        The active path is fixed during a shift (IEEE 1687 semantics:
        configuration changes only at update).
        """
        path = self.active_path()
        tdo: list[int] = []
        for bit_in in tdi_bits:
            carry = bit_in & 1
            for node, bit in path:
                old = self._get_bit(node, bit)
                self._set_bit(node, bit, carry)
                carry = old
            tdo.append(carry)
            self.total_shift_cycles += 1
        return tdo

    def update(self) -> None:
        """Copy shift stages to update latches for active-path cells."""
        seen: set[str] = set()
        for node, _bit in self.active_path():
            if node.name in seen:
                continue
            seen.add(node.name)
            if isinstance(node, (Reg, Sib)):
                node.update_latch = node.shift_stage

    def csu(self, tdi_bits: Sequence[int]) -> list[int]:
        """One full capture-shift-update operation; returns TDO bits."""
        if len(tdi_bits) != self.path_length():
            raise RsnError(
                f"CSU vector length {len(tdi_bits)} != active path length "
                f"{self.path_length()}")
        self.capture()
        tdo = self.shift(tdi_bits)
        self.update()
        self.csu_count += 1
        return tdo

    # ------------------------------------------------------------------
    def read_register(self, name: str) -> int:
        node = self.node(name)
        if not isinstance(node, Reg):
            raise RsnError(f"{name!r} is not a Reg")
        return node.update_latch

    def state_signature(self) -> dict[str, int]:
        """Update-latch snapshot of every node (for equivalence checks)."""
        return {
            name: node.update_latch
            for name, node in sorted(self.registry.items())
            if isinstance(node, (Reg, Sib))
        }


# ----------------------------------------------------------------------
# fault models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SibStuck:
    """SIB control stuck: segment permanently included/excluded."""

    name: str
    open_: bool

    def describe(self) -> str:
        return f"SIB {self.name} stuck-{'open' if self.open_ else 'closed'}"


@dataclass(frozen=True)
class MuxSelStuck:
    """ScanMux select stuck on one branch."""

    name: str
    branch: int

    def describe(self) -> str:
        return f"Mux {self.name} stuck-branch-{self.branch}"


@dataclass(frozen=True)
class CellStuck:
    """A scan cell's shift stage stuck-at a value."""

    name: str
    bit: int
    value: int

    def describe(self) -> str:
        return f"cell {self.name}[{self.bit}] s-a-{self.value}"


def all_rsn_faults(network: RSN) -> list[object]:
    """The standard RSN fault universe over a network."""
    faults: list[object] = []
    for name, node in sorted(network.registry.items()):
        if isinstance(node, Sib):
            faults.append(SibStuck(name, True))
            faults.append(SibStuck(name, False))
            faults.append(CellStuck(name, 0, 0))
            faults.append(CellStuck(name, 0, 1))
        elif isinstance(node, Mux):
            for b in range(len(node.branches)):
                faults.append(MuxSelStuck(name, b))
        elif isinstance(node, Reg):
            for bit in (0, node.length - 1):
                faults.append(CellStuck(name, bit, 0))
                faults.append(CellStuck(name, bit, 1))
    return faults


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------
def chain(name: str, *nodes: Node) -> RSN:
    """A network from a flat list of nodes."""
    return RSN(name, Segment(list(nodes)))


def sib_tree(depth: int = 3, regs_per_leaf: int = 1, reg_bits: int = 8,
             name: str = "sibtree") -> RSN:
    """A balanced SIB tree: each SIB guards two child SIBs (or leaf TDRs).

    The canonical benchmark shape of the RSN literature: path length
    ranges from ``#root SIBs`` (all closed) to the full flattened network.
    """
    counter = {"sib": 0, "reg": 0}

    def build(level: int) -> Segment:
        nodes: list[Node] = []
        if level == 0:
            for _ in range(regs_per_leaf):
                counter["reg"] += 1
                nodes.append(Reg(f"r{counter['reg']}", reg_bits))
            return Segment(nodes)
        for _ in range(2):
            counter["sib"] += 1
            nodes.append(Sib(f"s{counter['sib']}", build(level - 1)))
        return Segment(nodes)

    return RSN(name, build(depth))


def random_network(n_nodes: int = 20, reg_bits: int = 8, seed: int = 0,
                   name: str | None = None) -> RSN:
    """Seeded random SIB/Reg/Mux network for statistical experiments."""
    import random as _random

    rng = _random.Random(seed)
    counter = {"n": 0}

    def fresh(prefix: str) -> str:
        counter["n"] += 1
        return f"{prefix}{counter['n']}"

    control_regs: list[str] = []

    def build(budget: int, top_level: bool) -> Segment:
        nodes: list[Node] = []
        while budget > 0:
            kind = rng.random()
            if kind < 0.45 or budget < 3:
                reg = Reg(fresh("r"), rng.choice((4, reg_bits)))
                nodes.append(reg)
                control_regs.append(reg.name)
                budget -= 1
            elif kind < 0.8:
                child_budget = min(budget - 1, rng.randint(1, 4))
                nodes.append(Sib(fresh("s"), build(child_budget, False)))
                budget -= 1 + child_budget
            elif control_regs and budget >= 3:
                n_br = 2
                b1 = build(1, False)
                b2 = build(1, False)
                nodes.append(Mux(fresh("m"), rng.choice(control_regs), [b1, b2]))
                budget -= 3
            else:
                nodes.append(Reg(fresh("r"), 4))
                budget -= 1
        if top_level and not any(isinstance(n, Reg) for n in nodes):
            nodes.insert(0, Reg(fresh("r"), reg_bits))
        return Segment(nodes)

    top = build(n_nodes, True)
    return RSN(name or f"rand_rsn_{n_nodes}_s{seed}", top)
