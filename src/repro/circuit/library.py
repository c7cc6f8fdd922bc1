"""Generator library of benchmark circuits.

The RESCUE experiments need representative gate-level workloads
(ISCAS-style combinational and sequential circuits).  Shipping netlist
files would bloat the repository, so this module *generates* them:
classic teaching circuits (c17, an s27-like sequential core), arithmetic
blocks (adders, multipliers, ALU), interconnect/addressing blocks (mux
trees, decoders — the substrate for the address-decoder aging study) and
seeded random DAGs for statistically varied experiments.

All generators return validated :class:`~repro.circuit.netlist.Circuit`
objects and are deterministic for a given argument tuple.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .builder import CircuitBuilder
from .netlist import Circuit, GateType


def c17() -> Circuit:
    """The ISCAS-85 c17 benchmark: 5 inputs, 2 outputs, 6 NAND gates."""
    bld = CircuitBuilder("c17")
    n1, n2, n3, n6, n7 = (bld.input(f"N{i}") for i in (1, 2, 3, 6, 7))
    n10 = bld.nand(n1, n3, name="N10")
    n11 = bld.nand(n3, n6, name="N11")
    n16 = bld.nand(n2, n11, name="N16")
    n19 = bld.nand(n11, n7, name="N19")
    bld.output(bld.nand(n10, n16, name="N22"))
    bld.output(bld.nand(n16, n19, name="N23"))
    return bld.done()


def s27() -> Circuit:
    """An s27-like small sequential circuit: 4 PIs, 1 PO, 3 flops, ~10 gates."""
    bld = CircuitBuilder("s27")
    g0, g1, g2, g3 = (bld.input(f"G{i}") for i in range(4))
    # state nets are forward-referenced via flops added at the end
    q5, q6, q7 = "G5", "G6", "G7"
    n9 = bld.not_(g0, name="n9")
    n10 = bld.not_(q7, name="n10")
    n11 = bld.and_(g2, n9, name="n11")
    n12 = bld.nor(n11, g3, name="n12")
    n13 = bld.or_(q6, n12, name="n13")
    n14 = bld.nor(n13, q5, name="n14")
    n15 = bld.or_(n14, n10, name="n15")
    n16 = bld.nand(g1, n15, name="n16")
    n17 = bld.nor(n12, n16, name="n17")
    bld.circuit.add_flop(q5, n14)
    bld.circuit.add_flop(q6, n17)
    bld.circuit.add_flop(q7, n16)
    bld.output(bld.not_(n15, name="G17"))
    return bld.done()


def ripple_adder(width: int = 8) -> Circuit:
    """Ripple-carry adder: buses ``a``/``b`` + ``cin`` → ``s`` bus + ``cout``."""
    bld = CircuitBuilder(f"rca{width}")
    a = bld.input_bus("a", width)
    b = bld.input_bus("b", width)
    carry = bld.input("cin")
    for i in range(width):
        s, carry = bld.full_adder(a[i], b[i], carry)
        bld.output(bld.buf(s, name=f"s{i}"))
    bld.output(bld.buf(carry, name="cout"))
    return bld.done()


def array_multiplier(width: int = 4) -> Circuit:
    """Unsigned array multiplier producing a ``2*width``-bit product."""
    bld = CircuitBuilder(f"mul{width}")
    a = bld.input_bus("a", width)
    b = bld.input_bus("b", width)
    # partial products pp[i][j] = a[j] & b[i]
    rows = [[bld.and_(a[j], b[i]) for j in range(width)] for i in range(width)]
    # row 0 feeds the accumulator directly
    acc = list(rows[0])
    product = [acc[0]]
    for i in range(1, width):
        carry: str | None = None
        nxt: list[str] = []
        for j in range(width):
            pp = rows[i][j]
            addend = acc[j + 1] if j + 1 < len(acc) else None
            if addend is None and carry is None:
                nxt.append(pp)
            elif addend is None:
                s, carry = bld.half_adder(pp, carry)
                nxt.append(s)
            elif carry is None:
                s, carry = bld.half_adder(pp, addend)
                nxt.append(s)
            else:
                s, carry = bld.full_adder(pp, addend, carry)
                nxt.append(s)
        if carry is not None:
            nxt.append(carry)
        product.append(nxt[0])
        acc = nxt
    product.extend(acc[1:])
    for i, net in enumerate(product):
        bld.output(bld.buf(net, name=f"p{i}"))
    return bld.done()


def alu(width: int = 4) -> Circuit:
    """A small ALU: op ∈ {ADD, AND, OR, XOR} selected by ``op0``/``op1``.

    Used by the SBST experiments as a stand-in for a processor execution
    unit with a well-defined functional test goal.
    """
    bld = CircuitBuilder(f"alu{width}")
    a = bld.input_bus("a", width)
    b = bld.input_bus("b", width)
    op0 = bld.input("op0")
    op1 = bld.input("op1")
    carry = bld.const0()
    for i in range(width):
        add_s, carry = bld.full_adder(a[i], b[i], carry)
        and_o = bld.and_(a[i], b[i])
        or_o = bld.or_(a[i], b[i])
        xor_o = bld.xor(a[i], b[i])
        out = bld.mux_tree([op0, op1], [add_s, and_o, or_o, xor_o])
        bld.output(bld.buf(out, name=f"y{i}"))
    bld.output(bld.buf(carry, name="cout"))
    return bld.done()


def parity_tree(width: int = 8) -> Circuit:
    """Balanced XOR parity tree over ``width`` inputs."""
    bld = CircuitBuilder(f"par{width}")
    level = bld.input_bus("d", width)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(bld.xor(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    bld.output(bld.buf(level[0], name="p"))
    return bld.done()


def decoder(address_bits: int = 3) -> Circuit:
    """``address_bits``-to-``2**address_bits`` line decoder.

    This is the structural model of an SRAM address decoder used by the
    decoder-aging experiment (E11): each output's duty cycle equals the
    access frequency of its address.
    """
    bld = CircuitBuilder(f"dec{address_bits}")
    addr = bld.input_bus("a", address_bits)
    naddr = [bld.not_(bit) for bit in addr]
    for line in range(1 << address_bits):
        terms = [addr[i] if (line >> i) & 1 else naddr[i] for i in range(address_bits)]
        if len(terms) == 1:
            bld.output(bld.buf(terms[0], name=f"w{line}"))
        else:
            bld.output(bld.and_(*terms, name=f"w{line}"))
    return bld.done()


def comparator(width: int = 8) -> Circuit:
    """Equality comparator: ``eq = (a == b)``."""
    bld = CircuitBuilder(f"cmp{width}")
    a = bld.input_bus("a", width)
    b = bld.input_bus("b", width)
    bits = [bld.xnor(a[i], b[i]) for i in range(width)]
    while len(bits) > 1:
        nxt = []
        for i in range(0, len(bits) - 1, 2):
            nxt.append(bld.and_(bits[i], bits[i + 1]))
        if len(bits) % 2:
            nxt.append(bits[-1])
        bits = nxt
    bld.output(bld.buf(bits[0], name="eq"))
    return bld.done()


def majority_voter(width: int = 1) -> Circuit:
    """Bitwise 2-of-3 majority voter over three ``width``-bit buses (TMR)."""
    bld = CircuitBuilder(f"maj{width}")
    a = bld.input_bus("a", width)
    b = bld.input_bus("b", width)
    c = bld.input_bus("c", width)
    for i in range(width):
        ab = bld.and_(a[i], b[i])
        bc = bld.and_(b[i], c[i])
        ac = bld.and_(a[i], c[i])
        bld.output(bld.or_(ab, bc, ac, name=f"v{i}"))
    return bld.done()


def counter(width: int = 4) -> Circuit:
    """Synchronous binary up-counter with enable; outputs the count bus."""
    bld = CircuitBuilder(f"cnt{width}")
    en = bld.input("en")
    qs = [f"q{i}" for i in range(width)]
    carry = en
    for i in range(width):
        d = bld.xor(qs[i], carry)
        if i + 1 < width:
            carry = bld.and_(qs[i], carry)
        bld.circuit.add_flop(qs[i], d)
        bld.output(bld.buf(qs[i], name=f"c{i}"))
    return bld.done()


def lfsr(width: int = 8, taps: Sequence[int] | None = None) -> Circuit:
    """Fibonacci LFSR with XOR feedback; default taps give a maximal cycle
    for width 8 (x^8+x^6+x^5+x^4+1)."""
    if taps is None:
        taps = {8: (7, 5, 4, 3), 4: (3, 2), 16: (15, 14, 12, 3)}.get(width, (width - 1, 0))
    bld = CircuitBuilder(f"lfsr{width}")
    qs = [f"q{i}" for i in range(width)]
    fb = qs[taps[0]]
    for tap in taps[1:]:
        fb = bld.xor(fb, qs[tap])
    # shift: q0 <- feedback, q[i] <- q[i-1]
    bld.circuit.add_flop(qs[0], bld.buf(fb), init=1)
    for i in range(1, width):
        bld.circuit.add_flop(qs[i], bld.buf(qs[i - 1]))
    for i in range(width):
        bld.output(bld.buf(qs[i], name=f"o{i}"))
    return bld.done()


def shift_register(width: int = 8) -> Circuit:
    """Serial-in serial-out shift register (the spine of scan chains)."""
    bld = CircuitBuilder(f"sr{width}")
    si = bld.input("si")
    prev = si
    for i in range(width):
        q = f"q{i}"
        bld.circuit.add_flop(q, bld.buf(prev))
        prev = q
    bld.output(bld.buf(prev, name="so"))
    return bld.done()


def random_combinational(
    n_inputs: int = 12,
    n_gates: int = 120,
    n_outputs: int = 8,
    seed: int = 0,
) -> Circuit:
    """Seeded random combinational DAG with mixed gate types.

    Gate fan-in is 1–3, drawn from nets created earlier, which yields
    ISCAS-like depth/fanout distributions adequate for statistical
    fault-injection studies.
    """
    rng = random.Random(seed)
    bld = CircuitBuilder(f"rand_c_{n_inputs}x{n_gates}_s{seed}")
    pool = bld.input_bus("pi", n_inputs)
    two_in = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
              GateType.XOR, GateType.XNOR]
    for _ in range(n_gates):
        gtype = rng.choice(two_in + [GateType.NOT])
        if gtype is GateType.NOT:
            out = bld.not_(rng.choice(pool))
        else:
            arity = rng.choice((2, 2, 2, 3))
            ins = rng.sample(pool, min(arity, len(pool)))
            if len(ins) < 2:
                ins = ins * 2
            out = bld.gate(gtype, *ins)
        pool.append(out)
    # every dangling net is XOR-compressed into one of the outputs, so all
    # logic stays observable (ISCAS-like, no accidental dead cones)
    dangling = [net for net in pool if not bld.circuit.fanout(net)]
    groups: list[list[str]] = [[] for _ in range(n_outputs)]
    for idx, net in enumerate(dangling):
        groups[idx % n_outputs].append(net)
    for i, group in enumerate(groups):
        if not group:  # more outputs than nets left: reuse from the end
            bld.output(bld.buf(pool[-(i % len(pool)) - 1], name=f"po{i}"))
        elif len(group) == 1:
            bld.output(bld.buf(group[0], name=f"po{i}"))
        else:
            acc = group[0]
            for net in group[1:]:
                acc = bld.xor(acc, net)
            bld.output(bld.buf(acc, name=f"po{i}"))
    return bld.done()


def random_sequential(
    n_inputs: int = 8,
    n_gates: int = 80,
    n_flops: int = 12,
    n_outputs: int = 6,
    seed: int = 0,
) -> Circuit:
    """Seeded random sequential circuit (Moore-ish next-state random logic)."""
    rng = random.Random(seed)
    bld = CircuitBuilder(f"rand_s_{n_flops}f_s{seed}")
    pis = bld.input_bus("pi", n_inputs)
    states = [f"st{i}" for i in range(n_flops)]
    pool = pis + states
    two_in = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR, GateType.XOR]
    created: list[str] = []
    for _ in range(n_gates):
        gtype = rng.choice(two_in + [GateType.NOT])
        if gtype is GateType.NOT:
            out = bld.not_(rng.choice(pool))
        else:
            ins = rng.sample(pool, 2)
            out = bld.gate(gtype, *ins)
        pool.append(out)
        created.append(out)
    for i, q in enumerate(states):
        bld.circuit.add_flop(q, rng.choice(created), init=rng.randint(0, 1))
    for i in range(n_outputs):
        bld.output(bld.buf(rng.choice(created), name=f"po{i}"))
    return bld.done()


#: Registry of named benchmark factories (name -> zero-arg callable).
BENCHMARKS: dict[str, Callable[[], Circuit]] = {
    "c17": c17,
    "s27": s27,
    "rca8": lambda: ripple_adder(8),
    "rca16": lambda: ripple_adder(16),
    "mul4": lambda: array_multiplier(4),
    "mul6": lambda: array_multiplier(6),
    "alu4": lambda: alu(4),
    "alu8": lambda: alu(8),
    "par8": lambda: parity_tree(8),
    "par16": lambda: parity_tree(16),
    "dec4": lambda: decoder(4),
    "dec6": lambda: decoder(6),
    "cmp8": lambda: comparator(8),
    "maj8": lambda: majority_voter(8),
    "cnt8": lambda: counter(8),
    "lfsr8": lambda: lfsr(8),
    "sr16": lambda: shift_register(16),
    "rand200": lambda: random_combinational(14, 200, 10, seed=7),
    "rand500": lambda: random_combinational(18, 500, 12, seed=11),
    "rand_seq": lambda: random_sequential(seed=3),
}


def load(name: str) -> Circuit:
    """Instantiate a registered benchmark by name."""
    try:
        return BENCHMARKS[name]()
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}") from None
