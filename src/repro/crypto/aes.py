"""AES-128 with side-channel instrumentation.

Two encryption paths share one verified core (FIPS-197 test vectors in
the test suite):

* :class:`AesLeaky` — a table-lookup implementation with a toy cache
  model: S-box lookups hit or miss 16-entry cache lines, so execution
  *time* depends on the data/key (the timing side channel PASCAL-style
  audits must flag), and the power trace is the unmasked Hamming weight
  of the first-round S-box outputs (the CPA target).
* :class:`AesConstantTime` — same math, but timing is charged as a fixed
  cost per operation (modelling a bitsliced/prefetched implementation)
  and the power trace is masked with a fresh random mask per block.

``state`` is a 16-byte ``bytes`` in column-major AES order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

SBOX = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16,
]

INV_SBOX = [0] * 256
for _i, _v in enumerate(SBOX):
    INV_SBOX[_v] = _i

RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36]


def xtime(a: int) -> int:
    """Multiply by x in GF(2^8) mod x^8+x^4+x^3+x+1."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11b
    return a & 0xFF


# log / antilog tables of GF(2^8) over the generator 3 (x + 1): the
# antilog table is doubled so a sum of two logs needs no reduction
_EXP = [0] * 510
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _EXP[_i + 255] = _x
    _LOG[_x] = _i
    _x ^= xtime(_x)


def gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication of two bytes (used by MixColumns and DFA):
    one antilog lookup of the sum of their logs."""
    if not a or not b:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def expand_key(key: bytes) -> list[list[int]]:
    """AES-128 key schedule: 11 round keys of 16 bytes each."""
    if len(key) != 16:
        raise ValueError("AES-128 key must be 16 bytes")
    words = [list(key[i:i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = [SBOX[b] for b in temp]
            temp[0] ^= RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    return [sum(words[4 * r:4 * r + 4], []) for r in range(11)]


def _sub_bytes(state: list[int]) -> list[int]:
    return [SBOX[b] for b in state]


def _shift_rows(state: list[int]) -> list[int]:
    # state is column-major: index = 4*col + row
    out = list(state)
    for row in range(1, 4):
        vals = [state[4 * col + row] for col in range(4)]
        vals = vals[row:] + vals[:row]
        for col in range(4):
            out[4 * col + row] = vals[col]
    return out


def _mix_columns(state: list[int]) -> list[int]:
    out = [0] * 16
    for col in range(4):
        a = state[4 * col:4 * col + 4]
        out[4 * col + 0] = gmul(a[0], 2) ^ gmul(a[1], 3) ^ a[2] ^ a[3]
        out[4 * col + 1] = a[0] ^ gmul(a[1], 2) ^ gmul(a[2], 3) ^ a[3]
        out[4 * col + 2] = a[0] ^ a[1] ^ gmul(a[2], 2) ^ gmul(a[3], 3)
        out[4 * col + 3] = gmul(a[0], 3) ^ a[1] ^ a[2] ^ gmul(a[3], 2)
    return out


def _add_round_key(state: list[int], rk: list[int]) -> list[int]:
    return [s ^ k for s, k in zip(state, rk)]


def encrypt_block(plaintext: bytes, key: bytes,
                  fault: tuple[int, int, int] | None = None) -> bytes:
    """Reference AES-128 ECB encryption of one block.

    ``fault`` optionally injects (round, byte_index, xor_value) *before*
    the SubBytes of that round — the hook the DFA experiment uses.
    """
    if len(plaintext) != 16:
        raise ValueError("block must be 16 bytes")
    round_keys = expand_key(key)
    state = _add_round_key(list(plaintext), round_keys[0])
    for rnd in range(1, 10):
        if fault is not None and fault[0] == rnd:
            state[fault[1]] ^= fault[2]
        state = _sub_bytes(state)
        state = _shift_rows(state)
        state = _mix_columns(state)
        state = _add_round_key(state, round_keys[rnd])
    if fault is not None and fault[0] == 10:
        state[fault[1]] ^= fault[2]
    state = _sub_bytes(state)
    state = _shift_rows(state)
    state = _add_round_key(state, round_keys[10])
    return bytes(state)


def hamming_weight(x: int) -> int:
    return x.bit_count()


# ----------------------------------------------------------------------
# instrumented variants
# ----------------------------------------------------------------------
@dataclass
class SideChannelTrace:
    """Observables from one encryption."""

    cycles: int = 0
    power: list[int] = field(default_factory=list)  # per-sample HW values


class AesLeaky:
    """Table-based AES with data-dependent timing and unmasked power.

    Cache model: the 256-entry S-box spans 16 lines of 16 entries.  The
    cache is cold at the start of every round (other activity evicts the
    table between rounds, as in Bernstein's AES timing attack setting),
    so each round costs ``MISS`` per *distinct* line its 16 lookups touch
    — a quantity determined by key⊕data.  Power samples are the Hamming
    weights of round-1 S-box outputs (the classic CPA point).
    """

    HIT = 1
    MISS = 12
    LINE = 16

    def __init__(self, key: bytes) -> None:
        self.key = key
        self.round_keys = expand_key(key)

    def fork(self, seed: int) -> "AesLeaky":
        """Per-trace cipher for engine campaigns: stateless, so the
        same instance serves every trace (see ScaTraceBackend)."""
        return self

    def encrypt(self, plaintext: bytes) -> tuple[bytes, SideChannelTrace]:
        trace = SideChannelTrace()
        touched: set[int] = set()

        def lookup(index: int) -> int:
            line = index // self.LINE
            trace.cycles += self.HIT if line in touched else self.MISS
            touched.add(line)
            return SBOX[index]

        state = _add_round_key(list(plaintext), self.round_keys[0])
        for rnd in range(1, 10):
            touched.clear()  # inter-round eviction by other activity
            new_state = []
            for b in state:
                val = lookup(b)
                if rnd == 1:
                    trace.power.append(hamming_weight(val))
                new_state.append(val)
            state = _shift_rows(new_state)
            state = _mix_columns(state)
            trace.cycles += 16  # fixed MixColumns cost
            state = _add_round_key(state, self.round_keys[rnd])
        touched.clear()
        state = [lookup(b) for b in state]
        state = _shift_rows(state)
        state = _add_round_key(state, self.round_keys[10])
        return bytes(state), trace


class AesConstantTime:
    """Constant-time AES model: fixed cost per op, masked power trace."""

    OP_COST = 4

    def __init__(self, key: bytes, mask_seed: int = 0) -> None:
        self.key = key
        self.round_keys = expand_key(key)
        self._rng = random.Random(mask_seed)

    def fork(self, seed: int) -> "AesConstantTime":
        """Per-trace cipher for engine campaigns: an independent mask
        stream seeded per point, so trace values do not depend on the
        order batches execute in (pure ``run_batch`` contract)."""
        return AesConstantTime(self.key, mask_seed=seed)

    def encrypt(self, plaintext: bytes) -> tuple[bytes, SideChannelTrace]:
        trace = SideChannelTrace()
        mask = self._rng.randrange(256)
        state = _add_round_key(list(plaintext), self.round_keys[0])
        for rnd in range(1, 10):
            state = _sub_bytes(state)
            if rnd == 1:
                # masked implementation: the measured wire is value ⊕ mask
                trace.power.extend(hamming_weight(b ^ mask) for b in state)
            state = _shift_rows(state)
            state = _mix_columns(state)
            state = _add_round_key(state, self.round_keys[rnd])
            trace.cycles += 16 * self.OP_COST + 16
        state = _sub_bytes(state)
        state = _shift_rows(state)
        state = _add_round_key(state, self.round_keys[10])
        trace.cycles += 16 * self.OP_COST
        return bytes(state), trace
