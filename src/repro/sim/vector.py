"""Block helpers and crossover constants for lane words wider than 64.

Every simulator in this toolkit packs parallel lanes (patterns, fault
instances) into the bits of one word per net.  Two carriers implement
that word:

* ``"int"`` — an arbitrary-precision Python int.  This is the classic
  PPSFP representation and it is *not* capped at the machine word:
  CPython big-int bitwise ops stay almost width-insensitive well past a
  thousand bits (one AND on this class of host: ~0.08µs at 1024 bits,
  ~0.13µs at 4096 bits, and the compiled step loop lands at
  ~0.13-0.14µs/gate at 1024 lanes including interpreter overhead).
* ``"soa"`` — the structure-of-arrays compiled kernel
  (:class:`repro.sim.compiled.SoaStepProgram`): the whole net state
  lives in one 2-D ``(2 * n_slots, n_blocks)`` uint64 matrix whose top
  half mirrors the bottom half complemented, and each topological level
  executes as ~4 fused numpy calls (two row-gathers, one
  ``bitwise_and``, one ``bitwise_xor``, one ``invert`` into the mirror)
  covering *every* gate in the level.  Dispatch amortizes over the
  level width, so the kernel wins from ~1k lanes
  (:data:`SOA_MIN_LANES`) on circuits with wide levels
  (:data:`SOA_MIN_LEVEL_WIDTH`).

This module holds what both sides of that boundary share: the packed
int <-> uint64 block conversions (:func:`to_blocks`,
:func:`from_blocks`, :func:`mask_array`), the two crossover constants
and the carrier names a caller may request (:data:`BACKINGS`).  Which
carrier runs a given width on a given circuit is decided in one place,
:func:`repro.engine.lanes.resolve_backing`.

Measured per-op cost model for the SoA kernel (1-CPU host, numpy 2.x,
K = gates per level, B = blocks): a row-gather ``S.take(rows, axis=0)``
costs ~0.5-1ns per gathered element plus ~0.5µs dispatch; flat
``bitwise_and/xor/invert`` with ``out=`` cost ~0.5ns/element plus
dispatch.  Two idioms measured badly enough to design around:
``ufunc.reduceat`` (~10x a binary op — per-segment inner loops) and
broadcasting a ``(n, 1)`` polarity column against ``(n, B)`` rows
(~5x a flat op) — which is why the kernel gathers *two* parallel input
row arrays and encodes every polarity as a complement-mirror row index
instead of XOR-ing polarity masks.

Per *step* of a multi-cycle lane propagation those per-level costs add
up to roughly ``35 us + 50 us * lanes / 1024`` on the benchmark's
12 800-gate circuit (1 871 live gates in 14 levels, 68 fused calls after
cone-of-influence trimming; more once the ``(2 * n_slots, n_blocks)``
matrix leaves cache): the fixed part is per-level dispatch, the rest is
per column.  :mod:`repro.engine.lanes` therefore advances only the
columns the lanes present occupy, and only for as many steps as the
slowest lane needs to be decided: every lane runs on its own clock, at
the price of gathering the golden rows of each step per 64-lane block
(one ``take`` and one mask per distinct start cycle in a block, two to
four in a cycle-sorted group — about two thirds of the kernel step
again on that circuit at 4096 lanes).

When numpy is missing entirely the SoA carrier is unavailable: a
requested ``"soa"`` degrades to ``"int"`` and lane widths above 64
degrade to the classic 64-lane packing (one-time logged warning) — see
:func:`repro.engine.lanes.resolve_lane_width`.
"""

from __future__ import annotations

import logging

try:  # numpy is a declared dependency, but degrade rather than crash
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None

HAVE_NUMPY = _np is not None
np = _np

log = logging.getLogger(__name__)

#: Bits per block (numpy uint64).
BLOCK_BITS = 64

#: SoA crossover: from this lane count the level-batched SoA kernel
#: beats the int carrier *on circuits with wide levels* (measured >= 2x
#: at 1024 lanes with ~85 gates/level).
SOA_MIN_LANES = 1024

#: Mean gates-per-level below which the SoA kernel cannot amortize its
#: per-level dispatch against the int carrier (measured: ~13
#: gates/level runs at 0.3x int, ~31 at ~1.0x, ~50 at ~1.4x, ~85 at
#: >= 2x).  Narrow circuits stay on ints at every width.
SOA_MIN_LEVEL_WIDTH = 32

#: The carriers a caller may request by name (``None`` = auto).
BACKINGS = ("int", "soa")

_warned_no_numpy = False


def _warn_no_numpy(context: str) -> None:
    """One-time logged warning when numpy-backed features degrade."""
    global _warned_no_numpy
    if not _warned_no_numpy:
        log.warning("numpy unavailable: %s — degrading to 64-bit packing",
                    context)
        _warned_no_numpy = True


def blocks_for(n_lanes: int) -> int:
    """Number of 64-bit blocks needed for ``n_lanes`` lanes."""
    return max(1, (n_lanes + BLOCK_BITS - 1) // BLOCK_BITS)


def to_blocks(value: int, n_blocks: int):
    """A packed int as a little-endian uint64 block array.

    Zero — by far the most common replicated word — short-circuits to
    a direct allocation; other values take one ``int.to_bytes`` /
    ``frombuffer`` round trip (that *is* the direct construction for
    an arbitrary big int).
    """
    if value == 0:
        return np.zeros(n_blocks, dtype=np.uint64)
    data = value.to_bytes(n_blocks * 8, "little")
    # frombuffer returns a read-only view; copy so callers may mutate
    return np.frombuffer(data, dtype="<u8").astype(np.uint64)


def from_blocks(arr) -> int:
    """The packed int a block array encodes (inverse of to_blocks)."""
    return int.from_bytes(arr.astype("<u8", copy=False).tobytes(), "little")


def mask_array(n_lanes: int, n_blocks: int | None = None):
    """The lane mask as a block array: ``n_lanes`` low bits set.

    Built directly in numpy — full blocks of all-ones plus at most one
    partial block — instead of materializing the ``(1 << n_lanes) - 1``
    big int and round-tripping through bytes (at 64k lanes the big-int
    path costs ~10µs per call; this is ~1µs and flat).  The big-int
    path survives only as the implicit no-numpy fallback: without
    numpy the SoA carrier is off and masks stay plain ints
    (:func:`repro.sim.logic.mask_of`).
    """
    if n_blocks is None:
        n_blocks = blocks_for(n_lanes)
    arr = np.zeros(n_blocks, dtype=np.uint64)
    full, rem = divmod(max(0, n_lanes), BLOCK_BITS)
    full = min(full, n_blocks)
    arr[:full] = np.uint64(0xFFFFFFFFFFFFFFFF)
    if rem and full < n_blocks:
        arr[full] = np.uint64((1 << rem) - 1)
    return arr
