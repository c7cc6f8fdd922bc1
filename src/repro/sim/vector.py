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
* ``"soa"`` — the structure-of-arrays kernel of the compiled step
  program (:attr:`repro.sim.compiled.StepProgram.soa`): the whole net state
  lives in one 2-D ``(2 * n_slots, n_blocks)`` uint64 matrix whose top
  half mirrors the bottom half complemented, and each topological level
  executes as ~4 fused numpy calls (two row-gathers, one
  ``bitwise_and``, one ``bitwise_xor``, one ``invert`` into the mirror)
  covering *every* gate in the level.  Dispatch amortizes over the
  level width, so the kernel wins from ~1k lanes
  (:data:`SOA_MIN_LANES`) on circuits with wide levels
  (:data:`SOA_MIN_LEVEL_WIDTH`).

This module holds what both sides of that boundary share: the block
count of a lane word (:func:`blocks_for`), the uint64 block array ->
packed int conversion (:func:`from_blocks`), the two crossover
constants and the carrier names a caller may request
(:data:`BACKINGS`).  Which carrier runs a given width on a given
circuit is decided in one place,
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

numpy is imported on first use, not with this module: :data:`HAVE_NUMPY`
asks the import system whether numpy is installed without loading it,
and ``vector.np`` (read by the SoA kernel and the wide-lane paths) binds
the module the first time it is read.  The int carrier at 64 lanes,
PPSFP and slicing never read it, so a process-pool or service worker
running them starts without numpy (~0.05 s of its cold start); the
first SoA or wide-lane call pays that import instead.
"""

from __future__ import annotations

import logging
from importlib.util import find_spec

try:  # numpy is a declared dependency, but degrade rather than crash
    HAVE_NUMPY = find_spec("numpy") is not None
except ImportError:  # a finder that refuses numpy: absent
    HAVE_NUMPY = False

log = logging.getLogger(__name__)


def __getattr__(name: str):
    if name == "np":  # bound on first read; later reads skip this hook
        import numpy
        globals()["np"] = numpy
        return numpy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def from_blocks(arr) -> int:
    """The packed int a little-endian uint64 block array encodes."""
    return int.from_bytes(arr.astype("<u8", copy=False).tobytes(), "little")
