"""Vector backing for packed simulation words wider than 64 lanes.

Every simulator in this toolkit packs parallel lanes (patterns, fault
instances) into the bits of one word per net.  Three backings implement
that word:

* ``"int"`` — an arbitrary-precision Python int.  This is the classic
  PPSFP representation and it is *not* capped at the machine word:
  CPython big-int bitwise ops stay almost width-insensitive well past a
  thousand bits (one AND on this class of host: ~0.08µs at 1024 bits,
  ~0.13µs at 4096 bits, and the compiled step loop lands at
  ~0.13-0.14µs/gate at 1024 lanes including interpreter overhead).
* ``"ndarray"`` — one numpy ``uint64`` array of ``n_blocks =
  ceil(lanes / 64)`` blocks *per net*, least-significant block first,
  fed through the same compiled per-net expressions.  **Negative
  result, kept for the record**: per-op numpy dispatch is ~0.5-1.5µs on
  a tiny per-net array versus ~0.1µs for the big-int op it replaces, so
  this backing only overtakes ints once words grow to tens of
  thousands of lanes (measured ~32k on this host class —
  :data:`NDARRAY_MIN_LANES`).  At 1024 lanes it measures ~0.3x the int
  backing.
* ``"soa"`` — a structure-of-arrays compiled kernel
  (:class:`repro.sim.compiled.SoaStepProgram` and friends): the whole
  net state lives in one 2-D ``(2 * n_slots, n_blocks)`` uint64 matrix
  whose top half mirrors the bottom half complemented, and each
  topological level executes as ~4 fused numpy calls (two row-gathers,
  one ``bitwise_and``, one ``bitwise_xor``, one ``invert`` into the
  mirror) covering *every* gate in the level.  Dispatch amortizes over
  the level width, so the crossover drops from ~32k lanes to ~1k
  (:data:`SOA_MIN_LANES`) on circuits with wide levels.

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
per column.  :mod:`repro.engine.lanes` therefore neither advances every
column nor every cycle — it walks the lane word in column bands of
``lanes.SOA_BAND_BLOCKS`` blocks, each over its own busy window.

Because the win comes from level width, the auto backing uses both the
lane count and (when the caller can provide it) the program's mean
gates-per-level: narrow circuits (< :data:`SOA_MIN_LEVEL_WIDTH` gates
per level) keep the int backing until :data:`NDARRAY_MIN_LANES` lanes.

Override precedence, strongest first:

1. an explicit ``backing=`` argument;
2. ``RESCUE_VECTOR_BACKING=int|ndarray|soa`` (global force);
3. host calibration via :func:`calibrate_crossover` (opt-in:
   ``RESCUE_CALIBRATE_CROSSOVER=1`` or an explicit call) — overrides
   the crossover *defaults* but never an explicit
   ``RESCUE_SOA_MIN_LANES`` / ``RESCUE_NDARRAY_MIN_LANES``;
4. ``RESCUE_SOA_MIN_LANES`` / ``RESCUE_NDARRAY_MIN_LANES`` env values;
5. the built-in measured defaults.

When numpy is missing entirely the vector tier is unavailable: the
``soa``/``ndarray`` backings degrade to ``int`` and lane widths above
64 degrade to the classic 64-lane packing (one-time logged warning) —
see :func:`repro.engine.lanes.resolve_lane_width`.
"""

from __future__ import annotations

import logging
import os

try:  # numpy is a declared dependency, but degrade rather than crash
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None

HAVE_NUMPY = _np is not None
np = _np

log = logging.getLogger(__name__)

#: Bits per ndarray block (numpy uint64).
BLOCK_BITS = 64

#: Env override for the backing choice: ``int``, ``ndarray``, ``soa``
#: or unset/auto.
ENV_BACKING = "RESCUE_VECTOR_BACKING"

#: Opt-in host calibration: when set truthy, the first auto backing
#: resolution runs :func:`calibrate_crossover` once and uses the
#: measured crossover instead of the defaults below.
ENV_CALIBRATE = "RESCUE_CALIBRATE_CROSSOVER"

#: Per-net ndarray crossover: below this lane count the int backing
#: wins (big-int ops are near width-insensitive), above it even the
#: per-net dispatch-heavy ndarray backing's flat per-block cost takes
#: over.  Measured on this class of host; override with
#: ``RESCUE_NDARRAY_MIN_LANES``.
NDARRAY_MIN_LANES = int(os.environ.get("RESCUE_NDARRAY_MIN_LANES", 32768))

#: SoA crossover: from this lane count the level-batched SoA kernel
#: beats the int backing *on circuits with wide levels* (measured >= 2x
#: at 1024 lanes with ~85 gates/level).  Override with
#: ``RESCUE_SOA_MIN_LANES``.
SOA_MIN_LANES = int(os.environ.get("RESCUE_SOA_MIN_LANES", 1024))

#: Mean gates-per-level below which the SoA kernel cannot amortize its
#: per-level dispatch against the int backing at moderate widths
#: (measured: ~13 gates/level runs at 0.3x int, ~31 at ~1.0x, ~50 at
#: ~1.4x, ~85 at >= 2x).  Callers that know their program's level
#: width pass it to :func:`resolve_backing`; narrow circuits stay on
#: ints until :data:`NDARRAY_MIN_LANES`.
SOA_MIN_LEVEL_WIDTH = 32

#: All known backings, for validation.
BACKINGS = ("int", "ndarray", "soa")

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


def resolve_backing(n_lanes: int, backing: str | None = None,
                    level_width: float | None = None) -> str:
    """Resolve a requested backing (``None`` = auto) for ``n_lanes``.

    Auto picks ``"int"`` below :data:`SOA_MIN_LANES`; from there the
    SoA kernel tier takes over when the caller's ``level_width`` hint
    (mean gates per topological level of the program that will run)
    is absent or at least :data:`SOA_MIN_LEVEL_WIDTH`.  Narrow
    circuits keep the int backing until :data:`NDARRAY_MIN_LANES`,
    past which SoA wins regardless of level width (it strictly
    dominates the per-net ndarray backing that used to take over
    there).  The :data:`ENV_BACKING` env var overrides auto (but not
    an explicit argument); see the module docstring for the full
    precedence.  A forced ``"ndarray"``/``"soa"`` without numpy
    degrades to ``"int"`` with a one-time logged warning — same
    packed-int semantics, so results are unchanged.
    """
    if backing is None:
        backing = os.environ.get(ENV_BACKING) or None
    if backing is None:
        _maybe_calibrate()
        if n_lanes >= NDARRAY_MIN_LANES:
            backing = "soa"
        elif n_lanes >= SOA_MIN_LANES and (
                level_width is None or level_width >= SOA_MIN_LEVEL_WIDTH):
            backing = "soa"
        else:
            backing = "int"
    if backing not in BACKINGS:
        raise ValueError(f"unknown vector backing {backing!r}")
    if backing in ("ndarray", "soa") and not HAVE_NUMPY:
        _warn_no_numpy(f"{backing} backing requested")
        backing = "int"
    return backing


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


def zeros(n_blocks: int):
    """An all-zero lane word (shareable: compiled code never mutates)."""
    return np.zeros(n_blocks, dtype=np.uint64)


def mask_array(n_lanes: int, n_blocks: int | None = None):
    """The lane mask as a block array: ``n_lanes`` low bits set.

    Built directly in numpy — full blocks of all-ones plus at most one
    partial block — instead of materializing the ``(1 << n_lanes) - 1``
    big int and round-tripping through bytes (at 64k lanes the big-int
    path costs ~10µs per call; this is ~1µs and flat).  The big-int
    path survives only as the implicit no-numpy fallback: without
    numpy the vector tier is off and masks stay plain ints
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


def to_block_dict(values, n_blocks: int) -> dict:
    """Convert a ``net -> packed int`` mapping to ndarray backing."""
    return {net: to_blocks(val, n_blocks) for net, val in values.items()}


# ----------------------------------------------------------------------
# host crossover calibration (opt-in)
# ----------------------------------------------------------------------
_calibrated: int | None = None


def _maybe_calibrate() -> None:
    """Run the one-time calibration when the env opt-in is set."""
    if _calibrated is None and HAVE_NUMPY \
            and os.environ.get(ENV_CALIBRATE, "") not in ("", "0"):
        calibrate_crossover()


def calibrate_crossover(level_width: int = 48,
                        candidates=(256, 512, 1024, 2048, 4096, 8192,
                                    16384, 32768)) -> int:
    """Measure the int-vs-SoA crossover on the running host, once.

    Micro-benchmarks the two inner loops head to head at a
    representative level width: per gate, the int backing costs one
    big-int bitwise op plus bytecode overhead; the SoA kernel costs
    its share of two row-gathers, one flat binary op and one mirror
    invert.  The smallest candidate lane count where the SoA side wins
    replaces :data:`SOA_MIN_LANES` (and, capped, the per-net
    :data:`NDARRAY_MIN_LANES` guess) — unless those were pinned via
    their env vars, which always win over calibration.  The result is
    cached for the process; repeated calls are free.  Opt in with
    ``RESCUE_CALIBRATE_CROSSOVER=1`` or call explicitly.
    """
    global _calibrated, SOA_MIN_LANES, NDARRAY_MIN_LANES
    if _calibrated is not None:
        return _calibrated
    if not HAVE_NUMPY:
        _warn_no_numpy("crossover calibration requested")
        _calibrated = 1 << 62  # vector tier unavailable: never cross
        return _calibrated
    import time

    rng = np.random.default_rng(0)
    crossover = 1 << 62
    for n_lanes in candidates:
        n_blocks = blocks_for(n_lanes)
        n_slots = 2 * level_width + 2
        state = rng.integers(0, 1 << 63, size=(2 * n_slots, n_blocks),
                             dtype=np.uint64)
        r0 = rng.integers(0, n_slots, size=level_width).astype(np.intp)
        r1 = rng.integers(0, n_slots, size=level_width).astype(np.intp)
        a, b = n_slots - level_width, n_slots
        x = (1 << n_lanes) - 12345
        y = (1 << n_lanes) // 7

        def soa_once():
            g0 = state.take(r0, axis=0)
            g1 = state.take(r1, axis=0)
            np.bitwise_and(g0, g1, out=state[a:b])
            np.invert(state[a:b], out=state[n_slots + a:n_slots + b])

        def int_once():
            w = x
            for _ in range(level_width):
                w = x & y
            return w

        # warm, then best-of-3 to shrug off scheduler noise
        soa_once(), int_once()
        reps = 30

        def best(fn):
            best_t = None
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(reps):
                    fn()
                t = time.perf_counter() - t0
                best_t = t if best_t is None or t < best_t else best_t
            return best_t / (reps * level_width)

        if best(soa_once) < best(int_once):
            crossover = n_lanes
            break
    _calibrated = crossover
    if "RESCUE_SOA_MIN_LANES" not in os.environ:
        SOA_MIN_LANES = crossover
    if "RESCUE_NDARRAY_MIN_LANES" not in os.environ:
        # the per-net backing needs far more width to amortize its
        # per-gate dispatch; keep it at least the historical guess
        NDARRAY_MIN_LANES = max(crossover, 32768)
    log.info("vector crossover calibrated: SoA wins from %d lanes "
             "(level width %d)", crossover, level_width)
    return crossover
