"""Block helpers for lane words wider than 64.

Every simulator in this toolkit packs parallel lanes (patterns, fault
instances) into the bits of one word per net, and one carrier
implements that word: an arbitrary-precision Python int, the classic
PPSFP representation, *not* capped at the machine word.  The lane
walker (:mod:`repro.engine.lanes`) runs it in C over 64-lane
``uint64_t`` blocks where the step program's native walker loads
(:attr:`repro.sim.compiled.StepProgram.native`), and in Python
otherwise, where CPython big-int bitwise ops stay almost
width-insensitive well past a thousand bits (one AND on this class of
host: ~0.08µs at 1024 bits, ~0.13µs at 4096 bits).

This module holds what both walkers share: the block count of a lane
word (:func:`blocks_for`), numpy on first use and the one-time warning
when it is missing.  numpy serves two wide-word paths: the Python
walker's transpose of its golden blocks into one word per row, and the
one-pass unpacking of wide outcome words
(:func:`repro.engine.lanes._outcome_list`).  Without numpy lane widths
above 64 degrade to the classic 64-lane packing (one-time logged
warning) — see :func:`repro.engine.lanes.resolve_lane_width`.

numpy is imported on first use, not with this module: :data:`HAVE_NUMPY`
asks the import system whether numpy is installed without loading it,
and ``vector.np`` binds the module the first time it is read.  The
walkers at 64 lanes, PPSFP and slicing never read it, so a process-pool
or service worker running them starts without numpy (~0.05 s of its
cold start); the first wide-lane call pays that import instead.
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
