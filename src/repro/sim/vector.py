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
word (:func:`blocks_for`).  Both walkers, and the unpacking of wide
outcome words, run on the standard library alone, so no campaign
loads numpy and every lane width runs as asked on every host;
:data:`HAVE_NUMPY` stays only for the campaign benchmark's notes.
"""

from __future__ import annotations

from importlib.util import find_spec

#: Whether numpy is installed (asked of the import system, not
#: imported).  Nothing in the engine or the simulators reads it: it
#: stays only because the campaign benchmark's ``probes.have_numpy``
#: records it in each run's notes.
try:
    HAVE_NUMPY = find_spec("numpy") is not None
except ImportError:  # a finder that refuses numpy: absent
    HAVE_NUMPY = False

#: Bits per block (one ``uint64_t``).
BLOCK_BITS = 64


def blocks_for(n_lanes: int) -> int:
    """Number of 64-bit blocks needed for ``n_lanes`` lanes."""
    return max(1, (n_lanes + BLOCK_BITS - 1) // BLOCK_BITS)
