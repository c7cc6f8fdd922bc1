"""Build, cache and load the native kernels: C translation units built
by the host C compiler and called through :mod:`ctypes`.

Two kernels are served, each one translation unit:

* the lane walker of a step program
  (:attr:`repro.sim.compiled.StepProgram.c_source`, one per circuit: the
  step over one 64-lane ``uint64_t`` block, the whole skewed walk of
  :func:`repro.engine.lanes._propagate_skewed` and the golden pass that
  lays out its golden table), wrapped by :class:`LaneWalker`;
* the root walk (:data:`repro.sim.fault_sim._C_ROOT_WALK`, one source
  for every design: it builds the flat table of a design from its
  numbered structure, :func:`repro.sim.fault_sim._native_table`, and
  interprets it), wrapped by :class:`RootWalker`.  It serves two
  backends: the PPSFP sweep hands it a chunk's faults and reads one
  detection word per fault, walking the roots it needs inside the call,
  and the slicing backend (:class:`repro.engine.workloads
  .SlicingBackend`) reads one word per observed net of a walk, from
  which it answers every injection cycle of a window.

:func:`load` builds a source once with the host C compiler (``gcc``,
else ``cc``, found on ``PATH``) at the one fixed flag set :data:`CFLAGS`,
caches the shared library on disk under a key made from the compiler,
the flags and the source, and loads it with :mod:`ctypes`.  Pool
workers and repeat campaigns find the library in the cache and load it
instead of building it; within a process a library is loaded once.

The cache directory is per user: ``$XDG_CACHE_HOME/repro-native``, else
``~/.cache/repro-native``, else (no home directory)
``<tempfile.gettempdir()>/repro-native-<uid>``, created ``0o700``.  A
directory the user does not own, or that others may write, is refused.
A build writes to a temporary file in that directory and moves it into
place with :func:`os.replace`, so processes that build the same source
at once each load a whole library.

Nothing here is needed for correct results: with no compiler, a failed
build, a library that does not load or an unusable cache directory,
:func:`load` logs one warning per process and returns ``None``, and the
caller runs its Python reference — the int lane walker, or
:func:`repro.sim.fault_sim._root_walk` — that the kernel is tested
against.  This module (and :mod:`ctypes`) is imported by the first
kernel asked for — a design's golden pass (:func:`repro.engine.lanes
.build_context`) or the first root walk — not before.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from array import array

log = logging.getLogger(__name__)

#: The one flag set every kernel is built with.  ``-O0`` builds about
#: three times faster than ``-O1`` and walks about 10 % slower, so it is
#: the only level at which a one-shot campaign on a cold cache still
#: wins (README, "Native lane walker", has both numbers).
CFLAGS = ("-O0", "-shared", "-fPIC")

#: Seconds a build may take before it counts as failed.
BUILD_TIMEOUT_S = 300

_u64p = ctypes.c_void_p


class Library:
    """A built library loaded into this process: its :attr:`path` and the
    table of function pointers it exports as ``rescue_kernel`` (every
    other function of a kernel's source is ``static``)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._dll = ctypes.CDLL(path)
        ctypes.c_char.in_dll(self._dll, "rescue_kernel")  # else ValueError

    def exports(self, table: type[ctypes.Structure]) -> ctypes.Structure:
        return table.in_dll(self._dll, "rescue_kernel")


class _LaneExports(ctypes.Structure):
    _fields_ = [
        ("step", ctypes.CFUNCTYPE(None, _u64p, _u64p, _u64p, _u64p)),
        ("walk", ctypes.CFUNCTYPE(ctypes.c_int64, ctypes.c_char_p,
                                  ctypes.c_int64, ctypes.c_int64,
                                  ctypes.c_void_p, ctypes.c_int64,
                                  ctypes.c_int64, _u64p)),
        ("golden", ctypes.CFUNCTYPE(None, ctypes.c_char_p, ctypes.c_int64,
                                    ctypes.c_char_p, _u64p))]


class LaneWalker:
    """A loaded lane walker of a design with ``n_in`` inputs, ``n_out``
    outputs and ``n_flops`` flops: :meth:`walk`, :meth:`golden`, and
    :attr:`step` — ``step(pis, state, po, nxt)`` over ``uint64_t``
    arrays, one clock of one 64-lane block (what both call; exposed for
    the tests).  The buffers C reads are checked against that shape
    first."""

    def __init__(self, lib: Library, n_in: int, n_out: int,
                 n_flops: int) -> None:
        self.path = lib.path
        exports = lib.exports(_LaneExports)
        self.step, self._walk = exports.step, exports.walk
        self._golden = exports.golden
        self.n_in, self.n_flops = n_in, n_flops
        self.n_rows = n_in + n_out + n_flops

    def walk(self, gold: bytes, n_cycles: int, triples: array, start: int,
             n_live: int) -> tuple[int, int, int]:
        """The skewed walk of ``n_live`` lanes (argument layout:
        :data:`repro.sim.compiled._C_WALKER`): ``triples`` is an
        ``array("q")`` of flat ``(cycle, flop index, lane)`` triples,
        one per flip, that C reads in place.  Returns ``(fail, latent,
        steps)``; raises :class:`ValueError` on a triple whose lane is
        outside ``[0, n_live)`` or whose flop is not one of the
        design's (a cycle outside the workload only never fires)."""
        if triples.typecode != "q" or len(triples) % 3:
            raise ValueError("flip triples must be an array('q') of "
                             "(cycle, flop, lane) triples")
        if len(gold) != (n_cycles + 1) * self.n_rows:
            raise ValueError(f"golden table of {len(gold)} bytes for "
                             f"{n_cycles} cycles of {self.n_rows} rows")
        size = 8 * ((n_live + 63) >> 6)
        out = ctypes.create_string_buffer(2 * size)
        steps = self._walk(gold, n_cycles, len(triples) // 3,
                           triples.buffer_info()[0], start, n_live, out)
        if steps == -1:
            raise MemoryError("native lane walker: out of memory")
        if steps < 0:
            at = 3 * (-2 - steps)
            raise ValueError(f"flip triple (cycle, flop, lane) = "
                             f"{tuple(triples[at:at + 3])} names a lane "
                             f"outside [0, {n_live}) or an unknown flop")
        raw = out.raw
        return (int.from_bytes(raw[:size], "little"),
                int.from_bytes(raw[size:], "little"), steps)

    def golden(self, stim: bytes, n_cycles: int, init: bytes) -> bytes:
        """The golden pass over ``n_cycles`` of ``stim`` (one byte, 0 or
        1, per input per cycle) from the flop ``init`` bytes: the golden
        table the walk reads, one byte per row per cycle plus the
        final-state row (layout: :data:`repro.sim.compiled._C_WALKER`)."""
        if len(stim) != n_cycles * self.n_in or len(init) != self.n_flops:
            raise ValueError(f"{len(stim)} stimulus and {len(init)} init "
                             f"bytes for {n_cycles} cycles of {self.n_in} "
                             f"inputs and {self.n_flops} flops")
        out = ctypes.create_string_buffer((n_cycles + 1) * self.n_rows)
        self._golden(stim, n_cycles, init, out)
        return out.raw


class _RootExports(ctypes.Structure):
    _fields_ = [
        ("walk", ctypes.CFUNCTYPE(
            ctypes.c_int64, ctypes.c_char_p, ctypes.c_char_p,
            ctypes.c_int64, ctypes.c_uint64, ctypes.c_int64, _u64p, _u64p)),
        ("sweep", ctypes.CFUNCTYPE(
            ctypes.c_int64, ctypes.c_char_p, ctypes.c_char_p,
            ctypes.c_int64, ctypes.c_uint64, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p,
            ctypes.POINTER(ctypes.c_int64))),
        ("table", ctypes.CFUNCTYPE(
            ctypes.c_int64, ctypes.c_int64, *(ctypes.c_void_p,) * 3,
            *(ctypes.c_int64, ctypes.c_void_p) * 3, ctypes.c_void_p))]


class RootWalker:
    """A loaded root walk: :meth:`table` builds a design's flat table,
    :meth:`sweep` for the PPSFP sweep answers a list of faults in one
    call, walking the roots it needs on the way, and :meth:`effects` for
    the slicing backend reads one word per observed net of one walk.
    All three release the GIL: a walk keeps all its scratch to itself,
    and a sweep publishes each row of the window's memo before the row's
    flag, so threads may run on one window at once."""

    def __init__(self, lib: Library) -> None:
        self.path = lib.path
        exports = lib.exports(_RootExports)
        self._walk, self._sweep, self._table = (exports.walk, exports.sweep,
                                                exports.table)

    def table(self, opcodes: array, offsets: array, inputs: array,
              observed: array, outputs: array, flop_ds: array) -> bytes:
        """The flat table both walks read, built from a circuit's
        numbered structure (argument layout: :data:`repro.sim.fault_sim
        ._C_ROOT_WALK`): int32 arrays of the opcode per net, the
        gate-input CSR's offsets (one per net and one more) and inputs,
        the observed nets, the primary outputs and the flop Ds."""
        n = len(opcodes)
        arrays = (opcodes, offsets, inputs, observed, outputs, flop_ds)
        if not (all(a.typecode == "i" for a in arrays)
                and len(offsets) == n + 1
                and len(inputs) == offsets[n]):
            raise ValueError("table columns must be int32 arrays, with "
                             "one offset per net and one more")
        out = ctypes.create_string_buffer(
            4 * (9 + 7 * n + 3 * len(inputs) + len(observed)))
        size = self._table(
            n, *(a.buffer_info()[0] for a in arrays[:3]),
            *(x for a in arrays[3:] for x in (len(a), a.buffer_info()[0])),
            out)
        if size == -1:
            raise MemoryError("native walk table: out of memory")
        if size < 0:
            raise ValueError("table columns name a net outside [0, "
                             f"{n}) or hold offsets that do not rise "
                             "from 0")
        return ctypes.string_at(out, 4 * size)

    @staticmethod
    def memo(n_nets: int, n_words: int) -> tuple:
        """A window's empty observability memo for :meth:`sweep`: a row
        of ``n_words`` words and a known flag per net, all zero."""
        return (ctypes.create_string_buffer(8 * n_words * n_nets),
                ctypes.create_string_buffer(n_nets))

    def sweep(self, table: bytes, good: bytes, n_words: int, last: int,
              memo: tuple, site: array, at: array, value: array,
              bounds: array) -> tuple[list[int], int, int]:
        """The detection words of one window for the faults given as the
        int32 columns ``site``, ``at`` and ``value``, on the window's
        ``memo`` (argument layout: :data:`repro.sim.fault_sim
        ._C_ROOT_WALK`); ``bounds`` is an ``array("q")`` of the window's
        batch starts and its width, empty for no dropping.  Returns one
        word per fault, the number of root walks the memo's misses cost
        and the gates those walks evaluated."""
        n = len(site)
        if not n:
            return [], 0, 0
        if not (len(at) == len(value) == n and site.typecode == at.typecode
                == value.typecode == "i" and bounds.typecode == "q"):
            raise ValueError("fault columns must be three int32 arrays "
                             "of one length and bounds an array('q')")
        out = ctypes.create_string_buffer(8 * n_words * n)
        evaluated = ctypes.c_int64()
        walks = self._sweep(table, good, n_words, last, *memo, n,
                            site.buffer_info()[0], at.buffer_info()[0],
                            value.buffer_info()[0], len(bounds),
                            bounds.buffer_info()[0], out,
                            ctypes.byref(evaluated))
        if walks < 0:
            raise MemoryError("native PPSFP sweep: out of memory")
        return _words(out, n_words), walks, evaluated.value

    def effects(self, table: bytes, good: bytes, n_words: int, last: int,
                root: int) -> list[int]:
        """The same walk, read per observed net: for each of the table's
        observed nets, in order, the patterns in which the flip of
        ``root`` reaches it."""
        n_obs = array("i", table[:12])[2]  # the header sizes the rows
        out = ctypes.create_string_buffer(8 * n_words * n_obs)
        if self._walk(table, good, n_words, last, root, None, out) < 0:
            raise MemoryError("native root walk: out of memory")
        return _words(out, n_words)


def _words(out: ctypes.Array, n_words: int) -> list[int]:
    """The buffer ``out`` read in place as rows of ``n_words``
    little-endian words, one int per row."""
    raw = memoryview(out).cast("B")
    if n_words == 1:
        words = array("Q")
        words.frombytes(raw)
        return words.tolist()
    size = 8 * n_words
    return [int.from_bytes(raw[at:at + size], "little")
            for at in range(0, len(raw), size)]


class _Unavailable(Exception):
    """Why this process runs the Python references."""


#: Libraries loaded (or failed) in this process, by source: a kernel
#: asked for again — the PPSFP root walk, once per pattern window — is a
#: dict read, with no compiler search, hashing or cache-directory check.
_loaded: dict[str, Library | None] = {}
_warned = False


def compiler() -> str | None:
    """The host C compiler a kernel is built with, or ``None``."""
    return shutil.which("gcc") or shutil.which("cc")


def cache_dir() -> str:
    """This user's library cache, created ``0o700`` if missing; raises
    :class:`OSError` when it cannot be created or is not the user's."""
    base = os.environ.get("XDG_CACHE_HOME")
    home = os.path.expanduser("~")
    if base:
        path = os.path.join(base, "repro-native")
    elif home != "~":
        path = os.path.join(home, ".cache", "repro-native")
    else:
        path = os.path.join(tempfile.gettempdir(),
                            f"repro-native-{os.getuid()}")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"refusing cache dir {path}: not owned by "
                              f"this user, or writable by others")
    return path


def library_path(cc: str, source: str) -> str:
    """Where the library ``cc`` builds from ``source`` is cached."""
    key = hashlib.sha256("\0".join((cc, *CFLAGS, source)).encode())
    return os.path.join(cache_dir(), key.hexdigest()[:32] + ".so")


def _build(cc: str, source: str, path: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([cc, *CFLAGS, "-x", "c", "-", "-o", tmp],
                              input=source, capture_output=True, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode:
            raise _Unavailable(f"{cc} exited {done.returncode}: "
                               f"{done.stderr.strip()[-400:]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(source: str) -> Library | None:
    """The library of ``source``: loaded from this process, else from the
    disk cache, else built into it.  ``None`` — with one logged warning
    per process, whichever kernel asked first — when it cannot be had;
    a process asks the compiler and the disk once per source."""
    global _warned
    if source in _loaded:
        return _loaded[source]
    try:
        cc = compiler()
        if cc is None:
            raise _Unavailable("no C compiler (gcc or cc) on PATH")
        path = library_path(cc, source)
        if not os.path.exists(path):
            _build(cc, source, path)
        lib = Library(path)
    except (_Unavailable, OSError, ValueError,
            subprocess.SubprocessError) as exc:
        if not _warned:
            _warned = True
            log.warning("native kernels unavailable, their Python "
                        "references run instead: %s", exc)
        lib = None
    _loaded[source] = lib
    return lib
