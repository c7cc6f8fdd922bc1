"""Shared test markers, fixtures and report helpers."""

import os
import shutil
import tempfile

import pytest

from repro.circuit import CircuitBuilder, load
from repro.engine import executors
from repro.sim import compiled, native
from repro.soft_error import random_workload

#: Tests that assert compiled programs themselves (their caches,
#: pickling, invalidation, the walkers' step counts) skip under
#: ``RESCUE_NO_COMPILE``; everything else in the suite runs on the
#: reference interpreter unchanged.
needs_compiled = pytest.mark.skipif(
    not compiled.compilation_enabled(),
    reason="asserts compiled programs (RESCUE_NO_COMPILE is set)")

#: Tests that assert the native walker itself skip where there is no C
#: compiler on ``PATH`` (or compilation is off); everywhere else the lane
#: walk falls back to the Python walker with identical outcomes.
needs_native = pytest.mark.skipif(
    native.compiler() is None or not compiled.compilation_enabled(),
    reason="asserts the native lane walker (no C compiler on PATH)")


_session_cache = pytest.MonkeyPatch()


def pytest_configure(config):
    """One native library cache for the whole session, handed down to
    every process the tests spawn: tests never write to the user's
    cache, and each design builds once per session.  Set when this file
    is loaded, at collection — before any test of the session runs, the
    benchmark self-tests collected beside ``tests/`` included."""
    _session_cache.setenv("XDG_CACHE_HOME",
                          tempfile.mkdtemp(prefix="repro-xdg-cache-"))


def pytest_unconfigure(config):
    path = os.environ["XDG_CACHE_HOME"]
    _session_cache.undo()
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if anything starts a process pool: for inputs that
    must be rejected in the parent, before any worker could see them."""
    def spawned(*args, **kwargs):
        pytest.fail("a process pool was started")

    monkeypatch.setattr(executors, "ProcessPoolExecutor", spawned)


@pytest.fixture(scope="session")
def seq_setup():
    """The sequential campaign the engine tests share: ``rand_seq`` (12
    flops) under a 20-cycle random workload.  Tests copy the circuit
    wherever a cache they build must not leak into the next test."""
    circuit = load("rand_seq")
    return circuit, random_workload(circuit, 20, seed=7)


def dead_flop_circuit():
    """Two flops: ``live_q`` reaches the output ``y``; ``dead_q`` feeds
    only a gate nobody observes (no flop D input, no output), so every
    SEU on it is provably masked — the SEU dead-flop filter's case."""
    bld = CircuitBuilder("deadflop")
    a, b = bld.input("a"), bld.input("b")
    live = bld.flop(bld.xor(a, b), name="live_q")
    bld.output(bld.and_(live, a, name="y"))
    dead = bld.flop(bld.or_(a, b), name="dead_q")
    bld.and_(dead, b, name="dangling")
    return bld.done()


def _rows(report):
    """Every accounted point of a report as a ``(location, cycle,
    outcome)`` row: executed points, then filtered ones."""
    return [inj.row() for inj in report.injections + report.skipped]


def _db_rows(db):
    """Every row of a CampaignDb as ``(location, cycle, outcome)``."""
    return [row[2:] for row in db.rows()]


def _signature(report, details=False):
    """Everything report identity promises: each executed and each
    filtered point with its row (and its ``detail`` when ``details`` is
    set — a replayed chunk does not restore it), outcome counts, total,
    the early-stop decision, every outcome's Wilson interval and the
    quarantined stratum."""
    def rows(injections):
        return [(inj.point,) + inj.row() + ((inj.detail,) if details else ())
                for inj in injections]

    return (rows(report.injections), rows(report.skipped), report.outcomes,
            report.total, report.converged,
            {outcome: report.confidence_interval(outcome)
             for outcome in report.outcomes},
            [(q.index, q.n_points, q.attempts, q.error)
             for q in report.quarantined])
