"""Shared test markers and fixtures."""

import pytest

from repro.engine import executors
from repro.sim import compiled

#: Tests that assert compiled programs themselves (their caches,
#: pickling, invalidation, SoA schedules, the carrier resolved with
#: compilation on) skip under ``RESCUE_NO_COMPILE``; everything else in
#: the suite runs on the reference interpreter unchanged.
needs_compiled = pytest.mark.skipif(
    not compiled.compilation_enabled(),
    reason="asserts compiled programs (RESCUE_NO_COMPILE is set)")


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if anything spawns a process pool: for inputs that
    must be rejected in the parent, before any worker could see them."""
    def spawned(*args, **kwargs):
        pytest.fail("a process pool was spawned")

    monkeypatch.setattr(executors, "ProcessPoolExecutor", spawned)
