"""Shared test markers."""

import pytest

from repro.sim import compiled

#: Tests that assert compiled programs themselves (their caches,
#: pickling, invalidation, SoA schedules, the carrier resolved with
#: compilation on) skip under ``RESCUE_NO_COMPILE``; everything else in
#: the suite runs on the reference interpreter unchanged.
needs_compiled = pytest.mark.skipif(
    not compiled.compilation_enabled(),
    reason="asserts compiled programs (RESCUE_NO_COMPILE is set)")
