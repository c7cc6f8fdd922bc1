"""Campaigns at the lane widths the retired SoA carrier served.

The SoA carrier and its kernel are deleted: every width runs on the
packed-int carrier, walked natively (the Python walker as reference and
fallback).  The configurations that once asked for the SoA carrier by
name are pinned here on the carrier that replaced it, and the retired
name still builds that carrier.  Every campaign is held to the
reference by ``tests/test_oracle.py``'s :func:`check`.
"""

import pytest

from repro.engine import SeuBackend
from repro.engine import lanes
from repro.sim import vector
from test_oracle import Config, check

# ----------------------------------------------------------------------
# engine lanes at the widths the SoA carrier served
# ----------------------------------------------------------------------
class TestSoaLanes:
    # the default batch (64) is raised to one chunk per lane width
    @pytest.mark.parametrize("width", (65, 192, 1000, 1024))
    def test_seu_identical_to_per_point(self, seq_setup, width):
        circuit, workload = seq_setup
        ctx = lanes.build_context(circuit.copy(), workload, width,
                                  backing="soa")
        assert (ctx.backing, ctx.width) == ("int", width)
        check(Config(lane_width=width, batch_size=64, long=True))

    def test_transient_dispatch_identical_to_per_point(self):
        # SlicingBackend's packed path goes through transient_outcomes:
        # per-lane state deltas injected mid-stream, propagated shared,
        # on four 64-bit lane words
        check(Config(backend="slicing-nofilter", lane_width=256,
                     batch_size=64, long=True))

    def test_soa_survives_process_pickling(self):
        check(Config(lane_width=192, batch_size=64, long=True,
                     executor="process"))


# ----------------------------------------------------------------------
# no numpy: the width asked for, no divergence
# ----------------------------------------------------------------------
class TestSoaDegradation:
    # the id dates from when a host without numpy degraded wide widths
    # to 64 lanes; now every width runs as asked on every host
    def test_campaign_without_numpy_matches_packed_64(self, seq_setup,
                                                      monkeypatch):
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        circuit, workload = seq_setup
        backend = SeuBackend(circuit.copy(), workload, lane_width=2048)
        assert backend.lane_width == 2048
        check(Config(lane_width=2048, batch_size=64, long=True))
