"""Tests for lane-packed injection simulation (`repro.engine.lanes`)
and the process pool's per-campaign lifetime.

The load-bearing property is *lane exactness*: a packed campaign
reports what the per-point interpreter does, at every lane width, on
the native and the Python walker, on every executor, with and without
the point-filter stage.  That is ``tests/test_oracle.py``'s property;
the campaign-level tests here pin named configurations of it
(``check``).  This module holds what the oracle cannot see: both
walkers against the full-length interpreter lane by lane, their work
bounds, the retired carrier names and the validation of widths, cycles
and targets.
"""

import glob
import itertools
import json
import logging
import multiprocessing
import os
import random
import subprocess
import sys
import tempfile
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _rows, needs_compiled, needs_native
from repro.circuit import load
from repro.circuit.library import random_sequential
from repro.engine import (
    EngineConfig,
    SeuBackend,
    SlicingBackend,
    run_campaign,
)
from repro.engine import lanes
from repro.engine.workloads import GpgpuSeuBackend
from repro.faults import collapse
from repro.sim import compiled, vector
from repro.soft_error import random_workload
from repro.soft_error.seu import _golden_run, inject_seu
from test_oracle import Config, _inputs, check

WIDTHS = (1, 7, 64)
#: the lane walk in C where the kernel loads, and in Python
WALKERS = ("native", "python")
EXECUTORS = ("serial", "process")
VECTOR_WIDTHS = (65, 192, 1000)
#: the wide campaigns keep the ids of the two carriers they once ran
#: on: the SoA carrier is deleted, so its slot runs the Python walker
#: and the int slot the native one
CARRIER_SLOTS = (pytest.param("native", id="int"),
                 pytest.param("python", id="soa"))

# ----------------------------------------------------------------------
# SEU lane packing
# ----------------------------------------------------------------------
class TestSeuLanes:
    def test_outcomes_identical_across_widths(self):
        for width in WIDTHS:
            check(Config(lane_width=width, batch_size=64, long=True))

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_packed_identical_across_executors(self, executor):
        check(Config(lane_width=64, long=True, executor=executor))

    def test_packed_matches_per_point_with_dead_flop_filter(self):
        check(Config(backend="seu-filter", lane_width=64, batch_size=32,
                     long=True))

    def test_packed_run_matches_inject_seu_directly(self, seq_setup):
        circuit, workload = seq_setup
        backend = SeuBackend(circuit.copy(), workload, lane_width=64)
        backend.prepare()
        points = list(backend.enumerate_points())[:70]  # spans two lanes
        golden = _golden_run(circuit, workload)
        expected = [inject_seu(circuit, workload, flop, cyc, golden)
                    for flop, cyc in points]
        got = [inj.outcome for inj in backend.run_batch(points)]
        assert got == expected

    def test_lane_width_one_uses_per_point_path(self, seq_setup):
        circuit, workload = seq_setup
        backend = SeuBackend(circuit.copy(), workload, lane_width=1)
        backend.prepare()
        assert backend._lane_ctx is None  # no packed context built

    @pytest.mark.parametrize("width", (1, 64))
    def test_out_of_range_cycles_rejected_at_construction(self, seq_setup,
                                                          width):
        # was: the flip never fires, every such point reported "masked"
        # at every width — counted as masked upsets in the failure rate
        from repro.soft_error.seu import run_campaign as seu_campaign

        circuit, workload = seq_setup
        for bad in (-1, len(workload), 999):
            with pytest.raises(ValueError, match="cycles outside"):
                SeuBackend(circuit.copy(), workload, cycles=[0, bad],
                           lane_width=width)
            with pytest.raises(ValueError, match="cycles outside"):
                seu_campaign(circuit.copy(), workload, cycles=[bad],
                             lane_width=width)
        # the last workload cycle is a valid injection cycle
        report = run_campaign(
            SeuBackend(circuit.copy(), workload,
                       cycles=[len(workload) - 1], lane_width=width),
            EngineConfig(executor="serial"))
        assert report.total == len(circuit.flops)

    def test_oversized_group_rejected(self, seq_setup):
        circuit, workload = seq_setup
        ctx = lanes.build_context(circuit, workload, 4)
        points = [(flop, 0) for flop in list(circuit.flops)[:2]] * 3
        with pytest.raises(ValueError, match="exceed lane width"):
            lanes.seu_outcomes(ctx, points)

    @pytest.mark.parametrize("width", (1, 64))
    def test_unknown_target_flop_rejected_at_construction(self, seq_setup,
                                                          width, no_pool):
        # was: KeyError in run_batch -> retries -> the whole chunk
        # quarantined, valid st0 points included, campaign "succeeds"
        from repro.soft_error.seu import run_campaign as seu_campaign

        circuit, workload = seq_setup
        with pytest.raises(ValueError, match="nope"):
            SeuBackend(circuit.copy(), workload, targets=["st0", "nope"],
                       lane_width=width)
        with pytest.raises(ValueError, match="nope"):
            seu_campaign(circuit.copy(), workload, targets=["st0", "nope"],
                         lane_width=width, workers=2, executor="process")
        # the valid subset still runs, and only it
        report = run_campaign(
            SeuBackend(circuit.copy(), workload, targets=["st0"],
                       lane_width=width),
            EngineConfig(executor="serial"))
        assert report.total == len(workload)
        assert {loc for loc, _cyc, _out in _rows(report)} == {"st0"}

    def test_dead_flop_cone_cache_survives_campaigns(self, seq_setup,
                                                     monkeypatch):
        circuit, workload = seq_setup
        backend = SeuBackend(circuit.copy(), workload, skip_dead_flops=True)
        calls = []
        from repro.circuit import levelize

        real = levelize.fanout_cone

        def counting(circuit_, seeds, through_flops=False):
            calls.append(tuple(seeds))
            return real(circuit_, seeds, through_flops=through_flops)

        monkeypatch.setattr(levelize, "fanout_cone", counting)
        first = run_campaign(backend, EngineConfig(executor="serial"))
        n_first = len(calls)
        assert n_first == len(backend.targets)  # one cone per flop
        second = run_campaign(backend, EngineConfig(executor="serial"))
        assert len(calls) == n_first  # cached: no recompute on rerun
        assert _rows(first) == _rows(second)


# ----------------------------------------------------------------------
# widths beyond 64
# ----------------------------------------------------------------------
class TestVectorLanes:
    # the default batch (64) is raised to one chunk per lane width
    @pytest.mark.parametrize("walker", CARRIER_SLOTS)
    @pytest.mark.parametrize("width", VECTOR_WIDTHS)
    def test_seu_identical_to_per_point(self, width, walker):
        check(Config(lane_width=width, walker=walker, batch_size=64,
                     long=True))

    @pytest.mark.parametrize("walker", CARRIER_SLOTS)
    def test_slicing_identical_to_64(self, walker):
        check(Config(backend="slicing", lane_width=192, walker=walker,
                     batch_size=32, long=True))

    def test_property_vector_equals_packed_equals_interpreter(self):
        # the widths the oracle's property does not draw
        for circuit, width, compiling in itertools.product(
                ("rnd1", "rnd2"), (65, 1000), (True, False)):
            check(Config(circuit=circuit, lane_width=width,
                         compiled=compiling, batch_size=64, long=True))

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_wide_lanes_across_executors(self, executor):
        check(Config(lane_width=256, batch_size=64, long=True,
                     executor=executor))

    def test_wide_width_honoured_without_numpy(self, seq_setup, monkeypatch,
                                               caplog):
        # a width means the same campaign on every host: no degradation
        # to 64 lanes, and nothing to warn about
        circuit, workload = seq_setup
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        with caplog.at_level(logging.WARNING, logger="repro"):
            backend = SeuBackend(circuit.copy(), workload, lane_width=1000)
            check(Config(lane_width=1000, batch_size=64, long=True))
        assert backend.lane_width == 1000
        assert not caplog.records

    def test_wide_plan_is_the_same_without_numpy(self):
        # a host without numpy plans the same chunks and fingerprint, so
        # a resume or a service worker there accepts the campaign
        script = (
            "from repro.circuit import load\n"
            "from repro.engine import EngineConfig, SeuBackend, "
            "SlicingBackend\n"
            "from repro.engine.core import plan_campaign\n"
            "from repro.faults import collapse\n"
            "from repro.soft_error import random_workload\n"
            "circuit = load('rand_seq')\n"
            "workload = random_workload(circuit, 20, seed=7)\n"
            "backends = (SeuBackend(circuit.copy(), workload, "
            "lane_width=1000),\n"
            "            SlicingBackend(circuit.copy(), "
            "collapse(circuit)[0][:40], workload, lane_width=1000))\n"
            "found = [[plan.lane_width, len(plan.chunks), plan.fingerprint]\n"
            "         for plan in (plan_campaign(backend, EngineConfig())\n"
            "                      for backend in backends)]\n")
        here = {}
        exec(script, here)
        tests = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join([os.path.join(tests, os.pardir, "src"),
                                os.path.join(tests, "no_numpy")])
        done = subprocess.run(
            [sys.executable, "-c", script + "import json\n"
             "from repro.sim import vector\n"
             "assert not vector.HAVE_NUMPY\n"
             "print(json.dumps(found))\n"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert [width for width, _, _ in here["found"]] == [1000, 1000]
        assert json.loads(done.stdout) == here["found"]

    def test_wide_default_batches_fill_the_lane(self, seq_setup):
        # the engine raises the default batch size to one full lane for
        # vector-tier widths (underfilled wide words waste the tier)
        circuit, workload = seq_setup
        sizes = []
        previous = 0

        def on_chunk(report):
            nonlocal previous
            sizes.append(report.total - previous)
            previous = report.total

        backend = SeuBackend(circuit.copy(), workload, lane_width=128)
        run_campaign(backend, EngineConfig(executor="serial"),
                     on_chunk=on_chunk)
        assert all(size == 128 for size in sizes[:-1])
        # an explicit batch_size is respected
        sizes.clear()
        previous = 0
        backend = SeuBackend(circuit.copy(), workload, lane_width=128)
        run_campaign(backend, EngineConfig(batch_size=32, executor="serial"),
                     on_chunk=on_chunk)
        assert all(size == 32 for size in sizes[:-1])


# ----------------------------------------------------------------------
# one carrier: what is left of its resolver is the retired names
# ----------------------------------------------------------------------
REMOVED_KNOBS = ("RESCUE_VECTOR_BACKING", "RESCUE_SOA_MIN_LANES",
                 "RESCUE_NDARRAY_MIN_LANES", "RESCUE_CALIBRATE_CROSSOVER")


class TestBackingResolver:
    def test_build_context_records_the_resolved_carrier(self, seq_setup):
        # every width runs on the packed-int carrier; the names callers
        # may still pass build that context, any other name is refused
        circuit, workload = seq_setup
        for requested, width in ((None, 1024), ("int", 65), ("soa", 4096)):
            ctx = lanes.build_context(circuit, workload, width,
                                      backing=requested)
            assert (ctx.backing, ctx.width) == ("int", width)
        for bogus in ("bogus", "ndarray"):
            with pytest.raises(ValueError, match="backing"):
                lanes.build_context(circuit, workload, 64, backing=bogus)

    def test_removed_env_knobs_are_never_read(self):
        # a fresh interpreter with every removed knob set to garbage:
        # the import must not raise and wide campaigns still walk on the
        # one carrier
        script = (
            "import json\n"
            "from repro.circuit import load\n"
            "from repro.engine import EngineConfig, SeuBackend, "
            "run_campaign\n"
            "from repro.soft_error import random_workload\n"
            "circuit = load('rand_seq')\n"
            "stimuli = random_workload(circuit, 8, seed=2)\n"
            "found = []\n"
            "for width in (64, 1024):\n"
            "    backend = SeuBackend(circuit, stimuli, lane_width=width)\n"
            "    report = run_campaign(backend, EngineConfig())\n"
            "    found.append([backend._lane_ctx.backing,\n"
            "                  sorted(report.outcomes.items())])\n"
            "print(json.dumps(found))\n")
        env = dict(os.environ, **dict.fromkeys(REMOVED_KNOBS, "garbage"))
        env.pop("RESCUE_NO_COMPILE", None)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        (narrow, outcomes), (wide, wide_outcomes) = json.loads(done.stdout)
        assert narrow == wide == "int" and outcomes == wide_outcomes


class TestBackingValidatedAtConstruction:
    """A carrier named at construction fails where it is given, not in
    a worker's ``prepare()``: ``SeuBackend`` keeps ``lane_backing`` only
    as a retired-name shim that accepts ``None``, and ``SlicingBackend``
    takes no carrier at all."""

    def test_backends_reject_unknown_backing_without_a_pool(self, seq_setup,
                                                            no_pool):
        circuit, workload = seq_setup
        faults, _ = collapse(circuit)
        SeuBackend(circuit.copy(), workload, lane_backing=None)
        for name in ("soa", "int", "bogus"):
            with pytest.raises(ValueError, match="retired"):
                SeuBackend(circuit.copy(), workload, lane_backing=name)
        with pytest.raises(TypeError, match="lane_backing"):
            SlicingBackend(circuit.copy(), faults[:4], workload,
                           lane_backing="soa")


class TestWidthAndCyclesValidatedAtConstruction:
    """A bad lane width or injection cycle is refused in the parent, by
    the backend given it, with a message a user can read."""

    @pytest.mark.parametrize("width", (0, -5, True, False, 2.5, "64",
                                       None))
    def test_backends_reject_bad_lane_widths(self, seq_setup, no_pool,
                                             width):
        # read leniently, 0 / -5 / True select the per-point path and
        # 2.5 a width of 2; every backend refuses them where they are
        # given, with the same rule
        from repro.gpgpu import vector_add_kernel

        circuit, workload = seq_setup
        faults, _ = collapse(circuit)
        with pytest.raises(ValueError, match="lane_width"):
            lanes.check_lane_width(width)
        with pytest.raises(ValueError, match="lane_width"):
            SeuBackend(circuit.copy(), workload, lane_width=width)
        with pytest.raises(ValueError, match="lane_width"):
            SlicingBackend(circuit.copy(), faults[:4], workload,
                           lane_width=width)
        with pytest.raises(ValueError, match="lane_width"):
            GpgpuSeuBackend(vector_add_kernel(), list(range(64)), [],
                            lane_width=width)

    def test_cycle_error_names_a_few_cycles_and_counts_the_rest(
            self, seq_setup):
        circuit, workload = seq_setup
        bad = list(range(len(workload), len(workload) + 3001))
        with pytest.raises(ValueError, match="cycles outside") as err:
            SeuBackend(circuit.copy(), workload, cycles=[0, -1] + bad)
        message = str(err.value)
        assert f"[-1, {len(workload)}, {len(workload) + 1}]" in message
        assert "and 2999 more" in message
        assert len(message) < 120


# ----------------------------------------------------------------------
# the walker: lanes on their own clocks, native and in Python; work bounds
# ----------------------------------------------------------------------
SHAPES = ("first", "last", "tail", "anywhere", "sparse", "ramp", "twice",
          "scattered")


def _random_schedule(rng, circuit, n_cycles, n_lanes, shape, extra=0):
    """A flip schedule in ``propagate``'s format: every lane flips one
    to three flops in one cycle (``twice``: and again later; ``extra``:
    and that many more times, each within three cycles of its first
    flip, possibly the same cycle), lanes in no particular order.
    ``first`` / ``last`` / ``sparse`` put many lanes on one start cycle,
    ``tail`` starts them in the last two cycles (latent at retirement),
    ``anywhere`` also draws cycles outside the workload, ``ramp`` has
    lane *i + 1* start one cycle after lane *i* (the flop-major default
    chunk), ``scattered`` gives every lane of a 64-lane block its own
    start cycle where the workload is long enough (the deepest
    per-block gather)."""
    flops = list(circuit.flops)
    flips = {}
    offset = rng.randrange(n_cycles)

    def flip(lane, cyc):
        per_cycle = flips.setdefault(cyc, {})
        for q in rng.sample(flops, rng.randint(1, min(3, len(flops)))):
            per_cycle[q] = per_cycle.get(q, 0) | (1 << lane)

    for lane in rng.sample(range(n_lanes), n_lanes):
        cyc = {"first": 0, "last": n_cycles - 1,
               "tail": n_cycles - rng.randint(1, 2),
               "anywhere": rng.randrange(-2, n_cycles + 3),
               "sparse": rng.choice((0, n_cycles // 2, n_cycles - 1)),
               "ramp": (offset + lane) % n_cycles,
               "twice": rng.randrange(-1, n_cycles),
               "scattered": (offset + 3 * lane) % n_cycles,
               }[shape]
        flip(lane, cyc)
        if shape == "twice":
            # the next cycle or two (often still undecided), or long
            # after the lane is back on golden, or past the workload
            flip(lane, cyc + rng.choice((1, 2, 5, n_cycles // 2 + 1)))
        for _ in range(extra):
            flip(lane, cyc + rng.randint(0, 3))
    return flips


def _start_of(flips, n_cycles):
    return min((c for c in flips if 0 <= c < n_cycles), default=0)


def _interpreter_reference(circuit, workload, width, flips, n_lanes):
    """The full-length interpreter ``propagate``: no walker involved."""
    with compiled.disabled():
        ctx = lanes.build_context(circuit.copy(), workload, width)
        return lanes.propagate(ctx, flips, _start_of(flips, len(workload)),
                               n_lanes)


def _steps_lane_by_lane(ctx, flips, n_lanes):
    """The decision time of every lane: the steps ``propagate`` runs
    when the schedule carries that lane alone."""
    steps = []
    for lane in range(n_lanes):
        own = {cyc: {q: 1 << lane for q, lane_mask in due.items()
                     if lane_mask >> lane & 1}
               for cyc, due in flips.items()}
        before = ctx.steps_run
        lanes.propagate(ctx, own, _start_of(flips, ctx.n_cycles), n_lanes)
        steps.append(ctx.steps_run - before)
    return steps


def _observable_toy():
    """Three flops with known fates.  ``hold`` recirculates unobserved
    (a flip stays *latent* to the end); ``seen`` reloads from the input
    every cycle and drives the PO (a flip *fails*, then the lane is back
    on the golden state one cycle later); ``blind`` reloads unobserved
    (a flip is *masked* after one cycle)."""
    from repro.circuit.netlist import Circuit

    circuit = Circuit("walker_toy")
    circuit.add_input("a")
    for q in ("hold", "seen", "blind"):
        circuit.add_gate(f"{q}_d", "BUF", ["hold" if q == "hold" else "a"])
        circuit.add_flop(q, f"{q}_d")
    circuit.add_gate("po", "BUF", ["seen"])
    circuit.add_output("po")
    circuit.validate()
    return circuit


def _on_walker(monkeypatch, circuit, walker):
    """Walk ``circuit``'s lanes on ``walker``: ``"python"`` blanks the
    native kernel of its step program (where compilation is on); where
    no kernel loads, both names walk in Python."""
    program = compiled.step_program(circuit)
    if walker == "python" and program is not None:
        monkeypatch.setitem(vars(program), "native", None)


class TestBusyWindow:
    @needs_compiled
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000),
           n_flops=st.sampled_from((1, 2, 7)),
           n_outputs=st.sampled_from((0, 1, 4)),
           n_cycles=st.sampled_from((1, 2, 3, 5, 8, 12, 70)),
           n_lanes=st.sampled_from((1, 5, 64, 65, 100, 130, 200, 1000)),
           shape=st.sampled_from(SHAPES), extra=st.sampled_from((0, 0, 2)))
    def test_property_walkers_equal_full_length_interpreter(
            self, seed, n_flops, n_outputs, n_cycles, n_lanes, shape, extra):
        circuit = random_sequential(n_inputs=3, n_gates=25, n_flops=n_flops,
                                    n_outputs=n_outputs, seed=seed)
        workload = random_workload(circuit, n_cycles, seed=seed + 1)
        flips = _random_schedule(random.Random(seed), circuit, n_cycles,
                                 n_lanes, shape, extra)
        width = max(64, n_lanes)
        expected = _interpreter_reference(circuit, workload, width, flips,
                                          n_lanes)
        start = _start_of(flips, n_cycles)
        fires = any(0 <= cyc < n_cycles for cyc in flips)
        steps = {}
        for walker in WALKERS:
            copy = circuit.copy()
            with pytest.MonkeyPatch.context() as monkeypatch:
                _on_walker(monkeypatch, copy, walker)
                ctx = lanes.build_context(copy, workload, width)
                assert lanes.propagate(ctx, flips, start, n_lanes) \
                    == expected, walker
                # one walk: no longer than the cycles left after its
                # start ...
                assert ctx.steps_run <= (n_cycles - start if fires else 0)
                steps[walker] = ctx.steps_run
                if n_lanes <= 65:  # ... and it lasts as long as its
                    assert steps[walker] == max(  # slowest lane, no longer
                        _steps_lane_by_lane(ctx, flips, n_lanes))
        assert steps["native"] == steps["python"]  # one schedule

    @needs_compiled
    @pytest.mark.parametrize("walker", WALKERS)
    def test_fail_then_reconverge_latent_and_masked(self, monkeypatch,
                                                    walker):
        circuit = _observable_toy()
        workload = [{"a": cyc & 1} for cyc in range(10)]
        # lane 0 fails at cycle 1 and is golden again at cycle 2, lane 1
        # stays latent, lane 2 is masked, lane 3 flips in the last cycle
        flips = {1: {"seen": 0b0001, "hold": 0b0010, "blind": 0b0100},
                 9: {"hold": 0b1000}}
        _on_walker(monkeypatch, circuit, walker)
        ctx = lanes.build_context(circuit, workload, 70)
        assert lanes.propagate(ctx, flips, 1, 4) == (0b0001, 0b1010)
        assert lanes.propagate(ctx, flips, 1, 4) == _interpreter_reference(
            circuit, workload, 70, flips, 4)
        # the latent lane holds either walk to the end of the workload
        assert ctx.steps_run == 2 * 9
        # without it every lane is decided one cycle after its flip, and
        # all lanes flip at step 0: that step is the whole walk
        before = ctx.steps_run
        flips[1].pop("hold")
        assert lanes.propagate(ctx, flips, 1, 4) == (0b0001, 0b1000)
        assert ctx.steps_run - before == 1
        assert _steps_lane_by_lane(ctx, flips, 4) == [1, 0, 1, 1]

    @pytest.mark.parametrize("walker", WALKERS)
    def test_flips_outside_the_workload_never_fire(self, monkeypatch, walker):
        circuit = _observable_toy()
        workload = [{"a": 1}] * 4
        _on_walker(monkeypatch, circuit, walker)
        ctx = lanes.build_context(circuit, workload, 70)
        flips = {-1: {"seen": 1}, 4: {"seen": 2}, 7: {"hold": 4}}
        assert lanes.propagate(ctx, flips, 0, 3) == (0, 0)
        assert ctx.steps_run == 0

    @needs_compiled
    def test_packed64_shaped_campaign_runs_under_15_percent(self):
        # the seu_packed64 shape: flop-major points over 120 cycles in
        # 64-lane chunks, so a chunk is one flop at cycles 0..63 or at
        # 64..119 plus the next flop at 0..7.  On one shared clock that
        # is 64 cycles of flips plus settle time per chunk; with every
        # lane on its own clock it is the chunk's slowest lane
        circuit = random_sequential(n_inputs=8, n_gates=300, n_flops=24,
                                    n_outputs=8, seed=11)
        n_cycles = 120
        workload = random_workload(circuit, n_cycles, seed=5)
        backend = SeuBackend(circuit, workload, lane_width=64)
        backend.prepare()
        ctx = backend._lane_ctx
        alone = lanes.build_context(circuit, workload, 64)
        full_length = 0
        for chunk in lanes.lane_groups(backend.enumerate_points(), 64):
            steps, slowest = ctx.steps_run, 0
            backend.run_batch(chunk)
            for point in chunk:  # each lane's decision time, by itself
                before = alone.steps_run
                lanes.seu_outcomes(alone, [point])
                slowest = max(slowest, alone.steps_run - before)
            assert ctx.steps_run - steps == slowest
            full_length += n_cycles - min(cyc for _flop, cyc in chunk)
        assert ctx.steps_run <= 0.15 * full_length

    @needs_compiled
    @pytest.mark.parametrize("walker", WALKERS)
    def test_flip_every_cycle_pays_no_quiescence_test(self, monkeypatch,
                                                      walker):
        # the slicing_filtered shape, one lane per cycle: a shared clock
        # would have to run the whole workload; the lanes start together
        # and the walk stops with the slowest
        circuit = random_sequential(n_inputs=4, n_gates=40, n_flops=6,
                                    n_outputs=3, seed=3)
        n_cycles, first = 30, 4
        workload = random_workload(circuit, n_cycles, seed=9)
        flops = list(circuit.flops)
        flips = {cyc: {flops[cyc % len(flops)]: 1 << (cyc - first)}
                 for cyc in range(first, n_cycles)}
        _on_walker(monkeypatch, circuit, walker)
        ctx = lanes.build_context(circuit, workload, 128)
        got = lanes.propagate(ctx, flips, first, n_cycles - first)
        assert got == _interpreter_reference(circuit, workload, 128, flips,
                                             n_cycles - first)
        assert ctx.steps_run == 4 < n_cycles - first
        assert max(_steps_lane_by_lane(ctx, flips, n_cycles - first)) == 4

    @needs_compiled
    def test_only_the_blocks_of_the_lanes_present_are_computed(
            self, monkeypatch):
        # a 4096-lane context walking one 200-lane group: both walkers
        # carry the 4 blocks its lanes occupy, not the context's 64
        circuit = load("rand_seq")
        workload = random_workload(circuit, 20, seed=7)
        ctx = lanes.build_context(circuit, workload, 4096)
        points = [(flop, cyc) for cyc in range(20)
                  for flop in circuit.flops][:200]
        program = compiled.step_program(circuit)
        blocks = []
        gather = lanes._skewed_golden
        monkeypatch.setattr(lanes, "_skewed_golden", lambda *args: (
            blocks.append(("python", args[-1])) or gather(*args)))
        kernel = program.native
        if kernel is not None:
            walk = kernel.walk

            def spy(gold, n_cycles, triples, start, n_live):
                # one (cycle, flop, lane) triple per point, and the C
                # walk runs the blocks of its n_live lanes
                assert len(triples) == 3 * len(points)
                assert max(triples[2::3]) < n_live
                blocks.append(("native", vector.blocks_for(n_live)))
                return walk(gold, n_cycles, triples, start, n_live)

            monkeypatch.setattr(kernel, "walk", spy)
        native_got = lanes.seu_outcomes(ctx, points)
        monkeypatch.setitem(vars(program), "native", None)
        assert lanes.seu_outcomes(ctx, points) == native_got
        first = "python" if kernel is None else "native"
        assert blocks == [(first, 4), ("python", 4)]

    @needs_compiled
    def test_campaign_walks_last_as_long_as_their_slowest_lane(
            self, seq_setup, monkeypatch):
        circuit, workload = seq_setup
        walk = lanes.seu_outcomes
        groups = []
        monkeypatch.setattr(lanes, "seu_outcomes", lambda ctx, group: (
            groups.append(group) or walk(ctx, group)))
        for walker in WALKERS:
            backend = SeuBackend(circuit.copy(), workload, lane_width=64)
            _on_walker(monkeypatch, backend.circuit, walker)
            groups.clear()
            run_campaign(backend, EngineConfig(executor="serial"))
            alone = lanes.build_context(backend.circuit, workload, 64)
            slowest = 0
            for group in groups:  # each lane's decision time, by itself
                per_lane = []
                for point in group:
                    before = alone.steps_run
                    walk(alone, [point])
                    per_lane.append(alone.steps_run - before)
                slowest += max(per_lane)
            assert backend._lane_ctx.steps_run == slowest > 0, walker


@pytest.mark.parametrize("n_lanes", (1, 5, 64, 65, 192, 1000))
def test_one_block_walk_needs_no_numpy(monkeypatch, n_lanes):
    # the Python walker gathers its golden words with the standard
    # library at every width: struct splits one block, and past one
    # block the transpose into row words is a stride slice of one
    # array("Q")
    circuit = random_sequential(n_inputs=4, n_gates=60, n_flops=9,
                                n_outputs=3, seed=21)
    workload = random_workload(circuit, 16, seed=4)
    schedules = [_random_schedule(random.Random(n), circuit, 16, n_lanes,
                                  shape) for n, shape in enumerate(SHAPES)]
    points = [(q, cyc) for q in circuit.flops for cyc in range(16)]

    def run(walker):
        walked = circuit.copy()
        _on_walker(monkeypatch, walked, walker)
        ctx = lanes.build_context(walked, workload, max(64, n_lanes))
        return ([lanes.propagate(ctx, flips, _start_of(flips, 16),
                                 n_lanes) for flips in schedules],
                [lanes.seu_outcomes(ctx, group)
                 for group in lanes.lane_groups(points, n_lanes)])

    reference = run("native")
    monkeypatch.setattr(vector, "HAVE_NUMPY", False)
    monkeypatch.setitem(sys.modules, "numpy", None)  # any import raises
    assert run("python") == reference


# ----------------------------------------------------------------------
# the native walker against the Python walker, on one context
# ----------------------------------------------------------------------
def _both_walkers(monkeypatch, circuit, workload, width, flips, n_lanes):
    """``propagate`` by the native walker, then by the Python walker
    with the program's native kernel blanked, on one context:
    ``{walker: (fail, latent, steps)}``."""
    ctx = lanes.build_context(circuit, workload, width)
    program = compiled.step_program(circuit)
    start = _start_of(flips, len(workload))
    got = {}
    for walker in ("native", "python"):
        if walker == "python":
            monkeypatch.setitem(vars(program), "native", None)
        else:
            assert program.native is not None
        before = ctx.steps_run
        fail, latent = lanes.propagate(ctx, flips, start, n_lanes)
        got[walker] = (fail, latent, ctx.steps_run - before)
    return got


def _edge_schedule(circuit, n_cycles, n_lanes):
    """Lanes that start at cycle 0 and at the last cycle side by side in
    every block, a ramp, and lanes that flip twice (two flops at once,
    then another flop two cycles on)."""
    flops = list(circuit.flops)
    flips = {}

    def flip(lane, cyc, q):
        per_cycle = flips.setdefault(cyc, {})
        per_cycle[q] = per_cycle.get(q, 0) | 1 << lane

    for lane in range(n_lanes):
        q = flops[lane % len(flops)]
        kind = lane % 4
        if kind == 3:
            flip(lane, 0, q)
            flip(lane, 0, flops[(lane + 1) % len(flops)])
            flip(lane, min(2, n_cycles - 1), flops[(lane + 2) % len(flops)])
        else:
            flip(lane, (0, n_cycles - 1, lane % n_cycles)[kind], q)
    return flips


@needs_native
@pytest.mark.parametrize("n_cycles", (1, 2, 9))
@pytest.mark.parametrize("width", (
    1, 63, 64, 65, 192))
def test_native_walker_edges(monkeypatch, width, n_cycles):
    circuit = random_sequential(n_inputs=3, n_gates=30, n_flops=5,
                                n_outputs=2, seed=8)
    workload = random_workload(circuit, n_cycles, seed=2)
    flips = _edge_schedule(circuit, n_cycles, width)
    got = _both_walkers(monkeypatch, circuit, workload, width, flips, width)
    assert got["native"] == got["python"]
    assert got["native"][:2] == _interpreter_reference(
        circuit, workload, width, flips, width)
    # no live lane: neither walker takes a step
    assert _both_walkers(monkeypatch, circuit.copy(), workload, width, flips,
                         0) == {"native": (0, 0, 0), "python": (0, 0, 0)}


@needs_native
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10_000),
       n_cycles=st.sampled_from((1, 3, 12, 70)),
       n_lanes=st.sampled_from((1, 5, 64, 65, 130, 200)),
       shape=st.sampled_from(SHAPES), extra=st.sampled_from((0, 1, 2)))
def test_native_walker_equals_python_walker(seed, n_cycles, n_lanes, shape,
                                            extra):
    # through the propagate adapter: one lane flipping several flops, or
    # at several cycles, becomes several triples of that lane
    circuit = random_sequential(n_inputs=3, n_gates=25, n_flops=4,
                                n_outputs=2, seed=seed % 7)
    workload = random_workload(circuit, n_cycles, seed=seed)
    flips = _random_schedule(random.Random(seed), circuit, n_cycles,
                             n_lanes, shape, extra)
    with pytest.MonkeyPatch.context() as monkeypatch:
        got = _both_walkers(monkeypatch, circuit, workload,
                            max(64, n_lanes), flips, n_lanes)
    assert got["native"] == got["python"]


# ----------------------------------------------------------------------
# the flip triples at the C boundary, and the golden pass in C
# ----------------------------------------------------------------------
@needs_native
@pytest.mark.parametrize("n_live", (1, 64, 130))
def test_triples_out_of_bounds_are_refused(n_live):
    # lanes cross into C as indexes: a lane outside [0, n_live) or a flop
    # outside the design is an error on both walkers, never a write past
    # a buffer; a cycle outside the workload only never fires
    circuit = load("rand_seq")
    n_flops = len(circuit.flops)
    ctx = lanes.build_context(circuit, random_workload(circuit, 6, seed=2),
                              max(64, n_live))
    program = compiled.step_program(circuit)
    kernel = program.native
    gold = ctx.golden_table(program, lanes._byte_table)
    good = (2, n_flops - 1, n_live - 1)
    for bad in ((2, 0, -1), (2, 0, n_live), (2, -1, 0), (2, n_flops, 0),
                (-1, n_flops, 0), (6, 0, n_live)):
        triples = array("q", good + bad)
        with pytest.raises(ValueError, match=r"flip triple .* = \(" +
                           ", ".join(map(str, bad))):
            kernel.walk(gold, 6, triples, 0, n_live)
        with pytest.MonkeyPatch.context() as python:
            python.setitem(vars(program), "native", None)
            with pytest.raises(ValueError, match="flip triple"):
                lanes._propagate(ctx, triples, 0, n_live)
    for malformed in (array("i", good), array("q", good[:2])):
        with pytest.raises(ValueError, match="array"):
            kernel.walk(gold, 6, malformed, 0, n_live)
    # and every buffer C reads is sized against the design first
    with pytest.raises(ValueError, match="golden table"):
        kernel.walk(gold, 7, array("q", good), 0, n_live)
    init = bytes(n_flops)
    for stim, flops in ((bytes(len(circuit.inputs)), init[1:]),
                        (bytes(len(circuit.inputs) - 1), init)):
        with pytest.raises(ValueError, match="stimulus"):
            kernel.golden(stim, 1, flops)
    for skipped in ((-1, 0, 0), (6, 0, 0), (99, n_flops - 1, n_live - 1)):
        assert kernel.walk(gold, 6, array("q", skipped), 0, n_live) \
            == (0, 0, 0)
    fail, latent, steps = kernel.walk(gold, 6, array("q", good), 0, n_live)
    assert (fail, latent) == lanes.propagate(
        ctx, {2: {list(circuit.flops)[-1]: 1 << (n_live - 1)}}, 2, n_live)
    assert steps > 0


def _ragged(circuit, n_cycles, seed):
    """Stimuli as callers write them: some inputs left out of some
    cycles (they read 0) and multi-bit values (bit 0 is the stimulus)."""
    rng = random.Random(seed)
    return [{pi: rng.randrange(8) for pi in circuit.inputs
             if rng.random() < 0.7} for _ in range(n_cycles)]


@needs_native
@pytest.mark.parametrize("n_cycles", (0, 1, 23))
@pytest.mark.parametrize("name", ("c17", "s27", "cnt8", "lfsr8", "sr16",
                                  "rand_seq", "no_outputs"))
def test_native_golden_pass_equals_the_python_pass(name, n_cycles):
    circuit = (random_sequential(n_inputs=3, n_gates=30, n_flops=5,
                                 n_outputs=0, seed=4)
               if name == "no_outputs" else load(name))
    for q, flop in list(circuit.flops.items())[1::2]:
        circuit.flops[q] = replace(flop, init=1)  # before any program
    workload = _ragged(circuit, n_cycles, seed=n_cycles)
    program = compiled.step_program(circuit)
    ctx = lanes.build_context(circuit, workload, 64)
    # the walker's table is the C pass's, as it stands
    assert vars(ctx)["_tables"][lanes._byte_table][0] is program
    table = ctx.golden_table(program, lanes._byte_table)
    with pytest.MonkeyPatch.context() as python:
        python.setitem(vars(program), "native", None)
        reference = lanes.build_context(circuit, workload, 64)
        assert "_tables" not in vars(reference)
        assert table == reference.golden_table(program, lanes._byte_table)
    with compiled.disabled():
        interpreted = lanes.build_context(circuit.copy(), workload, 64)
    for other in (reference, interpreted):
        assert (ctx.stimuli, ctx.trace, ctx.states, ctx.final_state) == (
            other.stimuli, other.trace, other.states, other.final_state)
    assert len(table) == (n_cycles + 1) * (
        len(circuit.inputs) + len(circuit.outputs) + len(circuit.flops))


@needs_native
def test_native_campaign_never_builds_the_int_kernel(monkeypatch,
                                                     seq_setup):
    circuit, workload = seq_setup
    backend = SeuBackend(circuit.copy(), workload, lane_width=128)
    report = run_campaign(backend, EngineConfig(executor="serial"))
    program = compiled.step_program(backend.circuit)
    assert program.native is not None and backend._lane_ctx.steps_run > 0
    assert "fn" not in vars(program) and "source" not in vars(program)
    python = SeuBackend(circuit.copy(), workload, lane_width=128)
    _on_walker(monkeypatch, python.circuit, "python")
    assert _rows(run_campaign(python, EngineConfig(executor="serial"))) \
        == _rows(report)
    assert "fn" in vars(compiled.step_program(python.circuit))


def test_lane_codes_wide_match_probe():
    # outcome words unpack into one code byte per lane in one pass per
    # word at every width; the per-lane probe is the reference
    rng = random.Random(3)
    cases = []
    for count in (0, 1, 63, 64, 65, 200, 1024):
        fail = rng.getrandbits(count)
        cases.append((fail, rng.getrandbits(count) & ~fail, count))
        every = (1 << count) - 1
        cases += [(every, 0, count), (0, every, count), (0, 0, count)]
    for fail, latent, count in cases:
        probe = [lanes.FAILURE if (fail >> i) & 1 else
                 lanes.LATENT if (latent >> i) & 1 else lanes.MASKED
                 for i in range(count)]
        assert [lanes.OUTCOMES[code] for code
                in lanes._lane_codes(fail, latent, count)] == probe


def test_golden_table_is_kept_per_layout():
    # one context walked by two walkers holds one table per layout: the
    # second layout asked for must not be handed the first one's table
    circuit = load("s27")
    ctx = lanes.build_context(circuit, random_workload(circuit, 4, seed=1),
                              64)
    program = compiled.StepProgram(circuit)

    def rows(bits):
        return ("rows", bits)

    def count(bits):
        return ("count", len(bits))

    table = ctx.golden_table(program, rows)
    assert table[0] == "rows" and len(table[1]) == 5
    assert ctx.golden_table(program, count) == ("count", 5)
    assert ctx.golden_table(program, rows) is table
    # a rebuilt program (the circuit's cache was invalidated) rebuilds
    assert ctx.golden_table(compiled.StepProgram(circuit), rows) \
        is not table


# ----------------------------------------------------------------------
# slicing lane packing
# ----------------------------------------------------------------------
class TestSlicingLanes:
    @pytest.mark.parametrize("use_filter", (False, True))
    def test_outcomes_identical_across_widths(self, use_filter):
        for width in WIDTHS:
            check(Config(backend="slicing" if use_filter
                         else "slicing-nofilter", lane_width=width,
                         batch_size=32, long=True))

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_packed_identical_across_executors(self, executor):
        check(Config(backend="slicing", lane_width=64, batch_size=32,
                     long=True, executor=executor))

    def test_facades_still_lossless_with_lanes(self):
        from repro.safety.slicing import (run_naive_campaign,
                                          run_sliced_campaign,
                                          verify_equivalence)

        circuit, faults, workload = _inputs("slicing", "rand_seq", long=True)
        circuit = circuit.copy()  # the oracle's workload, not its caches
        naive = run_naive_campaign(circuit, faults, workload,
                                   executor="serial")
        sliced = run_sliced_campaign(circuit, faults, workload,
                                     executor="serial")
        per_point = run_naive_campaign(circuit, faults, workload,
                                       executor="serial", lane_width=1)
        assert verify_equivalence(naive, sliced)
        assert verify_equivalence(naive, per_point)


# ----------------------------------------------------------------------
# GPGPU golden-prefix forking
# ----------------------------------------------------------------------
class TestGpgpuForking:
    def test_outcomes_identical_across_widths(self):
        for width in (1, 8, 64):
            check(Config(backend="gpgpu", circuit="reduction",
                         lane_width=width))

    def test_fork_resumes_bit_exact(self):
        import random

        from repro.gpgpu import reduction_kernel
        from repro.gpgpu.simt import SimtCore

        rng = random.Random(5)
        kernel = reduction_kernel()
        full = SimtCore(kernel)
        for i in range(128):
            full.memory[i] = rng.randrange(256)
        snapshot_inputs = list(full.memory[:128])
        total = full.run()
        for cut in (0, 3, total // 2, total - 1):
            core = SimtCore(kernel)
            for i, v in enumerate(snapshot_inputs):
                core.memory[i] = v
            rr = 0
            if cut:
                core.run(max_issues=cut, rr=rr)
                rr = (core.schedule_trace[-1] + 1) % len(core.warps)
            clone = core.fork()
            clone.run(rr=rr)
            assert clone.memory == full.memory
            # the fork is independent: the original can still advance
            core.run(rr=rr)
            assert core.memory == full.memory

    @pytest.mark.parametrize("bad", [
        {"warp": 99}, {"lane": 99}, {"bit": 99}, {"bit": -1},
        {"at_issue": -4}],
        ids=("warp=99", "lane=99", "bit=99", "bit=-1", "at_issue=-4"))
    def test_out_of_range_transients_rejected_without_a_pool(self, bad,
                                                             no_pool):
        # a transient that never fires used to come back as one masked row
        from repro.gpgpu import PipeRegFault, vector_add_kernel

        fault = PipeRegFault(**{"warp": 0, "lane": 0, "bit": 0,
                                "at_issue": 0, **bad})
        for width in (1, 64):
            with pytest.raises(ValueError, match="outside"):
                run_campaign(
                    GpgpuSeuBackend(vector_add_kernel(), list(range(64)),
                                    [fault], n_warps=2, warp_size=8,
                                    lane_width=width),
                    EngineConfig(workers=2, executor="process"))

    @pytest.mark.parametrize("width", (0, -5))
    def test_lane_width_below_one_rejected(self, width):
        from repro.gpgpu import vector_add_kernel

        with pytest.raises(ValueError, match="lane_width"):
            GpgpuSeuBackend(vector_add_kernel(), list(range(64)), [],
                            lane_width=width)


# ----------------------------------------------------------------------
# the process pool lives for one campaign
# ----------------------------------------------------------------------
def _payload_files():
    return set(glob.glob(os.path.join(tempfile.gettempdir(),
                                      "repro-engine-payload-*")))


class TestPoolLifetime:
    @pytest.mark.parametrize("ending", ("full", "early-stop", "die"))
    def test_pool_ends_with_its_campaign(self, ending):
        """Completed, early-stopped or broken (a worker died: the pool
        breaks and the serial rung finishes), the campaign reports the
        reference with its pool joined and its payload file gone."""
        config = {"full": Config(batch_size=8),
                  "early-stop": Config(batch_size=4, shuffle=True, seed=5,
                                       stop=True),
                  "die": Config(batch_size=8, faults=((20, "die", 1),))}
        # workers an earlier test abandoned on a hung chunk may still run
        children = set(multiprocessing.active_children())
        payloads = _payload_files()
        report = check(replace(config[ending], executor="process"))
        assert set(multiprocessing.active_children()) <= children
        assert _payload_files() <= payloads
        assert report.executor == ("serial" if ending == "die"
                                   else "process")
        assert report.converged == (ending == "early-stop")


# ----------------------------------------------------------------------
# engine lane awareness
# ----------------------------------------------------------------------
class TestLaneAwareChunking:
    def test_chunks_align_down_to_lane_multiples(self, seq_setup):
        circuit, workload = seq_setup
        sizes = []
        backend = SeuBackend(circuit.copy(), workload, lane_width=16)
        previous = 0

        def on_chunk(report):
            nonlocal previous
            sizes.append(report.total - previous)
            previous = report.total

        run_campaign(backend, EngineConfig(batch_size=24, executor="serial"),
                     on_chunk=on_chunk)
        assert all(size == 16 for size in sizes[:-1])  # 24 aligned down

    def test_small_batches_not_inflated(self, seq_setup):
        circuit, workload = seq_setup
        sizes = []
        previous = 0

        def on_chunk(report):
            nonlocal previous
            sizes.append(report.total - previous)
            previous = report.total

        backend = SeuBackend(circuit.copy(), workload, lane_width=64)
        run_campaign(backend, EngineConfig(batch_size=8, executor="serial"),
                     on_chunk=on_chunk)
        assert all(size == 8 for size in sizes[:-1])  # early stop unchanged
