"""The cycle-packed slicing injection kernel and its filter.

``SlicingBackend`` at ``lane_width > 1`` evaluates a fault once per
window of golden cycles packed side by side and reads every point's
injection-cycle verdict off the resulting words.  The reference is the
per-point ``safety.slicing._simulate_injection``; this module holds the
kernel-level identity against it (``run_batch`` on every chunk shape,
point by point, and the filter's tags and losslessness), the work
counts the packing promises (no timers), and the rejection of injection
cycles outside the workload.  Whole slicing campaigns, at every lane
width, executor and path, are ``tests/test_oracle.py``'s.

Nothing here asserts which walker or program ran, so the module passes
unchanged under ``RESCUE_NO_COMPILE=1`` (CI runs it both ways).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.circuit import levelize
from repro.circuit.library import random_sequential
from repro.engine import EngineConfig, SlicingBackend, run_campaign
from repro.engine.lanes import lane_groups
from repro.engine.workloads import SKIP_NO_ACTIVATION, SKIP_NO_PATH
from repro.faults.models import Line, StuckAtFault
from repro.faults.universe import all_stuck_at
from repro.safety.slicing import (_golden_states, _simulate_injection,
                                  run_sliced_campaign)
from repro.sim import fault_sim
from repro.soft_error.seu import random_workload

N_CYCLES = 20
WINDOW = 8  # 20 cycles -> windows of 8, 8 and 4


def _site_kinds(circuit) -> dict[str, list[StuckAtFault]]:
    """The stuck-at universe split by what kind of line the site is."""
    kinds: dict[str, list[StuckAtFault]] = {
        "stem": [], "gate_branch": [], "flop_branch": [], "pi": [], "q": []}
    for fault in all_stuck_at(circuit):
        line = fault.line
        if not line.is_stem:
            kind = "flop_branch" if line.sink in circuit.flops \
                else "gate_branch"
        elif line.net in circuit.inputs:
            kind = "pi"
        elif line.net in circuit.flops:
            kind = "q"
        else:
            kind = "stem"
        kinds[kind].append(fault)
    return kinds


def _setup(seed: int, per_kind: int = 4):
    """A small sequential design, a 20-cycle workload and up to
    ``per_kind`` faults of every site kind."""
    circuit = random_sequential(n_inputs=4, n_gates=30, n_flops=5,
                                n_outputs=3, seed=seed)
    rng = random.Random(seed)
    kinds = _site_kinds(circuit)
    faults = [fault for members in kinds.values()
              for fault in rng.sample(members, min(per_kind, len(members)))]
    return circuit, kinds, faults, random_workload(circuit, N_CYCLES,
                                                   seed=seed + 1)


def _small_windows(monkeypatch) -> None:
    monkeypatch.setattr(fault_sim, "WINDOW_BITS", WINDOW)


# ----------------------------------------------------------------------
# identity to the per-point reference
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_packed_cycles_equal_the_per_point_reference(seed):
    circuit, kinds, faults, workload = _setup(seed)
    assume(all(kinds.values()))  # every site kind is in the sample
    states, values = _golden_states(circuit.copy(), workload)
    reference = {
        (fault, cyc): _simulate_injection(circuit, fault, cyc, workload,
                                          values, states)
        for fault in faults for cyc in range(N_CYCLES)}

    with pytest.MonkeyPatch.context() as monkeypatch:
        _small_windows(monkeypatch)
        packed = SlicingBackend(circuit.copy(), faults, workload,
                                use_filter=False, lane_width=64)
        packed.prepare()
        span, windows = packed._windows
        assert span == WINDOW and len(windows) == 3

        # chunk shapes: fault-major (a chunk holds whole faults, so its
        # cycles straddle all three windows), shuffled, a sample, and a
        # chunk that repeats points
        rng = random.Random(seed)
        fault_major = packed.enumerate_points()
        shuffled = rng.sample(fault_major, len(fault_major))
        sampled = rng.sample(fault_major, len(fault_major) // 5)
        repeated = [point for point in sampled[:40] for _ in range(3)]
        for order in (fault_major, shuffled, sampled, repeated):
            for chunk in lane_groups(order, 64):
                got = packed.run_batch(chunk)
                assert [inj.point for inj in got] == chunk
                assert [inj.outcome for inj in got] \
                    == [reference[point] for point in chunk]

        # the filter is lossless row for row, and tags no_path first
        config = EngineConfig(batch_size=64, executor="serial")
        naive = run_campaign(packed, config)
        sliced = run_campaign(
            SlicingBackend(circuit.copy(), faults, workload,
                           use_filter=True, lane_width=64), config)

    def rows(report):
        return {inj.point: (inj.location, inj.cycle, inj.outcome)
                for inj in report.injections + report.skipped}

    assert not naive.skipped
    assert len(rows(naive)) == naive.total == len(reference)
    assert {point: row[2] for point, row in rows(naive).items()} == reference
    outputs = set(circuit.outputs)
    expected_tags = {}
    for fault, cyc in reference:
        net = fault.line.net
        if not levelize.fanout_cone(circuit, [net],
                                    through_flops=True) & outputs:
            expected_tags[fault, cyc] = SKIP_NO_PATH
        elif values[cyc][net] == fault.value:
            expected_tags[fault, cyc] = SKIP_NO_ACTIVATION
    assert {inj.point: inj.detail for inj in sliced.skipped} == expected_tags
    filtered = rows(sliced)
    for point, (location, cyc, outcome) in rows(naive).items():
        if expected_tags.get(point) == SKIP_NO_PATH and outcome == "latent":
            # the rule's known gap, pinned below: it answers "masked"
            outcome = "masked"
        assert filtered[point] == (location, cyc, outcome)


@pytest.mark.xfail(strict=True, reason=(
    "no_path is not lossless on dead state: a site whose cone reaches a "
    "flop but no observable is skipped as masked, while the reference "
    "calls a perturbation that survives to the end of the workload "
    "latent (4 of 75 936 rows on the slicing_filtered benchmark, whose "
    "recorded digests hold the skipped answer; see ROADMAP)"))
def test_no_path_is_lossless_on_dead_state():
    circuit, _kinds, _faults, workload = _setup(seed=1)
    fault = StuckAtFault(Line("n17", "st1", 0), 1)
    point = (fault, N_CYCLES - 1)
    reports = [run_campaign(
        SlicingBackend(circuit.copy(), [fault], workload,
                       cycles=[N_CYCLES - 1], use_filter=use_filter,
                       lane_width=64), EngineConfig(executor="serial"))
        for use_filter in (False, True)]
    naive, sliced = [
        {inj.point: inj.outcome for inj in r.injections + r.skipped}
        for r in reports]
    assert naive == {point: "latent"}
    assert sliced == naive


# ----------------------------------------------------------------------
# work counts (no timer)
# ----------------------------------------------------------------------
class TestWorkCounts:
    @pytest.fixture()
    def setup(self, monkeypatch):
        _small_windows(monkeypatch)
        circuit, _kinds, faults, workload = _setup(seed=5, per_kind=6)
        return circuit, faults, workload

    def test_a_chunk_walks_each_fault_once_per_window(self, setup,
                                                      monkeypatch):
        circuit, faults, workload = setup
        backend = SlicingBackend(circuit, faults, workload, use_filter=False,
                                 lane_width=64)
        backend.prepare()
        walks = []
        real = fault_sim.faulty_values

        def counting(circuit, fault, good, mask):
            walks.append(fault)
            return real(circuit, fault, good, mask)

        monkeypatch.setattr(fault_sim, "faulty_values", counting)
        total = 0
        fault_major = backend.enumerate_points()
        for chunk in lane_groups(fault_major, 64):
            del walks[:]
            backend.run_batch(chunk)
            pairs = {(fault, cyc // WINDOW) for fault, cyc in chunk}
            assert len(walks) <= len(pairs) < len(chunk)
            total += len(walks)
        assert total  # never-activated windows aside, faults were walked
        # and the memo does not outlive the call: the same chunk again
        # walks again instead of growing state on the backend
        again = len(walks)
        del walks[:]
        backend.run_batch(chunk)
        assert len(walks) == again

    @pytest.mark.parametrize("shuffled", (False, True))
    def test_the_filter_sweeps_once_and_describes_each_fault_once(
            self, setup, monkeypatch, shuffled):
        circuit, faults, workload = setup
        backend = SlicingBackend(circuit, faults, workload, use_filter=True,
                                 lane_width=64)
        backend.prepare()
        points = backend.enumerate_points()
        if shuffled:
            random.Random(0).shuffle(points)
        calls = {"cones": 0, "describe": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(levelize, "fanin_cone",
                            counted("cones", levelize.fanin_cone))
        monkeypatch.setattr(levelize, "fanout_cone",
                            counted("cones", levelize.fanout_cone))
        monkeypatch.setattr(StuckAtFault, "describe",
                            counted("describe", StuckAtFault.describe))
        kept, skipped = backend.filter_points(points)
        assert len(kept) + len(skipped) == len(points) and kept and skipped
        assert calls["cones"] == 1
        assert 0 < calls["describe"] <= len(set(faults))


# ----------------------------------------------------------------------
# injection cycles outside the workload
# ----------------------------------------------------------------------
class TestCyclesOutsideTheWorkload:
    @pytest.mark.parametrize("lane_width", (1, 64))
    @pytest.mark.parametrize("use_filter", (False, True))
    @pytest.mark.parametrize("bad", (N_CYCLES, N_CYCLES + 7, -1))
    def test_rejected_at_construction(self, use_filter, lane_width, bad):
        circuit, _kinds, faults, workload = _setup(seed=5)
        with pytest.raises(ValueError, match="cycles outside"):
            SlicingBackend(circuit, faults, workload, cycles=[0, 3, bad],
                           use_filter=use_filter, lane_width=lane_width)
        # the last workload cycle is a valid injection cycle
        SlicingBackend(circuit, faults, workload, cycles=[N_CYCLES - 1],
                       use_filter=use_filter, lane_width=lane_width)

    def test_facade_raises_before_running_anything(self, no_pool):
        circuit, _kinds, faults, workload = _setup(seed=5)
        with pytest.raises(ValueError, match="cycles outside"):
            run_sliced_campaign(circuit, faults, workload,
                                cycles=[N_CYCLES], workers=2,
                                executor="process")

    def test_packed_run_batch_never_reads_past_the_golden_words(self):
        """Points handed straight to ``run_batch`` bypass the
        constructor: the packed path must refuse them, not read a 0 bit
        (= "masked") off the last window's padding."""
        circuit, _kinds, faults, workload = _setup(seed=5)
        backend = SlicingBackend(circuit, faults, workload, use_filter=False,
                                 lane_width=64)
        backend.prepare()
        for bad in (N_CYCLES, -1):
            with pytest.raises(ValueError, match="outside"):
                backend.run_batch([(faults[0], 0), (faults[0], bad)])
