"""Per-layer attribution of a traced run.

Two sources, both outside ``src/``:

* the spans the seam proxies recorded during the traced passes
  (:func:`_span_layers`), and
* direct, bracketed calls into layer public functions replaying the same
  chunks (the ``_plan`` / ``_replay`` / ``_lanes`` / ... probes).

A probe imports its entry points itself, so one that a later PR removes
turns into ``null`` metrics plus a note (``harness.probe``), never into
a failed benchmark.  All seconds are host-normalised.
"""

from __future__ import annotations

import pickle
import random
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Any, Callable

import harness

from repro.core.campaign import CampaignDb

#: Lane probes replay a seeded quarter of the plan's chunks, at least
#: this many (the ISSUE's 16 scaled with the campaigns).
MIN_PROBE_CHUNKS = 4

#: Share of the executed faults the interpreter PPSFP probe re-runs.
INTERP_SHARE = 8

SCRATCH_LEASES = 2000


def have_numpy() -> bool:
    from repro.sim import vector
    return bool(vector.HAVE_NUMPY)


@dataclass
class ProbeContext:
    workload: Any
    inputs: Any
    site: Any
    untraced: harness.Measurement
    traced: harness.Measurement
    serial_wall: float | None
    notes: list
    plan: Any = None

    @property
    def config(self) -> Any:
        return self.workload.config

    def backend(self, circuit: Any = None) -> Any:
        return self.inputs.backend(circuit if circuit is not None
                                   else self.inputs.circuit.copy())

    @property
    def campaign_wall(self) -> float:
        """Median normalised wall over every pass of this run."""
        return statistics.median(self.untraced.samples
                                 + self.traced.samples)


# ----------------------------------------------------------------------
# spans -> layer metrics
# ----------------------------------------------------------------------
_SPAN_SECONDS = {
    "engine.backends.enumerate_s": "engine.backends.enumerate",
    "engine.backends.filter_s": "engine.backends.filter",
    "engine.backends.prepare_s": "engine.backends.prepare",
    "engine.backends.run_batch_s": "engine.backends.run_batch",
    "core.campaign.record_many_s": "core.campaign.record_many",
    "core.campaign.record_chunk_s": "core.campaign.record_chunk",
    "core.campaign.commit_s": "core.campaign.commit",
    "service.queue.submit_s": "service.queue.submit",
    "service.queue.wait_s": "service.queue.wait",
    "service.queue.result_s": "service.queue.result",
}
_SPAN_CALLS = {
    "engine.backends.run_batch_calls": "engine.backends.run_batch",
    "core.campaign.record_chunk_calls": "core.campaign.record_chunk",
    "core.campaign.commits": "core.campaign.commit",
}


def _span_layers(workload: Any, traced: harness.Measurement) -> dict:
    """Median over the traced passes of each span-derived metric."""
    per_pass: list[dict] = []
    for run, speed in zip(traced.results, traced.speeds):
        spans = run.spans
        row: dict = {}
        for metric, name in _SPAN_SECONDS.items():
            if name in spans:
                row[metric] = spans[name][0] * speed
        for metric, name in _SPAN_CALLS.items():
            if name in spans:
                row[metric] = spans[name][1]
        row["engine.core.executed_fraction"] = run.executed / run.planned
        row["engine.core.ci_half_width"] = run.ci_half_width
        if workload.mode == "inproc":
            # the root's self time: sampling, chunking, accounting fold,
            # stop checks, serial dispatch — everything no seam covers
            row["engine.core.self_s"] = spans[harness.ROOT_SPAN][0] * speed
            row["core.campaign.rows_written"] = run.rows_written
            row["engine.backends.us_per_injection"] = (
                row["engine.backends.run_batch_s"] / run.executed * 1e6)
            if "engine.backends.filter" in spans:
                row["engine.backends.filter_skip_fraction"] = \
                    run.skip_fraction
        if run.worker_chunks:
            row["service.worker.balance"] = (min(run.worker_chunks)
                                             / max(run.worker_chunks))
            row["service.leases.takeovers"] = run.takeovers
        per_pass.append(row)
    return {metric: statistics.median(row[metric] for row in per_pass)
            for metric in per_pass[0]}


# ----------------------------------------------------------------------
# direct probes
# ----------------------------------------------------------------------
def _plan(ctx: ProbeContext) -> dict:
    from repro.engine.core import plan_campaign
    plan_s, ctx.plan = harness.timed_s(plan_campaign, ctx.backend(),
                                       ctx.config)
    return {"engine.core.plan_s": plan_s,
            "engine.core.chunks": len(ctx.plan.chunks)}


def _replay(ctx: ProbeContext) -> dict:
    """``resume_campaign`` of the last traced campaign: every chunk is
    committed, so this is the pure replay path (nothing executes)."""
    from repro.engine import resume_campaign
    tracer = harness.Tracer()
    campaign_id = ctx.traced.results[-1].campaign_id

    def replay() -> harness.Span:
        with CampaignDb(ctx.site.db_path) as db, \
                tracer.span("replay") as root:
            resume_campaign(harness.BackendProxy(ctx.backend(), tracer),
                            campaign_id, ctx.config,
                            db=harness.DbProxy(db, tracer))
        return root

    _, speed, root = harness.timed(replay)
    read = tracer.self_times(root).get("core.campaign.read", (0.0, 0))[0]
    return {"core.campaign.read_s": read * speed,
            "engine.core.replay_s": root.duration * speed}


def _lane_groups(chunk: Any, width: int) -> list[list]:
    """The groups ``lanes.packed_dispatch`` hands the kernel for one
    chunk (collected from the dispatcher itself, nothing classified)."""
    from repro.engine import lanes
    groups: list[list] = []

    def collect(group: list) -> list[None]:
        groups.append(group)
        return [None] * len(group)

    lanes.packed_dispatch(chunk, width, lambda point: point[1], collect)
    return groups


def _seu_flips(points: list, n_cycles: int) -> tuple[dict, int]:
    """The flip schedule ``lanes.seu_outcomes`` hands ``propagate``."""
    flips: dict[int, dict[str, int]] = {}
    start = n_cycles
    for lane, (flop, cyc) in enumerate(points):
        if 0 <= cyc < n_cycles:
            per_cycle = flips.setdefault(cyc, {})
            per_cycle[flop] = per_cycle.get(flop, 0) | (1 << lane)
            start = min(start, cyc)
    return flips, start


def _lanes(ctx: ProbeContext) -> dict:
    from repro.engine import lanes
    circuit = ctx.inputs.circuit.copy()
    stimuli = ctx.inputs.stimuli
    cold, warm = ctx.backend(circuit), ctx.backend(circuit)
    cold_s, _ = harness.timed_s(cold.prepare)
    warm_s, _ = harness.timed_s(warm.prepare)
    width = cold.lane_width
    context_s, lane_ctx = harness.timed_s(
        lanes.build_context, circuit, stimuli, width)
    n_cycles = lane_ctx.n_cycles
    ctx.notes.append(f"lanes: backing={lane_ctx.backing} width={width}")
    # the first packed run of a context builds its raw views lazily; time
    # that once on a one-cycle group so the chunk replay below is steady
    # state (a sampled quarter must not scale a one-off by four)
    tail = [max(ctx.plan.points, key=lambda point: point[1])]

    def first_call() -> float:
        cold.run_batch(tail)  # the backend's own context warms untimed
        start = time.perf_counter()
        lanes.seu_outcomes(lane_ctx, tail)
        mid = time.perf_counter()
        lanes.seu_outcomes(lane_ctx, tail)
        return (mid - start) - (time.perf_counter() - mid)

    _, s_first, first_call_s = harness.timed(first_call)
    chunks = ctx.plan.chunks
    picked = random.Random(ctx.site.seed).sample(
        range(len(chunks)),
        min(len(chunks), max(MIN_PROBE_CHUNKS, len(chunks) // 4)))

    def replay() -> dict[str, float]:
        spent = {"run_batch": 0.0, "outcomes": 0.0, "propagate": 0.0}
        clock = time.perf_counter
        order = 1
        for index in picked:
            chunk = chunks[index]
            start = clock()
            cold.run_batch(chunk)
            spent["run_batch"] += clock() - start
            for group in _lane_groups(chunk, width):
                flips, first = _seu_flips(group, n_cycles)
                # alternate which of the two calls goes first: whatever
                # the first call warms is then charged to both alike
                for call in ("outcomes", "propagate")[::order]:
                    start = clock()
                    if call == "outcomes":
                        lanes.seu_outcomes(lane_ctx, group)
                    elif flips:
                        lanes.propagate(lane_ctx, flips, first, len(group))
                    spent[call] += clock() - start
                order = -order
        return spent

    _, speed, spent = harness.timed(replay)
    executed = sum(len(chunk) for chunk in chunks)
    scale = speed * executed / sum(len(chunks[i]) for i in picked)
    # exact counts over the whole plan (arithmetic only)
    groups = [g for chunk in chunks for g in _lane_groups(chunk, width)]
    step_evals = sum(n_cycles - min(cyc for _, cyc in g) for g in groups)
    outcomes_s = spent["outcomes"] * scale
    propagate_s = spent["propagate"] * scale
    return {
        "sim.compiled.compile_s": cold_s - warm_s,
        "engine.lanes.build_context_s": context_s,
        "engine.lanes.first_call_s": first_call_s * s_first,
        "engine.lanes.seu_outcomes_s": outcomes_s,
        "engine.lanes.propagate_s": propagate_s,
        "engine.lanes.recover_s": outcomes_s - propagate_s,
        "engine.backends.wrap_s": spent["run_batch"] * scale - outcomes_s,
        "engine.lanes.lane_fill": (statistics.mean(len(g) for g in groups)
                                   / width),
        "engine.lanes.step_evals": step_evals,
        "sim.compiled.us_per_step": propagate_s / step_evals * 1e6,
    }


def _soa_widths(ctx: ProbeContext) -> dict:
    """Steady-state ns per lane-cycle of one full SoA group at each
    width (median of three calls on a warmed context)."""
    from repro.engine import lanes
    circuit = ctx.inputs.circuit.copy()
    stimuli = ctx.inputs.stimuli
    points = ctx.plan.points

    def curve() -> dict[int, float]:
        seconds: dict[int, float] = {}
        for width in (256, 1024, 4096):
            lane_ctx = lanes.build_context(circuit, stimuli, width,
                                           backing="soa")
            if lane_ctx.backing != "soa" or len(points) < width:
                continue  # no numpy / compilation off: nothing to time
            group = points[:width]
            cycles = lane_ctx.n_cycles - min(cyc for _, cyc in group)
            lanes.seu_outcomes(lane_ctx, group)  # lazy raw views: untimed
            calls = []
            for _ in range(3):
                start = time.perf_counter()
                lanes.seu_outcomes(lane_ctx, group)
                calls.append(time.perf_counter() - start)
            seconds[width] = statistics.median(calls) / (width * cycles)
        return seconds

    _, speed, seconds = harness.timed(curve)
    return {f"sim.compiled.soa_ns_per_lane_cycle_w{width}":
            value * speed * 1e9 for width, value in seconds.items()}


def _fault_sim(ctx: ProbeContext) -> dict:
    from repro.sim import compiled
    from repro.sim.fault_sim import fault_simulate_batched
    executed = ctx.traced.results[-1].executed
    faults = list(ctx.plan.points[:executed])
    batches = ctx.inputs.stimuli
    batched_s, _ = harness.timed_s(
        fault_simulate_batched, ctx.inputs.circuit.copy(), faults, batches)
    subset = faults[::INTERP_SHARE]

    def interp() -> None:
        with compiled.disabled():
            fault_simulate_batched(ctx.inputs.circuit.copy(), subset,
                                   batches)

    interp_s, _ = harness.timed_s(interp)
    # no engine.backends.wrap_s here: run_batch - batched is the
    # difference of two ~1.5 s walls with ~3 % noise each, around a
    # wrapper that costs ~10 ms
    return {"sim.fault_sim.batched_s": batched_s,
            "sim.fault_sim.interp_s": interp_s * len(faults) / len(subset),
            "sim.fault_sim.us_per_fault": batched_s / len(faults) * 1e6}


def _executors(ctx: ProbeContext) -> dict:
    from repro.engine import run_campaign, shutdown_pools
    from repro.engine.executors import plan_executor
    config = ctx.config
    plan = ctx.plan
    pickle_s, payload = harness.timed_s(
        pickle.dumps, (ctx.backend(), plan.chunks, plan.seeds),
        pickle.HIGHEST_PROTOCOL)
    probe_s, _ = harness.timed_s(
        plan_executor, ctx.backend(), plan.chunks,
        replace(config, executor="auto"), plan.seeds)
    shutdown_pools()
    cold_s, _ = harness.timed_s(run_campaign, ctx.backend(), config)
    warm_s, _ = harness.timed_s(run_campaign, ctx.backend(), config)
    ctx.site.release()  # pools down, workers joined: their rusage is final
    speedup = ctx.serial_wall / ctx.campaign_wall
    return {
        "engine.executors.payload_bytes": len(payload),
        "engine.executors.pickle_s": pickle_s,
        "engine.executors.probe_s": probe_s,
        "engine.executors.cold_pool_penalty_s": cold_s - warm_s,
        "engine.executors.speedup_vs_serial": speedup,
        "engine.executors.efficiency": speedup / max(1, config.workers),
        "engine.executors.worker_peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def _service(ctx: ProbeContext) -> dict:
    """Lease claim / complete cost on one connection, plus the service's
    speed-up over the serial twin."""
    from repro.service import LeaseManager

    def lease_loop() -> tuple[float, float]:
        claim = complete = 0.0
        clock = time.perf_counter
        with tempfile.TemporaryDirectory(dir=ctx.site.work_dir) as tmp, \
                CampaignDb(f"{tmp}/leases.sqlite") as db:
            leases = LeaseManager(db)
            campaign = db.create_campaign("scratch", "-", "-", "-")
            leases.create(campaign, SCRATCH_LEASES)
            for _ in range(SCRATCH_LEASES):
                start = clock()
                lease = leases.claim_next(campaign, "bench", 60.0)
                mid = clock()
                leases.complete(campaign, lease.chunk_index, "bench")
                complete += clock() - mid
                claim += mid - start
        return claim, complete

    _, speed, (claim, complete) = harness.timed(lease_loop)
    return {
        "service.leases.claim_us": claim * speed / SCRATCH_LEASES * 1e6,
        "service.leases.complete_us": (complete * speed
                                       / SCRATCH_LEASES * 1e6),
        "service.speedup_vs_serial": ctx.serial_wall / ctx.campaign_wall,
    }


_FAMILIES: dict[str, Callable[[ProbeContext], dict]] = {
    "lanes": _lanes, "soa_widths": _soa_widths, "fault_sim": _fault_sim,
    "executors": _executors, "service": _service,
}


def collect(workload: Any, inputs: Any, site: Any,
            untraced: harness.Measurement, traced: harness.Measurement,
            serial_wall: float | None,
            setup_samples: list[tuple[float, float]],
            notes: list[str]) -> dict:
    """Every per-layer metric this workload's path crosses."""
    layers = _span_layers(workload, traced)
    # passes alternate untraced / traced, so pass i of each side ran
    # back to back: the paired ratio cancels most host drift
    layers["harness.trace_overhead"] = statistics.median(
        t / u for t, u in zip(traced.samples, untraced.samples)) - 1.0
    layers["harness.host_speed"] = statistics.median(
        untraced.speeds + traced.speeds)
    setup_speed = setup_samples[0][1]  # this process's own set-up
    for name, raw in inputs.setup_layers.items():
        layers[name] = raw * setup_speed
    ctx = ProbeContext(workload, inputs, site, untraced, traced,
                       serial_wall, notes)
    for fn in (_plan, _replay, *(_FAMILIES[name]
                                 for name in workload.probes)):
        layers.update(harness.probe(notes, lambda fn=fn: fn(ctx),
                                    name=fn.__name__))
    return layers
