"""The metric vocabulary: names, units, directions and bounds.

``BENCHMARK.json`` carries the same lists (the test suite checks they
agree); later issues claim against these names.  Standard library only.
"""

from __future__ import annotations

#: (name, unit, better, bound): bound = share of the parent's median by
#: which the metric may get worse before it counts as a regression.
#: Every time-derived value is host-normalised (see ``harness.ref_kernel``).
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("campaign_wall_s", "s", "lower", 0.25),
    ("injections_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("db_mb", "MiB", "lower", 0.05),
)

#: (name, unit, better).  A metric reads ``null`` in the full record
#: (``0`` on the contract line) when the layer is not on the workload's
#: path or its probe's entry point no longer exists.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # backend seam (proxy spans; in-process workloads)
    ("engine.backends.enumerate_s", "s", "lower"),
    ("engine.backends.filter_s", "s", "lower"),
    ("engine.backends.filter_skip_fraction", "ratio", "higher"),
    ("engine.backends.prepare_s", "s", "lower"),
    ("engine.backends.run_batch_s", "s", "lower"),
    ("engine.backends.run_batch_calls", "count", "lower"),
    ("engine.backends.us_per_injection", "us", "lower"),
    ("engine.backends.wrap_s", "s", "lower"),
    # database seam (proxy spans) + resume replay
    ("core.campaign.record_many_s", "s", "lower"),
    ("core.campaign.record_chunk_s", "s", "lower"),
    ("core.campaign.record_chunk_calls", "count", "lower"),
    ("core.campaign.commit_s", "s", "lower"),
    ("core.campaign.commits", "count", "lower"),
    ("core.campaign.rows_written", "count", "lower"),
    ("core.campaign.read_s", "s", "lower"),
    # engine
    ("engine.core.replay_s", "s", "lower"),
    ("engine.core.plan_s", "s", "lower"),
    ("engine.core.self_s", "s", "lower"),
    ("engine.core.chunks", "count", "lower"),
    ("engine.core.executed_fraction", "ratio", "lower"),
    ("engine.core.ci_half_width", "ratio", "lower"),
    # lane / compiled-sim probes (serial SEU workloads)
    ("engine.lanes.build_context_s", "s", "lower"),
    ("engine.lanes.first_call_s", "s", "lower"),
    ("engine.lanes.seu_outcomes_s", "s", "lower"),
    ("engine.lanes.propagate_s", "s", "lower"),
    ("engine.lanes.recover_s", "s", "lower"),
    ("engine.lanes.lane_fill", "ratio", "higher"),
    ("engine.lanes.step_evals", "count", "lower"),
    ("sim.compiled.compile_s", "s", "lower"),
    ("sim.compiled.us_per_step", "us", "lower"),
    ("sim.compiled.soa_ns_per_lane_cycle_w256", "ns", "lower"),
    ("sim.compiled.soa_ns_per_lane_cycle_w1024", "ns", "lower"),
    ("sim.compiled.soa_ns_per_lane_cycle_w4096", "ns", "lower"),
    # PPSFP probes
    ("sim.fault_sim.batched_s", "s", "lower"),
    ("sim.fault_sim.interp_s", "s", "lower"),
    ("sim.fault_sim.us_per_fault", "us", "lower"),
    # set-up children
    ("circuit.build_s", "s", "lower"),
    ("faults.collapse_s", "s", "lower"),
    ("sim.patterns_s", "s", "lower"),
    # process executor
    ("engine.executors.payload_bytes", "B", "lower"),
    ("engine.executors.pickle_s", "s", "lower"),
    ("engine.executors.probe_s", "s", "lower"),
    ("engine.executors.cold_pool_penalty_s", "s", "lower"),
    ("engine.executors.speedup_vs_serial", "ratio", "higher"),
    ("engine.executors.efficiency", "ratio", "higher"),
    ("engine.executors.worker_peak_rss_mb", "MiB", "lower"),
    # campaign service
    ("service.queue.submit_s", "s", "lower"),
    ("service.queue.wait_s", "s", "lower"),
    ("service.queue.result_s", "s", "lower"),
    ("service.worker.balance", "ratio", "higher"),
    ("service.leases.takeovers", "count", "lower"),
    ("service.leases.claim_us", "us", "lower"),
    ("service.leases.complete_us", "us", "lower"),
    ("service.speedup_vs_serial", "ratio", "higher"),
    # the harness itself
    ("harness.trace_overhead", "ratio", "lower"),
    ("harness.host_speed", "ratio", "higher"),
)

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
E2E_BOUNDS = {name: bound for name, _, _, bound in END_TO_END}
E2E_BETTER = {name: better for name, _, better, _ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
