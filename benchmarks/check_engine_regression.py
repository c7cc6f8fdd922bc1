"""CI regression gate over BENCH_engine.json.

Reads the record written by ``bench_engine_smoke.py`` and fails (exit 1)
when the engine's perf claims regress:

* a ported workload's scaling sweep is missing from the record (every
  workload on the engine must keep its outcome-identity row);
* any executor cell produced non-identical campaign outcomes;
* the PPSFP fast path lost its >= 2x speedup or its losslessness;
* lane packing lost outcome identity at any width (unconditional), or
  the packed SEU path fell below 3x over per-point on the smoke
  workload (the headline target is >= 5x; 3x is the regression floor);
* the persistent worker pool changed campaign outcomes vs fresh pools;
* the compiled simulation core lost interpreter identity on any path
  (unconditional), or its warm PPSFP speedup fell below the 2x CI floor,
  or the compiled packed-SEU path lost identity or fell below 2x.  (The
  PPSFP floor was 3x while the dictionary sweep walked every fault once
  per 16-pattern batch.  Pattern windows make the sweep's 12 batches
  one 192-bit word and one walk per fault, which sped up *both* rows —
  interpreted 1.36 s -> 0.13 s, compiled warm 0.23 s -> 0.036 s on the
  recording host — but the interpreted denominator more, because what
  is left of a warm compiled sweep is per-fault fixed cost: program
  lookup, result bookkeeping, ~9 us a fault.  The ratio reads 5.9-6.2x
  -> 3.1-5.3x (seven runs) with no row slower, and the floor was
  re-derived from the new rows with the old floor's margin);
* pattern shipping stopped engaging on an over-threshold payload,
  stopped shrinking the pickled backend, or changed campaign outcomes;
* the vector tier lost per-point identity at any lane width or backing
  (unconditional), or the 256-lane vector SEU campaign fell below
  1.25x over the packed-64 compiled path, or source interning stopped
  deduplicating det-program sources.  (The floor was 2x while both
  rows ran every cycle from the first flip to the end of the workload.
  The busy-window walker sped up the *denominator*: the packed-64
  chunks of this flop-major campaign settle and exit early, 59.0k ->
  82.2k injections/s on the recording host, while a 256-lane chunk
  flips in every cycle and runs full length as before, 119.5k ->
  125.5k injections/s — so the ratio reads 2.0-2.8x -> 1.5-1.65x over
  three runs each with no row slower, and the floor was re-derived
  from the new rows with the old floor's margin);
* the SoA kernel tier lost identity — between the int and SoA backings
  at any lane width, or against the per-point ``inject_seu`` probe —
  (unconditional), or fusion stopped working (fused numpy ops no longer
  a small fraction of the gate count), or SoA at 1024 lanes fell below
  the 2x-over-int floor, or SoA at 4096 lanes dropped below parity
  with int;
* kill-and-resume no longer reproduces the uninterrupted campaign
  byte-for-byte (unconditional), a persistently-failing chunk stopped
  being quarantined cleanly, or the armed fault-tolerance machinery
  costs more than 5% on a no-fault run;
* the campaign service lost report identity — a 4-worker run with one
  worker SIGKILLed mid-campaign must reproduce the serial reference
  byte-for-byte (unconditional) — or the lease/heartbeat machinery
  costs more than 5% over a direct single-worker engine run;
* on a multicore host, the process executor at 4 workers is slower than
  serial on the SEU workload; on hosts with >= 4 CPUs the >= 2x
  speedup target is enforced outright (a record produced on such a
  host arms the gate automatically).  On a single-CPU host the
  comparison only measures spawn overhead, so it is reported but not
  enforced.

Usage: ``python benchmarks/check_engine_regression.py [record.json]``
"""

import json
import sys
from pathlib import Path

DEFAULT_RECORD = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Workloads whose executor sweep (and outcome identity) CI insists on.
PORTED_WORKLOADS = ("seu", "ppsfp_statistical", "rsn_diagnosis",
                    "gpgpu_seu")


def check(record: dict) -> list[str]:
    failures: list[str] = []

    ppsfp = record["ppsfp_fast_path"]
    if not ppsfp["coverage_identical"]:
        failures.append("ppsfp fast path is no longer lossless")
    if ppsfp["speedup"] < 2.0:
        failures.append(
            f"ppsfp fast path speedup {ppsfp['speedup']}x fell below 2x")

    dispatch = record.get("eval_gate_dispatch")
    if dispatch and dispatch["speedup"] < 0.9:
        failures.append(
            f"eval_gate dispatch {dispatch['speedup']}x is a regression "
            "vs the if/elif chain")

    lanes = record.get("lane_packing")
    if lanes is None:
        failures.append("lane_packing rows missing from the bench record")
    else:
        for workload in ("seu", "slicing"):
            data = lanes.get(workload)
            if data is None:
                failures.append(f"lane_packing {workload} rows missing")
                continue
            if not data["outcome_identical"]:
                failures.append(
                    f"lane packing is no longer lossless on {workload}")
        seu_lanes = lanes.get("seu")
        if seu_lanes and seu_lanes["packed_speedup"] < 3.0:
            failures.append(
                f"packed SEU speedup {seu_lanes['packed_speedup']}x fell "
                "below the 3x floor (target >= 5x)")

    pool = record.get("persistent_pool")
    if pool is None:
        failures.append("persistent_pool rows missing from the bench record")
    elif not pool["outcome_identical"]:
        failures.append("persistent pool changed campaign outcomes")

    csim = record.get("compiled_sim")
    if csim is None:
        failures.append("compiled_sim rows missing from the bench record")
    else:
        for path in ("ppsfp", "seu"):
            data = csim.get(path)
            if data is None:
                failures.append(f"compiled_sim {path} rows missing")
            elif not data["outcome_identical"]:
                failures.append(
                    f"compiled {path} path is no longer interpreter-"
                    "identical")
        ppsfp_c = csim.get("ppsfp")
        if ppsfp_c and ppsfp_c["warm_speedup"] < 2.0:
            failures.append(
                f"compiled PPSFP warm speedup {ppsfp_c['warm_speedup']}x "
                "fell below the 2x floor")
        seu_c = csim.get("seu")
        if seu_c and seu_c["speedup"] < 2.0:
            failures.append(
                f"compiled packed-SEU speedup {seu_c['speedup']}x fell "
                "below the 2x floor (target >= 3x)")

    ship = record.get("pattern_shipping")
    if ship is None:
        failures.append("pattern_shipping rows missing from the bench record")
    else:
        if not ship["shipped"]:
            failures.append(
                "pattern payload above the threshold was not shipped")
        if not ship["outcome_identical"]:
            failures.append("pattern shipping changed campaign outcomes")
        if ship["backend_shipped_bytes"] >= ship["backend_inline_bytes"]:
            failures.append(
                "shipped backend payload is not smaller than inline")

    vcore = record.get("vector_core")
    if vcore is None:
        failures.append("vector_core rows missing from the bench record")
    else:
        for key, row in vcore["grid"].items():
            if not row["identical_vs_per_point"]:
                failures.append(
                    f"vector core {key} ({row['backing']}) is no longer "
                    "identical to the per-point reference")
        if vcore["vector_speedup_256"] < 1.25:
            failures.append(
                f"vector SEU at 256 lanes {vcore['vector_speedup_256']}x "
                "fell below the 1.25x-over-packed floor")
        intern = vcore["interning"]
        if intern["unique_sources"] >= intern["compiled_sites"]:
            failures.append(
                "source interning is no longer deduplicating det-program "
                f"sources ({intern['unique_sources']} sources for "
                f"{intern['compiled_sites']} sites)")

    soa = record.get("soa_core")
    if soa is None:
        failures.append("soa_core rows missing from the bench record")
    elif "skipped" not in soa:
        for key, row in soa["grid"].items():
            if not row["identical"]:
                failures.append(
                    f"soa core {key}: int and soa backings disagree on "
                    "outcomes")
        if not soa["probe_identical_vs_inject_seu"]:
            failures.append(
                "soa core no longer matches the per-point inject_seu probe")
        if soa["fused_ops"] * 4 > soa["gates"]:
            failures.append(
                f"soa fusion degraded: {soa['fused_ops']} numpy calls for "
                f"{soa['gates']} gates (floor: 4 gates per call)")
        if soa["soa_speedup_1024"] < 2.0:
            failures.append(
                f"soa speedup at 1024 lanes {soa['soa_speedup_1024']}x "
                "fell below the 2x-over-int floor (target >= 2x)")
        if soa["soa_speedup_4096"] < 1.0:
            failures.append(
                f"soa speedup at 4096 lanes {soa['soa_speedup_4096']}x "
                "regressed below parity with the int backing")

    res = record.get("resilience")
    if res is None:
        failures.append("resilience rows missing from the bench record")
    else:
        if not res["resume_identical"]:
            failures.append(
                "kill-and-resume no longer reproduces the uninterrupted "
                "campaign byte-for-byte")
        if not res["quarantine_ok"]:
            failures.append(
                "persistent chunk failure is no longer quarantined cleanly")
        if res["retry_overhead"] > 1.05:
            failures.append(
                f"armed fault-tolerance machinery costs "
                f"{res['retry_overhead']}x on a no-fault run "
                "(floor 1.05x)")

    svc = record.get("service_resilience")
    if svc is None:
        failures.append(
            "service_resilience rows missing from the bench record")
    else:
        if not svc["report_identical"]:
            failures.append(
                "campaign service (4 workers, one SIGKILLed) no longer "
                "reproduces the serial report byte-for-byte")
        if svc["takeovers"] < 1:
            failures.append(
                "service SIGKILL scenario saw no lease takeover — the "
                "dead worker's chunk was never reassigned")
        if svc["lease_overhead"] > 1.05:
            failures.append(
                f"service lease/heartbeat machinery costs "
                f"{svc['lease_overhead']}x over a direct single-worker "
                "run (floor 1.05x)")

    scaling = record["executor_scaling"]
    for workload in PORTED_WORKLOADS:
        if workload not in scaling:
            failures.append(
                f"{workload}: scaling sweep missing from the bench record")
    for workload, data in scaling.items():
        if not data["outcome_identical"]:
            failures.append(
                f"{workload}: executors disagreed on campaign outcomes")

    seu = scaling["seu"]
    process_x4 = seu["grid"]["process_x4"]["injections_per_s"]
    serial = seu["grid"]["serial_x1"]["injections_per_s"]
    cpus = record.get("host_cpus", 1)
    if cpus >= 2 and process_x4 < serial:
        failures.append(
            f"SEU process_x4 ({process_x4} inj/s) is slower than serial "
            f"({serial} inj/s) on a {cpus}-CPU host")
    if cpus >= 4 and seu["process_x4_speedup"] < 2.0:
        failures.append(
            f"SEU process_x4 speedup {seu['process_x4_speedup']}x is below "
            f"the 2x target on a {cpus}-CPU host")
    if cpus < 2:
        print(f"note: single-CPU host, skipping process-vs-serial gate "
              f"(process_x4 {process_x4} vs serial {serial} inj/s)")
    return failures


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_RECORD
    record = json.loads(path.read_text())
    failures = check(record)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    seu = record["executor_scaling"]["seu"]
    lanes = record["lane_packing"]["seu"]
    csim = record["compiled_sim"]
    vcore = record["vector_core"]
    soa = record["soa_core"]
    soa_note = (f"soa x1024 {soa['soa_speedup_1024']}x"
                if "grid" in soa else "soa skipped")
    res = record["resilience"]
    svc = record["service_resilience"]
    print(f"engine perf gate OK (host_cpus={record.get('host_cpus')}, "
          f"seu process_x4 speedup {seu['process_x4_speedup']}x, "
          f"packed seu {lanes['packed_speedup']}x, "
          f"compiled ppsfp warm {csim['ppsfp']['warm_speedup']}x / "
          f"seu {csim['seu']['speedup']}x, "
          f"vector seu x256 {vcore['vector_speedup_256']}x / "
          f"x1024 {vcore['vector_speedup_1024']}x, "
          f"{soa_note}, "
          f"resume identical, retry overhead {res['retry_overhead']}x, "
          f"service identical with {svc['takeovers']} takeover(s), "
          f"lease overhead {svc['lease_overhead']}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
