"""Self-test of the layered campaign benchmark (tier-1, shrunken sizes).

The harness measures the program through two proxies and a set of
probes; these tests pin what makes its numbers trustworthy: proxies do
not change a report, span self-times account for the whole traced wall,
the statistics are the documented ones, a vanished probe entry point is
a ``null`` and not a crash, the emitted names obey the contract, and a
tampered outcome turns into a non-zero exit.
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import metrics  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import table  # noqa: E402

from repro.core.campaign import CampaignDb  # noqa: E402
from repro.engine import EarlyStop, EngineConfig, run_campaign  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

TINY = {
    "seu": table.Workload(
        name="tiny_seu", why="shrunken seu_packed64",
        build=table.seu_inputs(6, 120, 12, design_seed=3, n_cycles=24,
                               lane_width=64),
        config=table.SERIAL, oracle_points=16, probes=("lanes",)),
    "slicing": table.Workload(
        name="tiny_slicing", why="shrunken slicing_filtered",
        build=table.slicing_inputs(6, 80, 8, design_seed=4, n_cycles=12),
        config=table.SERIAL, oracle_points=32),
    "ppsfp": table.Workload(
        name="tiny_ppsfp", why="shrunken ppsfp_stat",
        build=table.ppsfp_inputs(10, 200, design_seed=5, n_batches=4,
                                 batch_patterns=16),
        config=EngineConfig(executor="serial", shuffle=True, batch_size=32,
                            early_stop=EarlyStop("detected", margin=0.05,
                                                 min_injections=64)),
        ci_outcome="detected", oracle_points=32, probes=("fault_sim",)),
}


@pytest.fixture(autouse=True)
def fast_reference_kernel(monkeypatch):
    # the host-speed bracket costs 2 x 50 ms per timed call at full size
    monkeypatch.setattr(harness, "REF_ITERS", 2000)


def _run(workload, tmp_path, trace, seed=1, digests=None):
    inputs = workload.build(seed)
    record, tracer = runner.run_workload(
        workload, inputs, seed, 0.0, trace, tmp_path, [(0.1, 1.0)],
        digests or {})
    return record, tracer


# ----------------------------------------------------------------------
# proxies are transparent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["seu", "slicing", "ppsfp"])
def test_report_with_proxies_equals_report_without(kind, tmp_path):
    workload = TINY[kind]
    inputs = workload.build(1)
    tracer = harness.Tracer()
    reports = []
    for traced in (False, True):
        backend = inputs.backend(inputs.circuit.copy())
        with CampaignDb(tmp_path / f"{traced}.sqlite") as db:
            if traced:
                backend = harness.BackendProxy(backend, tracer)
                db = harness.DbProxy(db, tracer)
            reports.append(run_campaign(backend, workload.config, db=db))
    bare, proxied = reports
    assert [i.row() for i in proxied.injections] == \
        [i.row() for i in bare.injections]
    assert [i.row() for i in proxied.skipped] == \
        [i.row() for i in bare.skipped]
    assert proxied.outcomes == bare.outcomes
    assert proxied.converged == bare.converged
    assert proxied.confidence_interval(workload.ci_outcome) == \
        bare.confidence_interval(workload.ci_outcome)
    assert harness.outcome_digest(proxied, workload.ci_outcome) == \
        harness.outcome_digest(bare, workload.ci_outcome)
    assert tracer.spans, "the proxies recorded nothing"


def test_backend_proxy_exposes_only_what_the_backend_has():
    class Bare:
        name = "bare"

        def run_batch(self, points):
            return list(points)

    proxy = harness.BackendProxy(Bare(), harness.Tracer())
    assert proxy.name == "bare"
    assert proxy.run_batch([1, 2]) == [1, 2]
    assert not hasattr(proxy, "filter_points")  # the engine's probe


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_span_self_times_sum_to_traced_wall(tmp_path):
    record, tracer = _run(TINY["slicing"], tmp_path, trace=True)
    roots = [s for s in tracer.spans
             if s.name == runner.ROOT_SPAN and s.parent is None]
    traced_roots = [r for r in roots if len(tracer.descendants(r)) > 1]
    assert traced_roots
    for root in traced_roots:
        total = sum(sec for sec, _ in tracer.self_times(root).values())
        assert total == pytest.approx(root.duration, rel=1e-9)
    # the reported per-layer seconds of a pass are that decomposition
    layers = record["per_layer"]
    for name in ("engine.backends.filter_s", "engine.backends.run_batch_s",
                 "core.campaign.record_many_s", "core.campaign.commit_s",
                 "engine.core.self_s"):
        assert layers[name]["value"] > 0


def test_tracer_nesting_and_self_time():
    tracer = harness.Tracer(workload="w")
    with tracer.span("root") as root:
        with tracer.span("child"):
            with tracer.span("leaf"):
                pass
        with tracer.span("child"):
            pass
    times = tracer.self_times(root)
    assert times["child"][1] == 2 and times["leaf"][1] == 1
    assert sum(sec for sec, _ in times.values()) == \
        pytest.approx(root.duration)
    dumped = tracer.dump()
    assert dumped[2]["parent"] == 1 and dumped[0]["parent"] is None
    assert dumped[0]["attrs"] == {"workload": "w"}


# ----------------------------------------------------------------------
# measure
# ----------------------------------------------------------------------
def test_measure_statistics(monkeypatch):
    raws = iter([9.0, 4.0, 1.0, 2.0, 3.0, 5.0])  # 9.0 is the warm-up
    monkeypatch.setattr(
        harness, "timed", lambda fn, *a: (next(raws), 2.0, fn(*a)))
    seen = []
    m = harness.measure(lambda x: x * 2, 5, warmup=1,
                        setup=lambda: (len(seen),),
                        finish=lambda r: seen.append(r) or r)
    assert m.raw == harness.Stats(median=3.0, q1=1.5, q3=4.5, min=1.0,
                                  max=5.0, n=5)
    assert m.stats.median == 6.0 and m.stats.n == 5  # normalised by speed
    assert m.samples == [8.0, 2.0, 4.0, 6.0, 10.0]
    assert m.results == [2, 4, 6, 8, 10]  # warm-up result discarded
    assert m.stats.spread == pytest.approx((9.0 - 3.0) / 6.0)
    odd = m.subset([0, 2, 4])
    assert odd.samples == [8.0, 4.0, 10.0] and odd.raw.median == 4.0


def test_stats_of_one_sample():
    assert harness.Stats.of([2.5]) == harness.Stats(2.5, 2.5, 2.5, 2.5,
                                                    2.5, 1)


# ----------------------------------------------------------------------
# probes degrade to null
# ----------------------------------------------------------------------
def test_missing_probe_entry_point_yields_null(tmp_path, monkeypatch):
    from repro.sim import fault_sim
    # only the probe calls the batched front-end (the backend drives the
    # per-fault kernel), so this is "a later PR removed the entry point"
    monkeypatch.delattr(fault_sim, "fault_simulate_batched")
    record, _ = _run(TINY["ppsfp"], tmp_path, trace=True)
    layers = record["per_layer"]
    assert layers["sim.fault_sim.batched_s"]["value"] is None
    assert layers["engine.backends.run_batch_s"]["value"] > 0
    assert any("_fault_sim" in note and "missing" in note
               for note in record["info"]["notes"])
    assert record["identity"]["failed"] == 0
    line = run.contract_line(record)
    assert line["correct"] is True
    assert line["metrics"]["sim.fault_sim.batched_s"]["value"] == 0


def test_probe_helper_only_swallows_missing_entry_points():
    notes = []
    assert harness.probe(notes, lambda: {"a": 1}, "p") == {"a": 1}

    def gone():
        raise AttributeError("module has no attribute 'x'")

    assert harness.probe(notes, gone, "p") == {} and len(notes) == 1
    with pytest.raises(ZeroDivisionError):
        harness.probe(notes, lambda: 1 / 0, "p")


# ----------------------------------------------------------------------
# the contract: names, units, caps, agreement with BENCHMARK.json
# ----------------------------------------------------------------------
def test_metric_vocabulary_obeys_the_contract():
    names = ([n for n, *_ in metrics.END_TO_END]
             + [n for n, *_ in metrics.PER_LAYER]
             + [w.name for w in table.WORKLOADS])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    units = ([u for _, u, *_ in metrics.END_TO_END]
             + [u for _, u, _ in metrics.PER_LAYER])
    assert all(UNIT.match(u) for u in units)
    assert 2 <= len(table.WORKLOADS) <= 8
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128
    assert all(0 < bound <= 0.25 for *_, bound in metrics.END_TO_END)
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in table.WORKLOADS)
    assert ("setup_s", "s", "lower") in [e[:3] for e in metrics.END_TO_END]


def test_benchmark_json_agrees_with_the_tables():
    path = run.ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json in this checkout")
    spec = json.loads(path.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in table.WORKLOADS]
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b in metrics.PER_LAYER]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_emitted_lines_carry_every_declared_metric(tmp_path):
    for trace, declared in ((False, metrics.E2E_UNITS),
                            (True, metrics.LAYER_UNITS)):
        record, _ = _run(TINY["ppsfp"], tmp_path, trace=trace)
        line = json.loads(json.dumps(run.contract_line(record)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert {n: e["unit"] for n, e in line["metrics"].items()} == \
            declared
        assert all(isinstance(e["value"], (int, float))
                   for e in line["metrics"].values())
        if not trace:  # end-to-end metrics are never 0
            assert all(e["value"] > 0 for e in line["metrics"].values())


# ----------------------------------------------------------------------
# identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["seu", "slicing", "ppsfp"])
def test_seed_1_passes_every_identity_check(kind, tmp_path):
    record, _ = _run(TINY[kind], tmp_path, trace=True, seed=1)
    ident = record["identity"]
    assert ident["failed"] == 0 and ident["failed_fraction"] == 0
    assert all(check["ok"] for check in ident["checks"])
    kinds = " ".join(check["check"] for check in ident["checks"])
    assert "repeat" in kinds and "oracle" in kinds
    assert record["per_layer"]["harness.trace_overhead"]["value"] \
        is not None


def test_process_twin_matches_the_serial_digest(tmp_path):
    workload = replace(
        TINY["seu"], name="tiny_seu_proc2", mode="process", min_repeats=2,
        config=replace(table.SERIAL, executor="process", workers=2),
        twin_of="tiny_seu", probes=())
    record, _ = _run(workload, tmp_path, trace=False)
    checks = {c["check"]: c["ok"] for c in record["identity"]["checks"]}
    assert checks["digest == serial twin (tiny_seu)"] is True
    serial, _ = _run(TINY["seu"], tmp_path, trace=False)
    assert record["digest"] == serial["digest"]


def test_tampered_outcome_fails_the_run(tmp_path, monkeypatch):
    workload = TINY["seu"]
    clean, _ = _run(workload, tmp_path, trace=False)
    assert run.contract_line(clean)["correct"] is True

    # 1. the reference path disagrees with one executed point
    build = workload.build

    def lying_build(seed):
        inputs = build(seed)
        oracle = inputs.oracle

        def lying_oracle(points):
            outcomes = oracle(points)
            outcomes[0] = "failure" if outcomes[0] != "failure" else "masked"
            return outcomes

        inputs.oracle = lying_oracle
        return inputs

    record, _ = _run(replace(workload, build=lying_build), tmp_path,
                     trace=False)
    assert record["identity"]["failed"] == 1
    assert run.contract_line(record)["correct"] is False

    # 2. the recorded digest of this seed disagrees: whole campaign fails
    record, _ = _run(workload, tmp_path, trace=False,
                     digests={"1": {workload.name: "0" * 40}})
    assert record["identity"]["failed"] == record["sizes"]["total"]
    assert record["identity"]["failed_fraction"] > 0

    # 3. the command's exit code follows
    monkeypatch.setattr(run, "_setup", lambda name, seed: (
        workload, workload.build(seed), (0.1, 1.0)))
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "_baseline_digests",
                        lambda: {"1": {workload.name: "0" * 40}})
    argv = ["--workload", workload.name, "--seed", "1", "--seconds", "0"]
    monkeypatch.setattr(run, "_bootstrap", lambda: None)
    assert run.main(argv) == 1
    monkeypatch.setattr(run, "_baseline_digests", dict)
    assert run.main(argv) == 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_compare_verdicts():
    def entry(value, q1, q3):
        return {"value": value,
                "stats": {"median": value, "q1": q1, "q3": q3}}

    base = entry(1.0, 0.99, 1.01)
    assert run.verdict(base, entry(1.3, 1.29, 1.31), "lower", 0.15)[0] \
        == "worse"
    assert run.verdict(base, entry(0.8, 0.79, 0.81), "lower", 0.15)[0] \
        == "better"
    assert run.verdict(base, entry(1.05, 1.04, 1.06), "lower", 0.15)[0] \
        == "unchanged"
    assert run.verdict(base, entry(1.3, 1.0, 1.6), "lower", 0.15)[0] \
        == "unresolved"
    assert run.verdict(base, entry(0.8, 0.79, 0.81), "higher", 0.15)[0] \
        == "worse"
    # a metric without repeats (peak_rss_mb, db_mb) has no spread
    assert run.verdict({"value": 10.0}, {"value": 10.1}, "lower", 0.05)[0] \
        == "unchanged"
