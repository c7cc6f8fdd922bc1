"""The campaign pipeline's stages on their own: stop rule, fold, sink and
replay source driven by synthetic chunk events — no backend, no pool.
"""

from collections import Counter
from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _signature
from repro.core import CampaignDb
from repro.core.campaign import Outcomes, pack_block
from repro.engine import CampaignReport, EarlyStop, Injection
from repro.engine.core import (
    CampaignFold,
    CampaignPlan,
    CheckpointSink,
    ChunkEvent,
    StopRule,
    replayed,
    replayed_stop,
)


def _inj(point, outcome):
    return Injection(point=point, location=f"p{point}", cycle=0,
                     outcome=outcome)


def _plan(chunk_sizes, census=()):
    """A plan of ``chunk_sizes`` kept chunks plus a filter census."""
    points = list(range(sum(chunk_sizes)))
    chunks, at = [], 0
    for size in chunk_sizes:
        chunks.append(points[at:at + size])
        at += size
    skipped = [_inj(-1 - i, out) for i, out in enumerate(census)]
    return CampaignPlan(points=points, skipped=skipped, chunks=chunks,
                        seeds=list(range(len(chunks))), batch_size=4,
                        lane_width=1, population=len(points) + len(skipped),
                        planned=len(points) + len(skipped), fingerprint="t")


def _events(plan, outcomes):
    """Executed events: one outcome string per point, or None for a
    chunk that quarantines."""
    return [ChunkEvent(i, 1, Outcomes.of([_inj(p, o)
                                          for p, o in zip(chunk, outs)]),
                       executor="serial") if outs is not None
            else ChunkEvent(i, 3, error="ChaosError: boom",
                            executor="serial")
            for i, (chunk, outs) in enumerate(zip(plan.chunks, outcomes))]


def _fold(plan, stop, events, sink=None):
    report = CampaignReport(backend="b", circuit="c", fault_model="f",
                            workload="w", skipped=plan.skipped,
                            population=plan.population, planned=plan.planned)
    fold = CampaignFold(report, plan, stop, sink)
    if not report.converged:
        for event in events:
            if fold(event):
                break
    return report, fold.rule


STOP = EarlyStop("failure", margin=0.2, min_injections=0)


class TestStopRule:
    def test_census_only_converges_before_any_execution(self):
        rule = StopRule(STOP, _plan([], census=["masked"] * 6))
        assert rule.converged and rule.index == 0

    def test_all_filtered_needs_a_stop_to_converge(self):
        assert not StopRule(None, _plan([], census=["masked"])).converged

    def test_empty_campaign_is_not_converged(self):
        assert not StopRule(STOP, _plan([])).converged

    def test_census_scales_the_executed_half_width(self):
        # the same executed sample: too wide alone, tight enough once a
        # census makes the kept stratum a small share of the campaign
        alone = StopRule(STOP, _plan([4]))
        alone.add(Counter(["failure", "failure", "masked", "masked"]))
        assert not alone.converged
        weighted = StopRule(STOP, _plan([4], census=["masked"] * 36))
        assert not weighted.converged  # nothing executed yet
        weighted.add(Counter(["failure", "failure", "masked", "masked"]))
        assert weighted.converged

    def test_min_injections_gates_convergence(self):
        gated = EarlyStop("failure", margin=0.9, min_injections=6)
        rule = StopRule(gated, _plan([4, 4]))
        rule.add(Counter(["masked"] * 4))
        assert not rule.converged
        rule.add(Counter(["masked"] * 4))
        assert rule.converged and rule.index == 2

    def test_min_injections_counts_the_census(self):
        gated = EarlyStop("failure", margin=0.9, min_injections=6)
        rule = StopRule(gated, _plan([4], census=["masked"] * 2))
        rule.add(Counter(["masked"] * 4))
        assert rule.converged

    def test_skip_moves_only_the_cursor(self):
        rule = StopRule(STOP, _plan([4, 4]))
        rule.skip()
        assert (rule.index, rule.executed, rule.converged) == (1, 0, False)


class TestFold:
    def test_counts_strata_and_stops_at_the_converging_chunk(self):
        plan = _plan([4, 4, 4], census=["masked"] * 4)
        stop = EarlyStop("failure", margin=0.3, min_injections=0)
        events = _events(plan, [["failure"] * 4, ["masked"] * 4,
                                ["masked"] * 4])
        report, rule = _fold(plan, stop, events)
        assert report.converged and rule.index == 1
        assert (report.executed, report.total) == (4, 8)
        assert report.outcomes == {"failure": 4, "masked": 4}
        assert report.executor == "serial"

    def test_quarantine_before_convergence(self):
        plan = _plan([4, 4, 4])
        events = _events(plan, [None, ["masked"] * 4, ["masked"] * 4])
        report, rule = _fold(plan, STOP, events)
        # the failed stratum is reported, excluded from the counts, and
        # does not stop the walk: convergence lands two chunks later
        assert [(q.index, q.n_points, q.attempts, q.error)
                for q in report.quarantined] == [(0, 4, 3,
                                                  "ChaosError: boom")]
        assert report.total == 8 and report.converged and rule.index == 3

    def test_retried_and_resumed_chunks_are_told_apart(self):
        plan = _plan([2, 2])
        batch = [_inj(0, "masked"), _inj(1, "masked")]
        report, _ = _fold(plan, None, [
            # replayed, as stored rows: not a retry of this run
            ChunkEvent(0, 2, Outcomes.unpack(
                pack_block([inj.row() for inj in batch]))),
            ChunkEvent(1, 2, Outcomes.of(batch), executor="process")])
        assert (report.resumed_chunks, report.retried_chunks) == (1, 1)
        assert report.executor == "process"

    def test_on_chunk_sees_done_chunks_only(self):
        plan = _plan([2, 2])
        seen = []
        report = CampaignReport(backend="b", circuit="c", fault_model="f",
                                workload="w")
        fold = CampaignFold(report, plan, None,
                            on_chunk=lambda r: seen.append(r.executed))
        for event in _events(plan, [None, ["masked"] * 2]):
            fold(event)
        assert seen == [2]


class TestSinkAndReplay:
    def test_sink_batches_commits_and_flushes_on_quarantine(self):
        plan = _plan([2] * 5)
        db = CampaignDb()
        cid = db.create_campaign("c", "circ", "seu", "w")
        sink = CheckpointSink(db, cid, plan.seeds, commit_every=3)
        events = _events(plan, [["masked"] * 2, None, ["failure"] * 2,
                                ["masked"] * 2, ["masked"] * 2])
        sink(events[0])
        assert db.chunk_records(cid) == {}  # batch not full yet
        sink(events[1])  # quarantine: checkpoint immediately
        assert sorted(db.chunk_records(cid)) == [0, 1]
        sink(events[2])
        sink(events[3])
        assert sorted(db.chunk_records(cid)) == [0, 1]
        sink(events[4])  # third pending chunk: the batch commits
        assert sorted(db.chunk_records(cid)) == [0, 1, 2, 3, 4]
        records = db.chunk_records(cid)
        assert [records[i].status for i in range(5)] == [
            "done", "failed", "done", "done", "done"]
        # ... and the replay source hands the same events back, as rows
        assert [(e.index, e.attempts, e.error, e.batch, e.executor)
                for e in replayed(db, cid, 5)] == [
            (e.index, e.attempts, e.error,
             e.batch and [inj.row() for inj in e.batch], None)
            for e in events]

    def test_replay_stops_at_the_first_missing_record(self):
        plan = _plan([2] * 3)
        db = CampaignDb()
        cid = db.create_campaign("c", "circ", "seu", "w")
        db.record_chunk(cid, 0, [("p0", 0, "masked")] * 2)
        db.record_chunk(cid, 2, [("p4", 0, "masked")] * 2)  # past the gap
        assert [e.index for e in replayed(db, cid, 3)] == [0]
        assert replayed_stop(db, cid, plan, STOP).index == 1


@st.composite
def _campaigns(draw):
    outcome = st.sampled_from(["failure", "masked"])
    chunk = st.one_of(st.none(), st.lists(outcome, min_size=1, max_size=4))
    outcomes = draw(st.lists(chunk, min_size=1, max_size=7))
    census = draw(st.lists(outcome, max_size=6))
    stop = draw(st.one_of(st.none(), st.builds(
        EarlyStop, outcome=st.just("failure"),
        margin=st.sampled_from([0.05, 0.2, 0.35, 0.5]),
        min_injections=st.integers(0, 12))))
    # a quarantined chunk still has points: size it like its neighbours
    plan = _plan([len(o) if o is not None else 2 for o in outcomes], census)
    return plan, stop, _events(plan, outcomes)


@settings(max_examples=60, deadline=None)
@given(_campaigns())
def test_resume_anywhere_identity(campaign):
    """For every cut k: fold(replayed[:k] + executed[k:]) == fold(executed)
    — with the first k events really checkpointed through the sink and
    read back by the replay source — and the counts-only stop rule agrees
    with the fold on where the campaign stands."""
    plan, stop, events = campaign
    reference, reference_rule = _fold(plan, stop, events)
    for k in range(len(events) + 1):
        db = CampaignDb()
        cid = db.create_campaign("c", "circ", "seu", "w")
        sink = CheckpointSink(db, cid, plan.seeds, commit_every=2)
        _fold(plan, stop, events[:k], sink)
        sink.flush()
        committed = list(replayed(db, cid, len(plan.chunks)))
        assert len(committed) == min(k, reference_rule.index)
        report, rule = _fold(plan, stop,
                             chain(committed, events[len(committed):]))
        assert _signature(report) == _signature(reference)
        assert rule.index == reference_rule.index
        if stop is not None and k == len(events):
            counted = replayed_stop(db, cid, plan, stop)
            assert (counted.index, counted.converged) == (
                reference_rule.index, reference_rule.converged)
        db.close()
