"""The outcome-block store behind ``CampaignDb``.

Covers the codec (``rows → block → rows`` is the identity, each column
at the narrowest width that holds it, a constant column stored once),
the schema constraint behind "a chunk is never recorded with two
payloads", ``CampaignDb.rows()``, chunk results and the filter census
as ``Outcomes`` blocks (the census equal to the record list a
per-record filter builds, stored as the same bytes, checked at plan
time).  The in-place migration of a per-row database is in
``test_db_concurrency.py``.
"""

import json
import pickle
import random
import sqlite3
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _signature, dead_flop_circuit
from repro.circuit import load
from repro.circuit.levelize import fanin_cone, fanout_cone
from repro.core import CampaignDb
from repro.core.campaign import Outcomes, pack_block, unpack_block
from repro.engine import (EngineConfig, Injection, PpsfpBackend, SeuBackend,
                          SlicingBackend, resume_campaign, run_campaign)
from repro.engine.core import (CampaignReport, InjectionView, check_batch,
                               plan_campaign)
from repro.engine.workloads import (SKIP_DEAD_FLOP, SKIP_NO_ACTIVATION,
                                    SKIP_NO_PATH)
from repro.faults import collapse
from repro.safety.slicing import CampaignOutcome
from repro.sim import random_patterns
from repro.soft_error import FAILURE, SeuInjection, random_workload
from repro.soft_error import run_campaign as seu_campaign


def _header(block: bytes) -> dict:
    return json.loads(block[:block.index(b"\n")])


def _codes(block: bytes) -> list[str]:
    return [code for code, _ in _header(block)["columns"]]


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
_ROWS = st.lists(st.tuples(
    st.text(max_size=6),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    st.sampled_from(["masked", "failure", "latent", "", "sdc ⚡"])),
    max_size=40)


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(_ROWS)
    def test_round_trip(self, rows):
        assert unpack_block(pack_block(rows)) == rows

    def test_empty_and_single_row(self):
        assert unpack_block(pack_block([])) == []
        assert unpack_block(pack_block([("ff0", 3, "masked")])) == [
            ("ff0", 3, "masked")]

    def test_unicode_and_empty_locations(self):
        rows = [("", 0, "masked"), ("flöp→7\n", 1, "masked"),
                ("", 2, "失敗")]
        block = pack_block(rows)
        assert unpack_block(block) == rows
        # the header stays one ASCII line whatever the names contain
        assert block.index(b"\n") == len(
            json.dumps(_header(block), separators=(",", ":")))

    @pytest.mark.parametrize("cycles, code", [
        ([0, 127], "b"), ([-128, 5], "b"), ([0, 128], "h"),
        ([-129, 0], "h"), ([0, 1 << 15], "i"), ([-5, 1 << 31], "q"),
        ([0, (1 << 32) + 1], "q"), ([-(1 << 63), (1 << 63) - 1], "q"),
    ])
    def test_cycle_column_is_signed_and_as_narrow_as_fits(self, cycles,
                                                          code):
        rows = [("ff", cycle, "masked") for cycle in cycles]
        block = pack_block(rows)
        assert _codes(block)[1] == code
        assert unpack_block(block) == rows

    def test_cycle_past_64_bits_is_rejected(self):
        with pytest.raises(OverflowError):
            pack_block([("ff", 0, "masked"), ("ff", 1 << 63, "masked")])

    def test_index_columns_widen_with_their_dictionaries(self):
        rows = [(f"ff{i}", 0, f"out{i % 300}") for i in range(70_000)]
        block = pack_block(rows)
        header = _header(block)
        assert len(header["locations"]) == 70_000   # > 65 535: 4 bytes
        assert len(header["outcomes"]) == 300       # > 255: 2 bytes
        assert _codes(block) == ["I", "b", "H"]
        assert unpack_block(block) == rows

    def test_constant_columns_are_stored_once(self):
        rows = [("ff0", 9, "masked")] * 1000
        block = pack_block(rows)
        assert _header(block)["columns"] == [["B", 1], ["b", 1], ["B", 1]]
        assert len(block) == block.index(b"\n") + 1 + 3
        assert unpack_block(block) == rows
        # ... independently per column
        rows = [("ff0", i, "masked") for i in range(1000)]
        assert _header(pack_block(rows))["columns"] == [
            ["B", 1], ["h", 1000], ["B", 1]]
        assert unpack_block(pack_block(rows)) == rows

    def test_truncated_block_is_rejected(self):
        block = pack_block([("a", i, "masked") for i in range(10)])
        with pytest.raises(ValueError, match="corrupt outcome block"):
            unpack_block(block[:-3])
        with pytest.raises(ValueError, match="corrupt outcome block"):
            unpack_block(block + b"\0")


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
def _blocks(db: CampaignDb) -> list[tuple]:
    return db.conn.execute(
        "SELECT campaign_id, chunk_index, n_points FROM outcome_blocks"
        " ORDER BY id").fetchall()


class TestBlockStore:
    def test_one_block_per_call_in_write_order(self):
        db = CampaignDb()
        c1 = db.create_campaign("a", "circ", "seu", "w")
        c2 = db.create_campaign("b", "circ", "seu", "w")
        db.record_many(c1, [("f0", 0, "masked"), ("f1", 0, "failure")])
        db.record_chunk(c2, 0, [("g0", 1, "masked")])
        db.record(c1, "f2", 5, "failure")
        db.record_chunk(c1, 4, [("f3", 2, "masked"), ("f3", 3, "masked")])
        db.record_many(c1, [])  # nothing to record: no block
        assert _blocks(db) == [(c1, None, 2), (c2, 0, 1), (c1, None, 1),
                               (c1, 4, 2)]
        assert list(db.rows()) == [
            (c1, None, "f0", 0, "masked"), (c1, None, "f1", 0, "failure"),
            (c2, 0, "g0", 1, "masked"), (c1, None, "f2", 5, "failure"),
            (c1, 4, "f3", 2, "masked"), (c1, 4, "f3", 3, "masked")]
        assert list(db.rows(c2)) == [(c2, 0, "g0", 1, "masked")]
        assert db.summary(c1).outcomes == {"failure": 2, "masked": 3}
        assert db.failure_rate_by_location(c1) == {
            "f0": 0.0, "f1": 1.0, "f2": 1.0, "f3": 0.0}
        assert db.cross_campaign_outcomes() == {"failure": 2, "masked": 4}

    def test_rows_rebuild_a_flat_sql_table(self):
        db = CampaignDb()
        cid = db.create_campaign("a", "circ", "seu", "w")
        db.record_many(cid, [("f0", 0, "masked")])
        db.record_chunk(cid, 0, [("f1", 1, "failure"), ("f1", 2, "masked")])
        db.conn.execute("CREATE TEMP TABLE flat (campaign_id, chunk_index,"
                        " location, cycle, outcome)")
        db.conn.executemany("INSERT INTO flat VALUES (?, ?, ?, ?, ?)",
                            db.rows())
        assert db.conn.execute(
            "SELECT outcome, COUNT(*) FROM flat GROUP BY outcome"
        ).fetchall() == [("failure", 1), ("masked", 2)]

    def test_a_stale_workers_second_payload_is_ignored(self):
        """The lease protocol's stale worker: a second ``record_chunk``
        for a ``done`` chunk — with a different payload — is refused and
        the first block stays the only one."""
        db = CampaignDb()
        cid = db.create_campaign("a", "circ", "seu", "w")
        first = [("f0", 0, "masked"), ("f1", 0, "failure")]
        assert db.record_chunk(cid, 2, first, seed=5) is True
        assert db.record_chunk(cid, 2, [("f0", 0, "failure")], seed=5,
                               attempts=2) is False
        assert _blocks(db) == [(cid, 2, 2)]
        assert db.chunk_rows(cid) == {2: first}

    def test_failed_to_done_leaves_exactly_one_block(self):
        db = CampaignDb()
        cid = db.create_campaign("a", "circ", "seu", "w")
        assert db.record_chunk(cid, 3, [], status="failed", attempts=4,
                               error="ChaosError: boom") is True
        assert _blocks(db) == []  # a quarantine row carries no block
        rows = [("f1", 0, "masked")]
        assert db.record_chunk(cid, 3, rows) is True
        assert db.record_chunk(cid, 3, rows) is False
        assert _blocks(db) == [(cid, 3, 1)]

    def test_two_payloads_for_one_chunk_violate_the_schema(self):
        """Not a convention of ``record_chunk``: the UNIQUE partial
        index refuses a second block for a chunk whoever writes it —
        while census blocks (no chunk) may repeat."""
        db = CampaignDb()
        cid = db.create_campaign("a", "circ", "seu", "w")
        db.record_chunk(cid, 0, [("f0", 0, "masked")])
        with pytest.raises(sqlite3.IntegrityError):
            db.record_many(cid, [("f0", 0, "failure")], chunk_index=0)
        db.record_many(cid, [("f1", 0, "masked")])
        db.record_many(cid, [("f2", 0, "masked")])
        assert _blocks(db) == [(cid, 0, 1), (cid, None, 1), (cid, None, 1)]


# ----------------------------------------------------------------------
# the columnar chunk result: backend -> engine -> database -> report
# ----------------------------------------------------------------------
_INJECTIONS = st.lists(st.tuples(
    st.sampled_from([f"ff{i}" for i in range(300)] + ["", "flöp→7\n"]),
    st.one_of(st.integers(-3, 3),
              st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)),
    st.sampled_from(["masked", "failure", "latent", "sdc ⚡"])),
    max_size=60)


def _records(rows):
    return [Injection((i, location), location, cycle, outcome)
            for i, (location, cycle, outcome) in enumerate(rows)]


def _coded(rows):
    """The block a columnar backend builds for ``rows``: outcome codes
    into a fixed outcome table, not the rows' first-appearance order."""
    names = ("latent", "sdc ⚡", "failure", "masked")
    return Outcomes([(i, row[0]) for i, row in enumerate(rows)],
                    [row[0] for row in rows], [row[1] for row in rows],
                    bytes(names.index(row[2]) for row in rows), names)


class TestOutcomesBlock:
    @settings(max_examples=200, deadline=None)
    @given(_INJECTIONS)
    def test_packing_a_block_is_byte_identical_to_its_rows(self, rows):
        # a database written from rows (an older version, the census)
        # and one written from blocks are the same bytes, so either
        # resumes from the other
        assert Outcomes.of(_records(rows)).pack() == pack_block(rows)
        assert _coded(rows).pack() == pack_block(rows)

    def test_packing_edge_cases(self):
        cases = {
            "empty": [],
            "negative cycles": [("ff0", -5, "masked"), ("ff1", -1, "failure")],
            "64-bit cycles": [("ff0", -(1 << 63), "masked"),
                              ("ff0", (1 << 63) - 1, "latent")],
            "> 256 locations": [(f"ff{i}", i, "masked") for i in range(700)],
            "constant columns": [("ff0", 7, "failure")] * 9,
        }
        for name, rows in cases.items():
            for block in (Outcomes.of(_records(rows)), _coded(rows)):
                assert block.pack() == pack_block(rows), name
                assert Outcomes.unpack(block.pack()) == rows, name

    def test_more_than_256_outcomes(self):
        rows = [(f"ff{i}", 0, f"out{i % 300}") for i in range(600)]
        block = Outcomes.of(_records(rows))
        assert block.pack() == pack_block(rows)
        assert Outcomes.unpack(pack_block(rows)).rows() == rows
        assert block.tally() == {f"out{i}": 2 for i in range(300)}

    def test_records_are_the_backends_records(self):
        rows = [("ff1", 3, "failure"), ("ff0", 3, "masked"),
                ("ff1", 4, "latent")]
        block = _coded(rows)
        expected = [Injection((i, row[0]), *row) for i, row in
                    enumerate(rows)]
        assert list(block) == expected == block
        assert block[-1] == expected[-1] and block[:2] == expected[:2]
        assert all(inj.detail is None for inj in block)
        assert block.tally() == {"failure": 1, "masked": 1, "latent": 1}
        # read back, a block has no points: its items are its rows
        assert Outcomes.unpack(block.pack()) == rows
        assert Outcomes.unpack(block.pack()).with_points(
            block.points) == expected
        # the adapter keeps the backend's own records, detail and all
        records = [Injection("p", "ff0", 0, "detected", 0b1010)]
        adapted = Outcomes.of(records)
        assert adapted[0] is records[0] and adapted.details == (0b1010,)

    def test_a_block_pickles_without_its_records(self):
        block = Outcomes.of(_records([("ff0", 1, "masked")] * 3))
        copy = pickle.loads(pickle.dumps(block))
        assert copy._items is None and copy == block


class _Malformed:
    """A SEU-shaped backend whose blocks are broken in one chosen way."""

    name, fault_model, workload = "malformed", "seu", "w"
    circuit_name = "c"

    def __init__(self, how):
        self.how = how

    def enumerate_points(self):
        return [(f"ff{i}", i) for i in range(8)]

    def prepare(self):
        pass

    def run_batch(self, points):
        n = len(points)
        columns = dict(points=points, locations=[p[0] for p in points],
                       cycles=[p[1] for p in points], codes=bytes(n),
                       names=("masked",))
        if self.how == "ragged":
            columns["cycles"] = columns["cycles"][:-1]
        elif self.how == "short":
            columns = dict(points=points[:-1],
                           locations=columns["locations"][:-1],
                           cycles=columns["cycles"][:-1],
                           codes=bytes(n - 1), names=("masked",))
        elif self.how == "unnamed":
            columns["codes"] = bytes([0] * (n - 1) + [1])
        return Outcomes(**columns)


@pytest.mark.parametrize("how", ["ragged", "short", "unnamed"])
def test_a_malformed_block_is_retried_then_quarantined(how, no_pool):
    chunk = ["ff0", "ff1", "ff2", "ff3"]
    assert check_batch(_Malformed(how).run_batch(
        [(f, 0) for f in chunk]), chunk, 0)[0] is None
    db = CampaignDb()
    report = run_campaign(_Malformed(how), EngineConfig(
        batch_size=4, executor="serial", max_chunk_retries=1,
        retry_backoff_s=0), db=db)
    assert [(q.index, q.attempts) for q in report.quarantined] == [
        (0, 2), (1, 2)]
    assert all("malformed result" in q.error for q in report.quarantined)
    assert report.executed == 0 and list(db.rows()) == []
    assert [r.status for r in db.chunk_records(report.campaign_id)
            .values()] == ["failed", "failed"]
    good = run_campaign(_Malformed("fine"), EngineConfig(
        batch_size=4, executor="serial"))
    assert good.outcomes == {"masked": 8} and not good.quarantined


class TestInjectionView:
    def test_view_reads_as_the_list_of_records(self, seq_setup, no_pool):
        circuit, workload = seq_setup
        packed = SeuBackend(circuit.copy(), workload, lane_width=64)
        report = run_campaign(packed, EngineConfig(batch_size=40,
                                                   executor="serial"))
        reference = SeuBackend(circuit.copy(), workload, lane_width=1)
        reference.prepare()
        expected = reference.run_batch(packed.enumerate_points())
        view = report.injections
        assert len(view) == len(expected) == report.executed
        # counts and len built no record
        assert all(block._items is None for block in view.blocks)
        assert list(view) == expected and view == expected
        assert view[0] == expected[0] and view[-1] == expected[-1]
        assert view[5:9] == expected[5:9]
        assert view + [] == expected and [] + view == expected
        assert report.outcomes == dict(Counter(
            inj.outcome for inj in expected))
        assert report.count("failure") == sum(
            inj.outcome == "failure" for inj in expected)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_INJECTIONS, max_size=6), st.data())
    def test_view_is_its_blocks_chained(self, chunks, data):
        # indexing, slicing, iterating, == and + read the blocks' own
        # records: the view is list(chain(*blocks)), also for blocks
        # appended after a read
        blocks = [_coded(rows) if i % 2 else Outcomes.of(_records(rows))
                  for i, rows in enumerate(chunks)]
        view = InjectionView()
        early = data.draw(st.integers(0, len(blocks)), label="read after")
        for n_blocks in (early, len(blocks)):
            for block in blocks[len(view.blocks):n_blocks]:
                view.append(block, block.tally())
            expected = list(chain(*blocks[:n_blocks]))
            n = len(expected)
            assert len(view) == n
            assert list(view) == expected and view == expected == view
            for index in range(-n, n):
                assert view[index] == expected[index]
            for index in (n, -n - 1):
                with pytest.raises(IndexError):
                    view[index]
            cut = data.draw(st.slices(n), label="slice")
            assert view[cut] == expected[cut]
            extra = [Injection("p", "ff0", 0, "masked")]
            assert view + extra == expected + extra
            assert extra + view == extra + expected
            assert view + view == expected + expected
            assert list(view.column("outcomes")) == [
                inj.outcome for inj in expected]
            assert view.counts() == dict(Counter(
                inj.outcome for inj in expected))

    @pytest.mark.parametrize("lane_width", [1, 64])
    def test_seu_facade_reads_the_report_lazily(self, seq_setup, lane_width,
                                                no_pool):
        # the SEU facade's points are the record list it used to build,
        # read off the report: equal item by item, drawn alike by
        # random.sample, counted and rated from the tally
        circuit, workload = seq_setup
        result = seu_campaign(circuit.copy(), workload, executor="serial",
                              lane_width=lane_width)
        old = [SeuInjection(inj.location, inj.cycle, inj.outcome)
               for inj in result.report.injections]
        view = result.injections
        assert len(view) == len(old) == result.total == 240
        assert view == old and list(view) == old and old == view
        assert [view[i] for i in range(-len(old), len(old))] == old + old
        assert view[5:200:3] == old[5:200:3] and view[-9:] == old[-9:]
        for seed, k in ((1, 3), (2, 30), (3, 100), (4, 240)):
            assert (random.Random(seed).sample(view, k)
                    == random.Random(seed).sample(old, k))
        fails = [inj.outcome == FAILURE for inj in old]
        assert result.count(FAILURE) == sum(fails)
        assert result.failure_rate == sum(fails) / len(old)
        flops = list(dict.fromkeys(inj.flop for inj in old))
        assert result.avf_per_flop() == {
            flop: sum(f for inj, f in zip(old, fails) if inj.flop == flop)
            / sum(inj.flop == flop for inj in old) for flop in flops}

    def test_row_packed_checkpoints_resume_identically(self, seq_setup,
                                                       no_pool):
        # every stored chunk is the bytes pack_block makes of its rows,
        # so a database checkpointed from rows resumes as one from blocks
        circuit, workload = seq_setup
        config = EngineConfig(batch_size=40, executor="serial")
        reference = run_campaign(SeuBackend(circuit.copy(), workload),
                                 config)
        db = CampaignDb()
        cid = run_campaign(SeuBackend(circuit.copy(), workload), config,
                           db=db).campaign_id
        stored = dict(db.conn.execute(
            "SELECT chunk_index, payload FROM outcome_blocks"
            " WHERE campaign_id=?", (cid,)).fetchall())
        chunks = [list(reference.injections)[i:i + 40]
                  for i in range(0, reference.executed, 40)]
        assert stored == {i: pack_block([inj.row() for inj in chunk])
                          for i, chunk in enumerate(chunks)}
        db.conn.execute("DELETE FROM outcome_blocks WHERE chunk_index >= 2")
        db.conn.execute("DELETE FROM chunks WHERE chunk_index >= 2")
        db.conn.commit()
        resumed = resume_campaign(SeuBackend(circuit.copy(), workload), cid,
                                  config, db=db)
        assert resumed.resumed_chunks == 2
        assert _signature(resumed) == _signature(reference)

    def test_details_survive_a_fresh_run(self, no_pool):
        circuit = load("c17")
        faults = collapse(circuit)[0]
        batches = [(random_patterns(circuit.inputs, 8, seed=1), 8)]
        report = run_campaign(PpsfpBackend(circuit, faults, batches),
                              EngineConfig(batch_size=5, executor="serial"))
        backend = PpsfpBackend(circuit, faults, batches)
        backend.prepare()
        expected = backend.run_batch(faults)
        assert [tuple(inj) for inj in report.injections] == [
            tuple(inj) for inj in expected]
        assert any(inj.detail for inj in report.injections)


# ----------------------------------------------------------------------
# the filter census: one block from filter_points to the database
# ----------------------------------------------------------------------
def _seu_census(backend, points):
    """The census as the per-record filter built it: one ``Injection``
    per point on a flop whose one-cycle fan-out reaches no output and no
    flop D input, in point order."""
    circuit = backend.circuit
    live = set(circuit.outputs) | {f.d for f in circuit.flops.values()}
    return [Injection(point, point[0], point[1], "masked", SKIP_DEAD_FLOP)
            for point in points
            if not fanout_cone(circuit, [point[0]]) & live]


def _slicing_census(backend, points):
    """The census as the per-record filter built it: *no path* when the
    site is outside the observables' fan-in (through flops), *no
    activation* when the golden value already is the forced one."""
    circuit = backend.circuit
    observable = fanin_cone(circuit, circuit.outputs, through_flops=True)
    values = backend._golden[1]
    census = []
    for fault, cycle in points:
        net = fault.line.net
        if net not in observable:
            rule = SKIP_NO_PATH
        elif values[cycle].get(net, 0) == fault.value:
            rule = SKIP_NO_ACTIVATION
        else:
            continue
        census.append(Injection((fault, cycle), fault.describe(), cycle,
                                "masked", rule))
    return census


def _seu_filtered(use_filter=True):
    circuit = dead_flop_circuit()
    return SeuBackend(circuit, random_workload(circuit, 100, seed=4),
                      skip_dead_flops=use_filter)


def _slicing_filtered(use_filter=True):
    circuit = load("rand_seq")
    return SlicingBackend(circuit, collapse(circuit)[0][:40],
                          random_workload(circuit, 20, seed=21),
                          use_filter=use_filter)


_FILTERED = {"seu": (_seu_filtered, _seu_census),
             "slicing": (_slicing_filtered, _slicing_census)}
_CENSUS_CONFIGS = {
    "plain": EngineConfig(batch_size=8, executor="serial"),
    "sample": EngineConfig(batch_size=8, executor="serial", sample=150,
                           seed=3),
    "shuffle": EngineConfig(batch_size=8, executor="serial", shuffle=True,
                            seed=5),
}


class _RecordFilter:
    """A filter outside the tree: the wrapped backend's census handed
    back as a ``list[Injection]``, as filters returned it before."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def filter_points(self, points):
        kept, census = self.inner.filter_points(points)
        return kept, list(census)


class TestFilterCensus:
    @pytest.mark.parametrize("config", sorted(_CENSUS_CONFIGS))
    @pytest.mark.parametrize("backend", sorted(_FILTERED))
    def test_census_is_the_record_list_the_filter_built(self, backend,
                                                        config, no_pool):
        make, reference = _FILTERED[backend]
        config = _CENSUS_CONFIGS[config]
        unfiltered = make(False)
        unfiltered.prepare()
        # the post-sampling point order, from the same plan unfiltered
        points = plan_campaign(unfiltered, config).points
        assert len(points) == (config.sample or len(
            unfiltered.enumerate_points()))
        expected = reference(unfiltered, points)
        assert expected and len({inj.detail for inj in expected}) == (
            2 if backend == "slicing" else 1)
        db = CampaignDb()
        report = run_campaign(make(), config, db=db)
        census = report.skipped
        assert isinstance(census, Outcomes) and census._items is None
        assert report.outcomes["masked"] >= len(expected)  # no record yet
        assert census._items is None
        assert census == expected  # order, points and detail
        assert [type(inj) for inj in census] == [Injection] * len(expected)
        # stored as the bytes pack_block makes of the parent's rows, so
        # a database written from records resumes as this one does
        [(payload,)] = db.conn.execute(
            "SELECT payload FROM outcome_blocks WHERE campaign_id=? AND"
            " chunk_index IS NULL", (report.campaign_id,)).fetchall()
        assert payload == pack_block([inj.row() for inj in expected])
        db.conn.execute("DELETE FROM outcome_blocks WHERE chunk_index >= 2")
        db.conn.execute("DELETE FROM chunks WHERE chunk_index >= 2")
        db.conn.commit()
        resumed = resume_campaign(make(), report.campaign_id, config, db=db)
        assert resumed.resumed_chunks == 2
        assert _signature(resumed) == _signature(report)
        assert _signature(resumed, details=True)[1] == \
            _signature(report, details=True)[1]  # census details kept

    @pytest.mark.parametrize("backend", sorted(_FILTERED))
    def test_a_filter_returning_records_still_works(self, backend, no_pool):
        make, _ = _FILTERED[backend]
        config = _CENSUS_CONFIGS["shuffle"]
        native_db, listed_db = CampaignDb(), CampaignDb()
        native = run_campaign(make(), config, db=native_db)
        listed = run_campaign(_RecordFilter(make()), config, db=listed_db)
        assert isinstance(listed.skipped, Outcomes)
        assert _signature(listed, details=True) == \
            _signature(native, details=True)
        assert list(listed_db.rows()) == list(native_db.rows())

    @pytest.mark.parametrize("how", ["ragged", "short", "unnamed",
                                     "records"])
    def test_a_malformed_census_fails_the_plan(self, how, no_pool):
        executed = []

        class Broken(_Malformed):
            def filter_points(self, points):
                skipped = points[:5]
                n = len(skipped)
                columns = dict(points=skipped,
                               locations=[p[0] for p in skipped],
                               cycles=[p[1] for p in skipped],
                               codes=bytes(n), names=("masked",))
                if how == "ragged":
                    columns["locations"] = columns["locations"][:-1]
                elif how == "short":  # a whole point missing
                    columns = {k: v[:-1] if k != "names" else v
                               for k, v in columns.items()}
                elif how == "unnamed":
                    columns["codes"] = bytes([0] * (n - 1) + [1])
                else:  # records of the wrong shape
                    return points[5:], [p[0] for p in skipped]
                return points[5:], Outcomes(**columns)

            def run_batch(self, points):
                executed.append(points)
                return super().run_batch(points)

        db = CampaignDb()
        with pytest.raises(ValueError, match="malformed census|dropped"):
            run_campaign(Broken(how), EngineConfig(executor="serial"),
                         db=db)
        assert executed == [] and list(db.rows()) == []

    def test_a_report_built_with_a_list_adapts_it(self):
        records = [Injection(1, "ff0", 0, "masked", SKIP_DEAD_FLOP),
                   Injection(2, "ff1", 3, "latent"),
                   Injection(3, "ff0", 1, "masked", SKIP_DEAD_FLOP)]
        report = CampaignReport(backend="b", circuit="c", fault_model="f",
                                workload="w", skipped=records)
        assert isinstance(report.skipped, Outcomes)
        assert report.skipped == records and report.skipped[1] is records[1]
        assert report.outcomes == {"masked": 2, "latent": 1}
        assert report.total == 3 and report.skip_fraction == 1.0
        assert "3 filtered" in report.describe()
        empty = CampaignReport(backend="b", circuit="c", fault_model="f",
                               workload="w")
        assert empty.skipped == [] and empty.outcomes == {}

    def test_slicing_outcome_counts_rules_off_the_details(self, no_pool):
        report = run_campaign(_slicing_filtered(),
                              _CENSUS_CONFIGS["plain"])
        outcome = CampaignOutcome.from_report(report)
        assert outcome.skipped_no_path == sum(
            inj.detail == SKIP_NO_PATH for inj in report.skipped) > 0
        assert outcome.skipped_no_activation == sum(
            inj.detail == SKIP_NO_ACTIVATION for inj in report.skipped) > 0
        assert outcome.classifications == {
            inj.point: inj.outcome
            for inj in report.injections + report.skipped}
        stray = CampaignReport(
            backend="b", circuit="c", fault_model="f", workload="w",
            skipped=[Injection(1, "x", 0, "masked", SKIP_DEAD_FLOP)])
        with pytest.raises(ValueError, match="unknown skip rule"):
            CampaignOutcome.from_report(stray)
