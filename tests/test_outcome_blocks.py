"""The outcome-block store behind ``CampaignDb``.

Covers the codec (``rows → block → rows`` is the identity, each column
at the narrowest width that holds it, a constant column stored once),
the schema constraint behind "a chunk is never recorded with two
payloads", and ``CampaignDb.rows()``.  The in-place migration of a
per-row database is in ``test_db_concurrency.py``.
"""

import json
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CampaignDb
from repro.core.campaign import pack_block, unpack_block


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
