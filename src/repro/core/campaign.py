"""Fault-campaign result database (paper IV.A).

"RESCUE aims at generating and providing to the community large
databases with the results of fault simulation campaigns and reliability
analysis of complex circuits."  This module is that database: campaign
records persist to SQLite (stdlib), are queryable by circuit/fault
model/outcome, and aggregate into the cross-campaign statistics that
downstream cross-layer techniques consume.

**Outcomes are stored as packed blocks, not rows.**  Every
:meth:`CampaignDb.record_many` / :meth:`CampaignDb.record_chunk` call
writes its ``(location, cycle, outcome)`` triples as *one* BLOB row of
``outcome_blocks(campaign_id, chunk_index, n_points, payload)`` — the
filter census of a campaign is the block with ``chunk_index IS NULL``.
A block is self-contained (:func:`pack_block` / :func:`unpack_block`):

* one line of ASCII JSON, newline-terminated —
  ``{"n": points, "locations": [...], "outcomes": [...],
  "columns": [[typecode, items], ...]}`` with the block's distinct
  locations and outcomes in first-appearance order;
* three little-endian fixed-width columns in that order — location
  index, cycle, outcome code — each at the narrowest :mod:`array`
  typecode its values fit (``B H I Q`` for the two index columns,
  signed ``b h i q`` for ``cycle``; 1/2/4/8 bytes); a column whose
  values are all equal is stored once (``items == 1``).

There is no block-external dictionary, so a block decodes on its own:
concurrent writers never contend on a shared string table and a
copied-out BLOB is the interchange unit.  In memory a block is an
:class:`Outcomes` — one chunk's points, or the filter census, as
columns — which is what the campaign engine carries from a backend to
:meth:`CampaignDb.record_chunk` (and the census from the filter to
:meth:`CampaignDb.record_many`), packed straight from its columns, and
what :meth:`CampaignDb.chunk_rows` hands back on resume.  Every read
side — :meth:`CampaignDb.chunk_rows`, :meth:`CampaignDb.summary`,
:meth:`CampaignDb.failure_rate_by_location`,
:meth:`CampaignDb.cross_campaign_outcomes` — sits behind the decoder,
and :meth:`CampaignDb.rows` yields the flat ``(campaign_id, chunk_index,
location, cycle, outcome)`` rows in write order for whoever wants them
back (one ``executemany`` over it rebuilds a SQL table).  A database
written by an older version (one ``injections`` row per point) is
packed **in place** the first time it is opened.

The store is also the engine's **checkpoint log**: each executed chunk
of a campaign is recorded — its block plus a ``chunks`` row keyed by
``(campaign_id, chunk_index)`` — inside one transaction, so a killed
campaign restarts from its last committed chunk
(:func:`repro.engine.core.run_campaign` with ``resume=``).  File-backed
connections run in WAL mode with a busy timeout, and chunk writes are
idempotent (``INSERT OR IGNORE`` on the chunk key): replaying a chunk
whose record already committed is a no-op, so a crash between commit
and checkpoint can never double-count on resume.  A ``UNIQUE`` partial
index on ``outcome_blocks(campaign_id, chunk_index)`` makes "a chunk is
never recorded with two payloads" a constraint of the schema.

On top of the checkpoint log sit the **campaign-service tables**
(:mod:`repro.service`): ``service_jobs`` (the submit/poll/cancel
queue), ``leases`` (per-chunk work claims — ``(campaign_id,
chunk_index, worker_id, deadline)`` rows that any number of worker
processes/hosts contend for with atomic conditional UPDATEs), and
``service_workers`` (heartbeat + failure accounting per worker).  The
schema is shared-file multi-writer by design: every table is keyed so
writes are single-row and conditional, and WAL plus the busy timeout
serialize concurrent workers without lost updates.
"""

from __future__ import annotations

import json
import sqlite3
import sys
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    circuit TEXT NOT NULL,
    fault_model TEXT NOT NULL,
    workload TEXT NOT NULL,
    params TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS outcome_blocks (
    id INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    chunk_index INTEGER,
    n_points INTEGER NOT NULL,
    payload BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS chunks (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    chunk_index INTEGER NOT NULL,
    seed INTEGER NOT NULL DEFAULT 0,
    n_points INTEGER NOT NULL DEFAULT 0,
    status TEXT NOT NULL DEFAULT 'done',
    attempts INTEGER NOT NULL DEFAULT 1,
    error TEXT,
    PRIMARY KEY (campaign_id, chunk_index)
);
CREATE TABLE IF NOT EXISTS leases (
    campaign_id INTEGER NOT NULL,
    chunk_index INTEGER NOT NULL,
    state TEXT NOT NULL DEFAULT 'pending',
    worker_id TEXT,
    deadline REAL,
    attempts INTEGER NOT NULL DEFAULT 0,
    takeovers INTEGER NOT NULL DEFAULT 0,
    error TEXT,
    PRIMARY KEY (campaign_id, chunk_index)
);
CREATE TABLE IF NOT EXISTS service_jobs (
    id INTEGER PRIMARY KEY,
    state TEXT NOT NULL DEFAULT 'pending',
    payload BLOB NOT NULL,
    campaign_id INTEGER,
    fingerprint TEXT,
    n_chunks INTEGER,
    converged_chunk INTEGER,
    submitted_at REAL,
    started_at REAL,
    finished_at REAL,
    error TEXT
);
CREATE TABLE IF NOT EXISTS service_workers (
    worker_id TEXT PRIMARY KEY,
    pid INTEGER,
    host TEXT,
    state TEXT NOT NULL DEFAULT 'alive',
    started_at REAL,
    last_heartbeat REAL,
    chunks_done INTEGER NOT NULL DEFAULT 0,
    failures INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_block_campaign ON outcome_blocks(campaign_id);
CREATE UNIQUE INDEX IF NOT EXISTS idx_block_chunk
    ON outcome_blocks(campaign_id, chunk_index)
    WHERE chunk_index IS NOT NULL;
CREATE INDEX IF NOT EXISTS idx_lease_state ON leases(campaign_id, state);
"""

#: How long a writer waits on a locked database before failing (ms).
BUSY_TIMEOUT_MS = 5000

_U64 = 1 << 64
_I64_MAX = (1 << 63) - 1


def _seed_to_db(seed: int) -> int:
    """Chunk seeds are unsigned 64-bit; SQLite INTEGER is signed 64-bit.
    Store the two's-complement image and invert on read."""
    return seed - _U64 if seed > _I64_MAX else seed


def _seed_from_db(stored: int) -> int:
    return stored + _U64 if stored < 0 else stored


# ----------------------------------------------------------------------
# the block codec: (location, cycle, outcome) rows <-> one BLOB
# ----------------------------------------------------------------------
Row = tuple[str, int, str]

_INDEX_CODES = "BHIQ"   # 1/2/4/8-byte unsigned: dictionary indices
_CYCLE_CODES = "bhiq"   # 1/2/4/8-byte signed: cycles may be negative
#: the values each typecode holds
_RANGES = {code: (0, (1 << 8 * array(code).itemsize) - 1)
           for code in _INDEX_CODES} | {
    code: (-(1 << 8 * array(code).itemsize - 1),
           (1 << 8 * array(code).itemsize - 1) - 1) for code in _CYCLE_CODES}


def _dictionary(values: Sequence[str]) -> tuple[list[str], bytes | array]:
    """Distinct ``values`` in first-appearance order, and each value's
    index into them: one byte each up to 256 distinct values."""
    names = list(dict.fromkeys(values))
    if len(names) == 1:
        return names, bytes(len(values))
    ids = map(dict(zip(names, range(len(names)))).__getitem__, values)
    return names, bytes(ids) if len(names) <= 256 else array("I", ids)


def _pack_column(codes: str, values: Iterable[int], lo: int,
                 hi: int) -> tuple[str, array]:
    """``values`` (all within ``[lo, hi]``) at the narrowest typecode of
    ``codes`` that holds both bounds; a constant column keeps one item.
    ``bytes`` values are one-byte indices, and so ``B``.  Past 64 bits
    the widest typecode raises ``OverflowError``, as the SQLite INTEGER
    column it replaces did."""
    code = next((code for code in codes
                 if _RANGES[code][0] <= lo and hi <= _RANGES[code][1]),
                codes[-1])
    column = array(code, (lo,) if lo == hi else values)
    if sys.byteorder == "big":
        column.byteswap()
    return code, column


def _names_json(names: Sequence[str]) -> str:
    """``json.dumps(names)`` of a list of strings, ASCII-escaped."""
    return f"[{','.join(map(encode_basestring_ascii, names))}]"


def _encode(locations: Sequence[str], cycles: Sequence[int],
            outcome_names: list[str], outcome_ids: bytes | array) -> bytes:
    """One block from its location and cycle columns and its outcome
    dictionary (names in first-appearance order, one index per point)."""
    location_names, location_ids = _dictionary(locations)
    columns = [
        _pack_column(_INDEX_CODES, location_ids,
                     0, max(len(location_names) - 1, 0)),
        _pack_column(_CYCLE_CODES, cycles,
                     min(cycles, default=0), max(cycles, default=0)),
        _pack_column(_INDEX_CODES, outcome_ids,
                     0, max(len(outcome_names) - 1, 0)),
    ]
    # what json.dumps(separators=(",", ":")) makes of the header dict;
    # ensure_ascii escaping escapes every control character, so the
    # first newline of a block is always the end of its header
    header = (f'{{"n":{len(cycles)},'
              f'"locations":{_names_json(location_names)},'
              f'"outcomes":{_names_json(outcome_names)},"columns":['
              + ",".join(f'["{code}",{len(column)}]'
                         for code, column in columns) + "]}")
    return b"".join([header.encode("ascii"), b"\n",
                     *(column.tobytes() for _, column in columns)])


def pack_block(rows: Sequence[Row]) -> bytes:
    """Encode ``rows`` as one self-contained block (format: module
    docstring).  ``unpack_block(pack_block(rows)) == list(rows)``; a
    chunk already held as an :class:`Outcomes` block packs to the same
    bytes with :meth:`Outcomes.pack`."""
    locations, cycles, outcomes = zip(*rows) if rows else ((), (), ())
    return _encode(locations, cycles, *_dictionary(outcomes))


def unpack_block(payload: bytes) -> list[Row]:
    """Decode one block back into its ``(location, cycle, outcome)``
    rows, in the order they were recorded."""
    return Outcomes.unpack(payload).rows()


class ListSequence(Sequence):
    """A read-only sequence that compares equal to, and concatenates
    like, the list of its items (``+`` either way gives a ``list``)."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: Iterable) -> list:
        return [*self, *other]

    def __radd__(self, other: Iterable) -> list:
        return [*other, *self]


class Outcomes(ListSequence):
    """One chunk's executed points, or a filter's census of the points it
    resolved, as columns — what a backend returns, the engine folds, the
    database stores and the report reads.

    ``points`` is the chunk by reference (``None`` on a block read back
    from the database, which stores no points); ``locations`` and
    ``cycles`` are one entry per point; ``codes`` is one index per point
    into the ``names`` of the block's outcomes — ``bytes``, or an
    ``array`` past 256 outcomes; ``details`` is the backends' per-point
    extras, or ``None`` when there are none.  Readers take the columns
    through :meth:`column` (which decodes the outcomes), :meth:`tally`
    (one ``count`` per outcome) and :func:`rate_by_location`;
    :meth:`pack` encodes the block with no row in between (byte for
    byte what :func:`pack_block` makes of the same rows, so either reads
    the other's databases).

    It is also a ``Sequence[Injection]``: indexing and iterating build
    the chunk's :class:`repro.engine.core.Injection` records — once, on
    first read, then cached — so it compares equal to the list the
    backend would have returned.  A block without points has no records
    to build: its items are its ``(location, cycle, outcome)`` rows.
    """

    __slots__ = ("points", "locations", "cycles", "codes", "names",
                 "details", "_items")

    def __init__(self, points: Sequence[Any] | None,
                 locations: Sequence[str], cycles: Sequence[int],
                 codes: bytes | array, names: Sequence[str],
                 details: Sequence[Any] | None = None) -> None:
        self.points, self.locations, self.cycles = points, locations, cycles
        self.codes, self.names, self.details = codes, tuple(names), details
        self._items: list | None = None

    @classmethod
    def of(cls, injections: Sequence[Any]) -> "Outcomes":
        """The block of a list of ``Injection`` records (what a backend
        without a columnar path returns); the list itself is kept as the
        block's records, ``detail`` and all."""
        if not injections:
            return cls((), (), (), b"", ())
        points, locations, cycles, outcomes, details = zip(*injections)
        names, codes = _dictionary(outcomes)
        block = cls(points, locations, cycles, codes, names,
                    None if details.count(None) == len(details)
                    else details)
        block._items = list(injections)
        return block

    @classmethod
    def unpack(cls, payload: bytes) -> "Outcomes":
        """Decode one stored block (format: module docstring); it has no
        points, and no per-point outcome string is built."""
        end = payload.index(b"\n")
        header = json.loads(payload[:end])
        n, offset, columns = header["n"], end + 1, []
        for code, items in header["columns"]:
            column = array(code)
            size = items * column.itemsize
            column.frombytes(payload[offset:offset + size])
            offset += size
            if sys.byteorder == "big":
                column.byteswap()
            columns.append(column * n if items == 1 else column)
        names = header["outcomes"]
        location_ids, cycles, outcome_ids = columns
        if (offset != len(payload)
                or any(len(column) != n for column in columns)
                or n and max(outcome_ids) >= len(names)):
            raise ValueError("corrupt outcome block: columns do not match"
                             f" its header ({n} points)")
        return cls(None, list(map(header["locations"].__getitem__,
                                  location_ids)),
                   cycles.tolist(), bytes(outcome_ids)
                   if outcome_ids.itemsize == 1 else outcome_ids, names)

    def pack(self) -> bytes:
        """The stored form: :func:`pack_block` of :meth:`rows`, built
        from the columns (the outcome dictionary is the codes present,
        renumbered in first-appearance order by one ``translate``)."""
        present, codes = self._present(), self.codes
        if isinstance(codes, bytes):
            table = bytearray(256)
            for new, code in enumerate(present):
                table[code] = new
            ids = codes.translate(table)
        else:
            ids = map({code: new for new, code in enumerate(present)}
                      .__getitem__, codes)
        return _encode(self.locations, self.cycles,
                       [self.names[code] for code in present], ids)

    def _present(self) -> list[int]:
        """The codes that occur, in first-appearance order."""
        codes = self.codes
        if isinstance(codes, bytes):  # a few names: a few C scans
            return sorted(filter(codes.__contains__, range(len(self.names))),
                          key=codes.find)
        return list(dict.fromkeys(codes))

    def with_points(self, points: Sequence[Any]) -> "Outcomes":
        """This block's columns with ``points`` attached (a replayed
        chunk gets its points back from the plan)."""
        return Outcomes(points, self.locations, self.cycles, self.codes,
                        self.names, self.details)

    def column(self, name: str) -> Iterable:
        """One per-point column — ``"points"``, ``"locations"``,
        ``"cycles"``, ``"outcomes"`` (decoded from the codes) or
        ``"details"`` (a ``None`` per point on a block without them); a
        block read back from the database has no points (``None``)."""
        if name == "outcomes":
            return map(self.names.__getitem__, self.codes)
        values = getattr(self, name)
        if values is None and name == "details":
            return repeat(None, len(self))
        return values

    def tally(self) -> dict[str, int]:
        """Points per outcome, in first-appearance order."""
        return {self.names[code]: self.codes.count(code)
                for code in self._present()}

    def rows(self) -> list[Row]:
        """The stored ``(location, cycle, outcome)`` triples, in order."""
        return list(zip(self.locations, self.cycles, self.column("outcomes")))

    def _records(self) -> list:
        if self._items is None:
            if self.points is None:
                self._items = self.rows()
            else:
                from ..engine.core import Injection  # engine imports core
                self._items = list(map(
                    partial(tuple.__new__, Injection),
                    zip(self.points, self.locations, self.cycles,
                        self.column("outcomes"), self.column("details"))))
        return self._items

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        return self._records()[index]

    def __iter__(self) -> Iterator:
        return iter(self._records())

    def __reduce__(self) -> tuple:
        # the columns travel, the cached records are rebuilt on arrival
        return (Outcomes, (self.points, self.locations, self.cycles,
                           self.codes, self.names, self.details))

    def __repr__(self) -> str:
        return (f"Outcomes({len(self)} points: "
                f"{', '.join(f'{k}={v}' for k, v in self.tally().items())})")


def rate_by_location(blocks: Iterable[Outcomes],
                     outcome: str) -> dict[str, float]:
    """Per location, the share of its points over ``blocks`` that ended
    in ``outcome`` — a flop's AVF when ``outcome`` is the failure —
    locations in first-appearance order."""
    totals: Counter[str] = Counter()
    hits: Counter[str] = Counter()
    for block in blocks:
        totals.update(block.locations)
        hits.update(compress(block.locations,
                             map(outcome.__eq__, block.column("outcomes"))))
    return {location: hits[location] / n for location, n in totals.items()}


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregated view of one stored campaign."""

    campaign_id: int
    name: str
    circuit: str
    fault_model: str
    total: int
    outcomes: dict[str, int]

    def rate(self, outcome: str) -> float:
        return self.outcomes.get(outcome, 0) / self.total if self.total else 0.0


@dataclass(frozen=True)
class ChunkRecord:
    """One checkpointed chunk of a campaign.

    ``status`` is ``"done"`` (executed, its outcome block committed in
    the same transaction) or ``"failed"`` (quarantined after exhausting
    its retries — no block; resume re-executes it).
    """

    chunk_index: int
    seed: int
    n_points: int
    status: str
    attempts: int
    error: str | None


class CampaignDb:
    """SQLite-backed campaign store (':memory:' by default)."""

    def __init__(self, path: str | Path = ":memory:") -> None:
        # check_same_thread=False: the engine only ever writes from its
        # accounting thread, but that may not be the thread that built
        # this object (e.g. a campaign dispatched onto an outer pool).
        self.conn = sqlite3.connect(str(path), check_same_thread=False)
        # Crash consistency + concurrency: WAL keeps readers unblocked
        # and makes every committed transaction durable across a killed
        # process (in-memory databases report 'memory' and are
        # unaffected); the busy timeout retries instead of failing when
        # another campaign holds the write lock.
        self.conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        self.conn.execute("PRAGMA journal_mode=WAL")
        self.conn.execute("PRAGMA synchronous=NORMAL")
        self.conn.executescript(_SCHEMA)
        self._tx_depth = 0
        self._migrate()

    def _has_legacy_table(self) -> bool:
        return bool(self.conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type='table'"
            " AND name='injections'").fetchall())

    def _migrate(self) -> None:
        """Pack a pre-block database in place: older versions stored one
        ``injections`` row per point (the oldest without a
        ``chunk_index`` column — every row of those is census).

        Rows are packed per ``(campaign_id, chunk_index)`` in ``id``
        order, groups in order of their first row, and the table is
        dropped in the same ``BEGIN IMMEDIATE`` transaction.  Service
        workers open the same file concurrently, so the check is
        repeated under the write lock: the loser of the race finds
        nothing left to migrate.
        """
        if not self._has_legacy_table():
            return
        self.conn.execute("BEGIN IMMEDIATE")
        try:
            if self._has_legacy_table():
                columns = {row[1] for row in self.conn.execute(
                    "PRAGMA table_info(injections)")}
                chunk = "chunk_index" if "chunk_index" in columns else "NULL"
                groups = self.conn.execute(
                    f"SELECT campaign_id, {chunk}, MIN(id) FROM injections"
                    " GROUP BY 1, 2 ORDER BY 3").fetchall()
                for campaign_id, chunk_index, _ in groups:
                    rows = self.conn.execute(
                        "SELECT location, cycle, outcome FROM injections"
                        f" WHERE campaign_id=? AND {chunk} IS ? ORDER BY id",
                        (campaign_id, chunk_index)).fetchall()
                    self._insert_block(campaign_id, chunk_index, rows)
                self.conn.execute("DROP TABLE injections")
            self.conn.commit()
        except BaseException:
            self.conn.rollback()
            raise

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "CampaignDb":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def create_campaign(self, name: str, circuit: str, fault_model: str,
                        workload: str, params: dict | None = None) -> int:
        cur = self.conn.execute(
            "INSERT INTO campaigns (name, circuit, fault_model, workload, params)"
            " VALUES (?, ?, ?, ?, ?)",
            (name, circuit, fault_model, workload, json.dumps(params or {})))
        self._maybe_commit()
        return int(cur.lastrowid)

    def campaign_params(self, campaign_id: int) -> dict:
        """The params dict a campaign was created with (resume reads the
        config fingerprint out of it)."""
        row = self.conn.execute(
            "SELECT params FROM campaigns WHERE id=?",
            (campaign_id,)).fetchone()
        if row is None:
            raise KeyError(f"no campaign {campaign_id}")
        return json.loads(row[0])

    @contextmanager
    def transaction(self) -> Iterator["CampaignDb"]:
        """Batch several record/record_many calls into one commit.

        Inside the block, per-call commits are suppressed; the whole batch
        commits on clean exit and rolls back on exception.  Nested blocks
        join the outermost transaction.
        """
        self._tx_depth += 1
        try:
            yield self
        except BaseException:
            self._tx_depth -= 1
            if self._tx_depth == 0:
                self.conn.rollback()
            raise
        else:
            self._tx_depth -= 1
            if self._tx_depth == 0:
                self.conn.commit()

    def _maybe_commit(self) -> None:
        if self._tx_depth == 0:
            self.conn.commit()

    def record(self, campaign_id: int, location: str, cycle: int,
               outcome: str) -> None:
        """Record one point — a one-row :meth:`record_many` (durable:
        commits unless in a :meth:`transaction` block)."""
        self.record_many(campaign_id, [(location, cycle, outcome)])

    def record_many(self, campaign_id: int, rows: Sequence[Row] | Outcomes,
                    chunk_index: int | None = None) -> None:
        """Record ``rows`` (or an :class:`Outcomes` block) as one packed
        block (census rows unless ``chunk_index`` names the chunk they
        belong to)."""
        self._insert_block(campaign_id, chunk_index, rows)
        self._maybe_commit()

    def _insert_block(self, campaign_id: int, chunk_index: int | None,
                      rows: Sequence[Row] | Outcomes) -> None:
        if rows:
            self.conn.execute(
                "INSERT INTO outcome_blocks (campaign_id, chunk_index,"
                " n_points, payload) VALUES (?, ?, ?, ?)",
                (campaign_id, chunk_index, len(rows),
                 rows.pack() if isinstance(rows, Outcomes)
                 else pack_block(rows)))

    # ------------------------------------------------------------------
    # chunk checkpointing: the engine's crash-consistent progress log
    # ------------------------------------------------------------------
    def record_chunk(self, campaign_id: int, chunk_index: int,
                     rows: Sequence[Row] | Outcomes, seed: int = 0,
                     status: str = "done", attempts: int = 1,
                     error: str | None = None) -> bool:
        """Checkpoint one chunk: its :class:`Outcomes` block (packed
        straight from its columns) or its rows as one block, plus a
        ``chunks`` record, idempotently.

        ``INSERT OR IGNORE`` on the ``(campaign_id, chunk_index)`` key
        makes replays no-ops: if the chunk record already committed, the
        block is *not* written again, so resuming past an
        already-checkpointed chunk can never double-count.  The one
        permitted overwrite is ``failed`` → ``done``: a quarantined
        chunk that a later resume re-executed successfully upgrades its
        record (a quarantine row carries no block, so nothing is
        replaced).  Call inside :meth:`transaction` to bundle several
        chunks into one crash-consistent commit.

        Returns True when the chunk was newly recorded (or upgraded).
        """
        cur = self.conn.execute(
            "INSERT OR IGNORE INTO chunks (campaign_id, chunk_index, seed,"
            " n_points, status, attempts, error) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (campaign_id, chunk_index, _seed_to_db(seed), len(rows), status,
             attempts, error))
        fresh = cur.rowcount > 0
        if not fresh:
            prev = self.conn.execute(
                "SELECT status FROM chunks WHERE campaign_id=? AND"
                " chunk_index=?", (campaign_id, chunk_index)).fetchone()[0]
            if prev == "failed" and status == "done":
                self.conn.execute(
                    "UPDATE chunks SET status='done', n_points=?, attempts=?,"
                    " error=NULL WHERE campaign_id=? AND chunk_index=?",
                    (len(rows), attempts, campaign_id, chunk_index))
                fresh = True
        if fresh and status == "done":
            self._insert_block(campaign_id, chunk_index, rows)
        self._maybe_commit()
        return fresh

    def chunk_records(self, campaign_id: int) -> dict[int, ChunkRecord]:
        """Every checkpointed chunk of a campaign, keyed by index."""
        return {
            index: ChunkRecord(index, _seed_from_db(seed), n_points, status,
                               attempts, error)
            for index, seed, n_points, status, attempts, error
            in self.conn.execute(
                "SELECT chunk_index, seed, n_points, status, attempts, error"
                " FROM chunks WHERE campaign_id=? ORDER BY chunk_index",
                (campaign_id,))
        }

    def chunk_rows(self, campaign_id: int) -> dict[int, Outcomes]:
        """Checkpointed chunks as :class:`Outcomes` blocks (no points;
        their items are the rows), keyed by chunk, each in the order it
        recorded them (= execution order within the chunk)."""
        return {
            chunk_index: Outcomes.unpack(payload)
            for chunk_index, payload in self.conn.execute(
                "SELECT chunk_index, payload FROM outcome_blocks"
                " WHERE campaign_id=? AND chunk_index IS NOT NULL"
                " ORDER BY chunk_index", (campaign_id,))
        }

    def _blocks(self, campaign_id: int | None
                ) -> Iterator[tuple[int, int | None, bytes]]:
        """``(campaign_id, chunk_index, payload)`` of one campaign's (or
        every) block, in write order."""
        where, args = ("", ()) if campaign_id is None else (
            " WHERE campaign_id=?", (campaign_id,))
        return self.conn.execute(
            "SELECT campaign_id, chunk_index, payload FROM outcome_blocks"
            f"{where} ORDER BY id", args)

    def rows(self, campaign_id: int | None = None
             ) -> Iterator[tuple[int, int | None, str, int, str]]:
        """Every recorded point of one campaign (or of the whole store)
        as flat ``(campaign_id, chunk_index, location, cycle, outcome)``
        rows in write order; ``chunk_index`` is ``None`` on census rows."""
        for block_campaign, chunk_index, payload in self._blocks(campaign_id):
            for location, cycle, outcome in unpack_block(payload):
                yield block_campaign, chunk_index, location, cycle, outcome

    def _outcome_counts(self, campaign_id: int | None) -> dict[str, int]:
        counts: Counter[str] = Counter()
        for _, _, payload in self._blocks(campaign_id):
            counts.update(Outcomes.unpack(payload).tally())
        return dict(sorted(counts.items()))

    # ------------------------------------------------------------------
    def summary(self, campaign_id: int) -> CampaignSummary:
        row = self.conn.execute(
            "SELECT name, circuit, fault_model FROM campaigns WHERE id=?",
            (campaign_id,)).fetchone()
        if row is None:
            raise KeyError(f"no campaign {campaign_id}")
        outcomes = self._outcome_counts(campaign_id)
        return CampaignSummary(campaign_id, row[0], row[1], row[2],
                               sum(outcomes.values()), outcomes)

    def campaigns_for(self, circuit: str) -> list[int]:
        return [r[0] for r in self.conn.execute(
            "SELECT id FROM campaigns WHERE circuit=? ORDER BY id", (circuit,))]

    def failure_rate_by_location(self, campaign_id: int,
                                 failure_outcome: str = "failure") -> dict[str, float]:
        """Per-location failure probability — AVF-style aggregation."""
        return rate_by_location(
            (Outcomes.unpack(payload)
             for _, _, payload in self._blocks(campaign_id)),
            failure_outcome)

    def cross_campaign_outcomes(self) -> dict[str, int]:
        """Community-database view: outcome histogram over everything."""
        return self._outcome_counts(None)
