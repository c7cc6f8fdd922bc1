"""Measurement primitives of the layered campaign benchmark.

Everything here measures the program from *outside* ``src/``:

* :func:`measure` — the one timing idiom: repeat a call, bracket every
  repeat with the host-speed reference kernel, return median / quartiles
  / min / max / n of both the raw and the host-normalised seconds;
* :class:`Tracer` — an in-memory span recorder (name, start, end, parent,
  attributes) with self-time attribution, written out only at exit;
* :class:`BackendProxy` / :class:`DbProxy` — timing proxies around the
  two protocol seams the engine is handed (the ``InjectionBackend``
  object and the ``CampaignDb`` object); everything they do not time is
  delegated untouched;
* :func:`outcome_digest` — the identity every repeat, every traced pass
  and every executor twin of a workload must agree on.

Only the standard library is imported at module level, so the module is
usable before ``repro`` is importable (the set-up probe times that
import).
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator, Sequence

# ----------------------------------------------------------------------
# host-speed reference
# ----------------------------------------------------------------------
#: Iterations of the reference kernel (~50 ms on the baseline sandbox).
REF_ITERS = 300_000

#: Seconds the reference kernel takes on the nominal host.  A constant,
#: not a measurement: it only fixes the unit of normalised seconds.
REF_NOMINAL_S = 0.050


def ref_kernel() -> float:
    """Time a fixed pure-Python kernel (small-int arithmetic plus 64-bit
    bitwise ops — the instruction mix of the compiled step kernels).

    The sandbox this benchmark was sized on drifts between speed plateaus
    roughly 0.8x / 1.0x / 1.3x apart that last seconds to a minute, so a
    raw wall-clock median of a 10 s run carries a 15-20 % run-to-run
    spread.  Bracketing every timed region with this kernel and scaling
    by ``REF_NOMINAL_S / measured`` removes most of it (3-4 % left).
    """
    start = time.perf_counter()
    acc = 0
    ones = (1 << 64) - 1
    word = 0x5555555555555555
    for i in range(REF_ITERS):
        acc += i * i
        word = (word ^ ones) & (ones >> 1) | (word & i)
    return time.perf_counter() - start


def timed(fn: Callable[..., Any], *args: Any) -> tuple[float, float, Any]:
    """``(raw_seconds, host_speed, result)`` of one bracketed call.

    ``host_speed`` is 1.0 on the nominal host and below 1 on a slower
    one; ``raw_seconds * host_speed`` is the normalised time.
    """
    before = ref_kernel()
    start = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - start
    after = ref_kernel()
    return raw, REF_NOMINAL_S / ((before + after) / 2.0), result


def timed_s(fn: Callable[..., Any], *args: Any) -> tuple[float, Any]:
    """``(normalised_seconds, result)`` of one bracketed call."""
    raw, speed, result = timed(fn, *args)
    return raw * speed, result


# ----------------------------------------------------------------------
# statistics + the one timing loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Stats:
    """Median and dispersion of one sample."""

    median: float
    q1: float
    q3: float
    min: float
    max: float
    n: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "Stats":
        if not values:
            raise ValueError("no samples")
        ordered = sorted(values)
        if len(ordered) >= 2:
            q1, _, q3 = statistics.quantiles(ordered, n=4)
        else:
            q1 = q3 = ordered[0]
        return cls(statistics.median(ordered), q1, q3, ordered[0],
                   ordered[-1], len(ordered))

    @property
    def spread(self) -> float:
        """Inter-quartile distance as a share of the median."""
        return (self.q3 - self.q1) / self.median if self.median else 0.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Measurement:
    """What :func:`measure` returns: per repeat the raw seconds, the host
    speed and the call's (finished) result."""

    raws: list[float]
    speeds: list[float]
    results: list[Any]

    @property
    def samples(self) -> list[float]:
        """Host-normalised seconds per repeat."""
        return [raw * speed for raw, speed in zip(self.raws, self.speeds)]

    @property
    def stats(self) -> Stats:
        return Stats.of(self.samples)

    @property
    def raw(self) -> Stats:
        return Stats.of(self.raws)

    def subset(self, keep: Sequence[int]) -> "Measurement":
        """The measurement restricted to the repeats at ``keep``."""
        return Measurement([self.raws[i] for i in keep],
                           [self.speeds[i] for i in keep],
                           [self.results[i] for i in keep])


def measure(fn: Callable[..., Any], repeats: int, warmup: int = 0, *,
            setup: Callable[[], tuple] | None = None,
            finish: Callable[[Any], Any] | None = None,
            seconds: float = 0.0) -> Measurement:
    """Time ``fn(*setup())``: ``warmup`` discarded calls, then at least
    ``repeats`` timed ones — and as many more as fit within ``seconds``
    of loop wall-clock (set-up and reference kernel included).

    ``setup`` runs before every call, outside the timed region (fresh
    backend, fresh database), followed by ``gc.collect()``; the repeats
    are therefore i.i.d. cold campaigns, not a warming sequence.
    ``finish`` maps each call's result to what is kept of it, also
    outside the timed region.
    """
    def once() -> tuple[float, float, Any]:
        args = setup() if setup is not None else ()
        gc.collect()
        raw, speed, result = timed(fn, *args)
        return raw, speed, finish(result) if finish is not None else result

    for _ in range(warmup):
        once()
    raws: list[float] = []
    speeds: list[float] = []
    results: list[Any] = []
    loop_start = time.perf_counter()

    def fits_another() -> bool:
        # past the minimum, start a repeat only if one more of the
        # average length still ends inside the budget
        elapsed = time.perf_counter() - loop_start
        return elapsed + elapsed / len(raws) < seconds

    while len(raws) < repeats or fits_another():
        raw, speed, result = once()
        raws.append(raw)
        speeds.append(speed)
        results.append(result)
    return Measurement(raws, speeds, results)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
#: Name of the span around one whole campaign (submit -> report).
ROOT_SPAN = "engine.core.run_campaign"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; nothing is written during a timed region.

    Spans nest by call order (the traced workloads are single-threaded),
    so a span's children never overlap and its self time is its duration
    minus its direct children's.
    """

    def __init__(self, **attrs: Any) -> None:
        self.attrs = attrs  # workload / seed, copied onto every span
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        record = Span(len(self.spans), name,
                      self._stack[-1] if self._stack else None,
                      time.perf_counter(), attrs={**self.attrs, **attrs})
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def descendants(self, root: Span) -> list[Span]:
        """``root`` and every span beneath it, in start order."""
        keep = {root.id}
        out = [root]
        for span in self.spans[root.id + 1:]:
            if span.parent in keep:
                keep.add(span.id)
                out.append(span)
        return out

    def self_times(self, root: Span) -> dict[str, tuple[float, int]]:
        """``{name: (self seconds, calls)}`` over ``root``'s subtree; the
        self seconds sum to ``root.duration`` exactly."""
        spans = self.descendants(root)
        covered: dict[int, float] = {}
        for span in spans[1:]:
            covered[span.parent] = covered.get(span.parent, 0.0) \
                + span.duration
        out: dict[str, tuple[float, int]] = {}
        for span in spans:
            seconds, calls = out.get(span.name, (0.0, 0))
            out[span.name] = (seconds + span.duration
                              - covered.get(span.id, 0.0), calls + 1)
        return out

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


# ----------------------------------------------------------------------
# the two seam proxies
# ----------------------------------------------------------------------
class BackendProxy:
    """An ``InjectionBackend`` whose protocol calls are recorded as spans.

    Attribute access falls through to the wrapped backend, so optional
    protocol members (``filter_points``, ``use_filter``, ``lane_width``,
    ``campaign_finished``, ...) exist on the proxy exactly when they
    exist on the backend.  In-process only: the process and service
    workloads ship the bare backend.
    """

    _TIMED = {
        "enumerate_points": "engine.backends.enumerate",
        "filter_points": "engine.backends.filter",
        "prepare": "engine.backends.prepare",
        "run_batch": "engine.backends.run_batch",
    }

    def __init__(self, backend: Any, tracer: Tracer) -> None:
        self._backend = backend
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._backend, name)
        span_name = self._TIMED.get(name)
        if span_name is None:
            return attr
        tracer = self._tracer

        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(span_name):
                return attr(*args, **kwargs)

        return traced


class DbProxy:
    """A ``CampaignDb`` whose writes, commits and resume reads are spans.

    ``transaction()`` is re-wrapped so that leaving the block — the
    commit — is its own span; the body between enter and exit stays
    attributed to whoever runs it (the engine's accounting loop).
    """

    _TIMED = {
        "record_many": "core.campaign.record_many",
        "record_chunk": "core.campaign.record_chunk",
        "campaign_params": "core.campaign.read",
        "chunk_records": "core.campaign.read",
        "chunk_rows": "core.campaign.read",
    }

    def __init__(self, db: Any, tracer: Tracer) -> None:
        self._db = db
        self._tracer = tracer
        self.rows_written = 0

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._db, name)
        span_name = self._TIMED.get(name)
        if span_name is None:
            return attr
        tracer = self._tracer

        def traced(*args: Any, **kwargs: Any) -> Any:
            if name == "record_many":
                self.rows_written += len(args[1])
            elif name == "record_chunk":
                self.rows_written += len(args[2])
            with tracer.span(span_name):
                return attr(*args, **kwargs)

        return traced

    @contextmanager
    def transaction(self) -> Iterator["DbProxy"]:
        inner = self._db.transaction()
        inner.__enter__()
        try:
            yield self
        except BaseException as exc:
            if not inner.__exit__(type(exc), exc, exc.__traceback__):
                raise
        else:
            with self._tracer.span("core.campaign.commit"):
                inner.__exit__(None, None, None)


# ----------------------------------------------------------------------
# identity
# ----------------------------------------------------------------------
def outcome_digest(report: Any, ci_outcome: str) -> str:
    """sha1 over every ``(location, cycle, outcome)`` row in accounting
    order (executed chunks, then the filter census), the outcome counts,
    ``converged`` and the confidence interval of ``ci_outcome``."""
    sha = hashlib.sha1()
    for inj in report.injections:
        sha.update(f"{inj.location}|{inj.cycle}|{inj.outcome}\n".encode())
    sha.update(b"--census--\n")
    for inj in report.skipped:
        sha.update(f"{inj.location}|{inj.cycle}|{inj.outcome}\n".encode())
    ci = report.confidence_interval(ci_outcome)
    sha.update(repr((sorted(report.outcomes.items()), report.converged,
                     ci.low, ci.high)).encode())
    return sha.hexdigest()


def probe(notes: list[str], fn: Callable[[], dict], name: str) -> dict:
    """Run one per-layer probe; a probe whose entry point is gone (a
    later PR deleted or renamed it) yields no metrics and a note instead
    of a crash — end-to-end metrics never depend on a probe."""
    try:
        return fn()
    except (ImportError, AttributeError) as exc:
        notes.append(f"{name}: entry point missing "
                     f"({type(exc).__name__}: {exc})")
        return {}
