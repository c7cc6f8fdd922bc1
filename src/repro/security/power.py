"""Power-analysis attacks and leakage assessment (III.F).

Implements the standard toolbox against the instrumented AES cores:

* **CPA** (correlation power analysis): hypothesize each key byte,
  predict HW(SBOX(pt ⊕ k)) and correlate against the measured round-1
  power samples; the right key ranks first once enough traces accumulate
  — success-rate-vs-traces is the headline curve.
* **TVLA** fixed-vs-random leakage assessment on the same traces, the
  pass/fail gate used before attempting attacks.

Against :class:`~repro.crypto.aes.AesLeaky` CPA recovers the key with
tens of traces; against :class:`AesConstantTime` (masked) both TVLA and
CPA stay silent — the countermeasure story of the RESCUE security line.

Trace acquisition runs on the unified campaign engine
(:class:`repro.engine.ScaTraceBackend`): CPA and TVLA consume
engine-produced traces, ``collect_traces``/``tvla`` gain
``db=``/``workers=``/``executor=``, and ``trace_campaign`` also returns
the engine's :class:`~repro.engine.CampaignReport`.  Masked ciphers
stay sound under parallel collection via the ``cipher.fork(seed)``
protocol — each trace gets an independent, point-seeded mask stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..core.stats import welch_t_test
from ..crypto.aes import SBOX, hamming_weight

TVLA_THRESHOLD = 4.5


@dataclass
class TraceSet:
    """Plaintexts and their power traces (rows: traces, cols: samples)."""

    plaintexts: list[bytes] = field(default_factory=list)
    power: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.plaintexts)


def _random_plaintexts(n: int, seed: int) -> list[bytes]:
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(16)) for _ in range(n)]


def _run_trace_campaign(cipher, points, seed, db, workers, executor,
                        batch_size: int = 16):
    """Engine execution shared by collection and TVLA campaigns."""
    from ..engine.core import EngineConfig, run_campaign
    from ..engine.workloads import ScaTraceBackend

    backend = ScaTraceBackend(cipher, points, seed=seed)
    return run_campaign(
        backend, EngineConfig(batch_size=batch_size, workers=workers,
                              executor=executor), db=db)


def trace_campaign(cipher, n_traces: int, seed: int = 0, db=None,
                   workers: int = 1, executor: str = "auto"):
    """Collect random-plaintext traces on the unified engine.

    Returns ``(TraceSet, CampaignReport)``; the trace set is what
    :func:`cpa_attack`/:func:`recover_key` consume.
    """
    points = [(i, "collected", pt)
              for i, pt in enumerate(_random_plaintexts(n_traces, seed))]
    report = _run_trace_campaign(cipher, points, seed, db, workers, executor)
    view = report.injections  # in point order: the fold goes by chunk
    plaintexts = [pt for _index, _group, pt in view.column("points")]
    rows = [power for _cycles, power in view.column("details")]
    return TraceSet(plaintexts, np.asarray(rows, dtype=float)), report


def collect_traces(cipher, n_traces: int, seed: int = 0, db=None,
                   workers: int = 1, executor: str = "auto") -> TraceSet:
    """Encrypt random plaintexts, recording the power samples.

    Runs on the unified campaign engine (``db``/``workers``/``executor``
    passthrough); plaintext sequence is identical to the pre-port loop.
    """
    traces, _report = trace_campaign(cipher, n_traces, seed, db=db,
                                     workers=workers, executor=executor)
    return traces


def cpa_attack(traces: TraceSet, byte_index: int) -> tuple[int, np.ndarray]:
    """CPA on one key byte; returns (best key guess, per-guess |r|)."""
    if traces.power is None or traces.n == 0:
        raise ValueError("empty trace set")
    measured = traces.power[:, byte_index]
    pts = np.array([pt[byte_index] for pt in traces.plaintexts])
    correlations = np.zeros(256)
    m_centered = measured - measured.mean()
    m_norm = np.sqrt((m_centered ** 2).sum())
    if m_norm == 0:
        return 0, correlations
    for guess in range(256):
        predicted = np.array([hamming_weight(SBOX[p ^ guess]) for p in pts],
                             dtype=float)
        p_centered = predicted - predicted.mean()
        p_norm = np.sqrt((p_centered ** 2).sum())
        if p_norm == 0:
            continue
        correlations[guess] = abs(float(m_centered @ p_centered) / (m_norm * p_norm))
    return int(np.argmax(correlations)), correlations


def recover_key(traces: TraceSet) -> bytes:
    """CPA over all 16 key bytes."""
    return bytes(cpa_attack(traces, i)[0] for i in range(16))


def success_rate_curve(
    cipher_factory,
    true_key: bytes,
    trace_counts: list[int],
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Fraction of correctly recovered key bytes vs number of traces."""
    out = []
    biggest = max(trace_counts)
    full = collect_traces(cipher_factory(), biggest, seed)
    for n in trace_counts:
        subset = TraceSet(full.plaintexts[:n], full.power[:n])
        recovered = recover_key(subset)
        correct = sum(1 for a, b in zip(recovered, true_key) if a == b)
        out.append((n, correct / 16))
    return out


@dataclass
class TvlaReport:
    """Fixed-vs-random leakage assessment result."""

    max_t: float
    per_sample_t: list[float]
    threshold: float = TVLA_THRESHOLD

    @property
    def leaks(self) -> bool:
        return self.max_t > self.threshold


def tvla_campaign(cipher, n_traces: int = 200, seed: int = 0, db=None,
                  workers: int = 1, executor: str = "auto"):
    """Fixed-vs-random leakage assessment on the unified engine.

    Points interleave the fixed and random populations exactly like the
    bench-style serial loop; the campaign's outcome histogram is the
    group split.  Returns ``(TvlaReport, CampaignReport)``.
    """
    fixed_pt = bytes(range(16))
    randoms = _random_plaintexts(n_traces, seed)
    points = []
    for i in range(n_traces):
        points.append((2 * i, "fixed", fixed_pt))
        points.append((2 * i + 1, "random", randoms[i]))
    report = _run_trace_campaign(cipher, points, seed, db, workers, executor)
    rows = {"fixed": [], "random": []}
    view = report.injections
    for group, (_cycles, power) in zip(view.column("outcomes"),
                                       view.column("details")):
        rows[group].append(power)
    return _tvla_from_rows(rows["fixed"], rows["random"]), report


def tvla(cipher, n_traces: int = 200, seed: int = 0, db=None,
         workers: int = 1, executor: str = "auto") -> TvlaReport:
    """Fixed-vs-random t-test over every power sample (engine-backed)."""
    tvla_report, _report = tvla_campaign(cipher, n_traces, seed, db=db,
                                         workers=workers, executor=executor)
    return tvla_report


def _tvla_from_rows(fixed_rows: list, random_rows: list) -> TvlaReport:
    fixed = np.asarray(fixed_rows, dtype=float)
    rnd = np.asarray(random_rows, dtype=float)
    t_values = []
    for col in range(fixed.shape[1]):
        if np.std(fixed[:, col]) == 0 and np.std(rnd[:, col]) == 0:
            t_values.append(0.0)
            continue
        t_stat, _p = welch_t_test(fixed[:, col], rnd[:, col])
        t_values.append(abs(float(t_stat)))
    return TvlaReport(max(t_values) if t_values else 0.0, t_values)
