"""Fault models.

Three families cover the paper's needs:

* **Stuck-at** faults (quality / test generation, Sections III.A, III.D):
  a circuit *line* permanently at 0 or 1.  Lines are either a net's stem
  (the driver output) or a specific gate input pin (a fanout branch).
* **SEU** — single-event upset (reliability, Section III.B): a state
  bit-flip in a flop or memory cell at a given cycle.
* **SET** — single-event transient (Section III.B): a voltage pulse of
  finite width on a combinational net at a given time.
* **Transition-delay** faults: a line that is slow to rise or fall, used
  by the aging-to-failure mapping (Section III.E).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


@dataclass(frozen=True, slots=True)
class Line:
    """A fault site: a net stem or one gate-input pin (fanout branch).

    ``sink``/``pin`` are ``None`` for stem faults; for branch faults they
    name the consuming gate (by its output net) and the input position.
    """

    net: str
    sink: str | None = None
    pin: int | None = None

    @property
    def is_stem(self) -> bool:
        return self.sink is None

    def describe(self) -> str:
        if self.is_stem:
            return self.net
        return f"{self.net}->{self.sink}.{self.pin}"

    def _key(self) -> tuple:
        return (self.net, self.sink or "", -1 if self.pin is None else self.pin)

    def __lt__(self, other: "Line") -> bool:
        return self._key() < other._key()


@dataclass(frozen=True, slots=True)
class StuckAtFault:
    """Line permanently stuck at ``value``."""

    line: Line
    value: int
    #: The hash, cached on first use (every fault-keyed dict and set of
    #: the simulators and backends asks for it): not compared, shown or
    #: pickled.  A line is hashed when its fault first is, so it keeps
    #: no cache of its own (one int fewer per fault in memory).
    _hash: int | None = field(default=None, init=False, repr=False,
                              compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # the value the generated hash gave, so set and dict orders stay
            h = hash((self.line, self.value))
            _cache_hash(self, h)
        return h

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("stuck-at value must be 0 or 1")

    def describe(self) -> str:
        return f"{self.line.describe()} s-a-{self.value}"

    def __lt__(self, other: "StuckAtFault") -> bool:
        return (self.line._key(), self.value) < (other.line._key(), other.value)


#: The slot's own setter: what a frozen fault's cache is filled with.
_cache_hash = StuckAtFault._hash.__set__


def _fault_getstate(self: StuckAtFault) -> tuple:
    # no cached hash: a string's hash differs per process
    return self.line, self.value


def _fault_setstate(self: StuckAtFault, state: tuple) -> None:
    object.__setattr__(self, "line", state[0])
    object.__setattr__(self, "value", state[1])
    _cache_hash(self, None)


# set after the decorator: on Python 3.10 ``slots=True`` replaces the
# class body's pickling methods with its own, which ship every field
StuckAtFault.__getstate__ = _fault_getstate  # type: ignore[method-assign]
StuckAtFault.__setstate__ = _fault_setstate  # type: ignore[method-assign]


@dataclass(frozen=True, order=True)
class SEUFault:
    """Bit-flip of flop/memory bit ``target`` at cycle ``cycle``."""

    target: str
    cycle: int

    def describe(self) -> str:
        return f"SEU {self.target} @cycle {self.cycle}"


@dataclass(frozen=True, order=True)
class SETFault:
    """Transient pulse on ``net`` starting at ``time`` lasting ``width``."""

    net: str
    time: float
    width: float

    def describe(self) -> str:
        return f"SET {self.net} @t={self.time} w={self.width}"


class DelayFaultKind(str, Enum):
    SLOW_TO_RISE = "STR"
    SLOW_TO_FALL = "STF"


@dataclass(frozen=True, order=True)
class DelayFault:
    """Transition-delay fault: ``net`` transitions late by ``extra`` time."""

    net: str
    kind: DelayFaultKind
    extra: float = 1.0

    def describe(self) -> str:
        return f"{self.net} {self.kind.value} (+{self.extra})"


Fault = StuckAtFault | SEUFault | SETFault | DelayFault
