"""Holistic EDA flow orchestration — the machinery behind Fig. 2.

Fig. 2 shows the RESCUE approach: one design descends through quality,
reliability and security analyses that *share artifacts* instead of
running as isolated tools.  :class:`Flow` is a small dependency-driven
stage executor: stages declare the artifacts they consume and produce,
the flow topologically orders them (stdlib graphlib DAG), executes, and records
a run report.  The F2 bench builds the full cross-domain pipeline on one
design — ATPG feeding safety classification feeding the FIT budget,
with the security audit consuming the same netlist.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Callable


class FlowError(RuntimeError):
    """Raised on mis-wired flows (missing artifacts, cycles)."""


@dataclass
class Stage:
    """One flow stage.

    ``run`` receives a dict of consumed artifacts and returns a dict of
    produced artifacts (keys must match the declarations).
    """

    name: str
    consumes: tuple[str, ...]
    produces: tuple[str, ...]
    run: Callable[[dict], dict]
    aspect: str = "quality"


@dataclass
class StageReport:
    name: str
    aspect: str
    seconds: float
    produced: tuple[str, ...]


@dataclass
class FlowReport:
    """Execution record of one flow run."""

    stages: list[StageReport] = field(default_factory=list)
    artifacts: dict[str, object] = field(default_factory=dict)

    def rows(self) -> list[tuple]:
        return [(s.name, s.aspect, round(s.seconds, 4), ", ".join(s.produced))
                for s in self.stages]


class Flow:
    """A dependency-ordered analysis pipeline."""

    def __init__(self, name: str = "flow") -> None:
        self.name = name
        self.stages: dict[str, Stage] = {}

    def add_stage(self, stage: Stage) -> "Flow":
        if stage.name in self.stages:
            raise FlowError(f"duplicate stage {stage.name!r}")
        self.stages[stage.name] = stage
        return self

    def _order(self) -> list[Stage]:
        producers: dict[str, str] = {}
        for stage in self.stages.values():
            for artifact in stage.produces:
                if artifact in producers:
                    raise FlowError(
                        f"artifact {artifact!r} produced by both "
                        f"{producers[artifact]!r} and {stage.name!r}")
                producers[artifact] = stage.name
        deps: dict[str, set[str]] = {name: set() for name in self.stages}
        for stage in self.stages.values():
            for artifact in stage.consumes:
                if artifact in producers:
                    deps[stage.name].add(producers[artifact])
        try:
            order = list(TopologicalSorter(deps).static_order())
        except CycleError:
            raise FlowError("flow graph has a cycle") from None
        return [self.stages[name] for name in order]

    def run(self, initial: dict[str, object] | None = None) -> FlowReport:
        """Execute all stages in dependency order."""
        report = FlowReport(artifacts=dict(initial or {}))
        for stage in self._order():
            missing = [a for a in stage.consumes if a not in report.artifacts]
            if missing:
                raise FlowError(
                    f"stage {stage.name!r} missing artifacts {missing}")
            inputs = {a: report.artifacts[a] for a in stage.consumes}
            started = time.perf_counter()
            outputs = stage.run(inputs)
            elapsed = time.perf_counter() - started
            for artifact in stage.produces:
                if artifact not in outputs:
                    raise FlowError(
                        f"stage {stage.name!r} did not produce {artifact!r}")
                report.artifacts[artifact] = outputs[artifact]
            report.stages.append(
                StageReport(stage.name, stage.aspect, elapsed, stage.produces))
        return report
