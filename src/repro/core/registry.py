"""Tool/analysis registry — the data behind Fig. 1.

Fig. 1 of the paper maps the project's research results onto the three
aspects (reliability, security, quality) with bubble sizes proportional
to result counts and a lead tag (academia vs industry).  The registry
holds the same taxonomy for the *implemented* toolkit: every analysis
registers itself with its aspects, paper section and lead, and
``figure1_data`` renders the distribution — so the figure regenerates
from the code that actually exists rather than from a hand-kept list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Aspect(str, Enum):
    RELIABILITY = "reliability"
    SECURITY = "security"
    QUALITY = "quality"


class Lead(str, Enum):
    ACADEMIA = "academia"
    INDUSTRY = "industry"


@dataclass(frozen=True)
class ToolEntry:
    """One registered analysis/tool capability."""

    name: str
    aspects: tuple[Aspect, ...]
    paper_section: str
    lead: Lead
    module: str
    results: int = 1  # bubble weight: implemented analyses/experiments


class Registry:
    """The toolkit's capability inventory."""

    def __init__(self) -> None:
        self.entries: list[ToolEntry] = []

    def register(self, entry: ToolEntry) -> None:
        if any(e.name == entry.name for e in self.entries):
            raise ValueError(f"duplicate tool {entry.name!r}")
        self.entries.append(entry)

    def figure1_data(self) -> list[tuple[str, str, str, int]]:
        """Rows (tool, aspects, lead, weight) for the Fig. 1 bubble map."""
        return [
            (e.name, "+".join(a.value for a in e.aspects), e.lead.value,
             e.results)
            for e in sorted(self.entries, key=lambda e: (-e.results, e.name))
        ]

    def aspect_totals(self) -> dict[str, int]:
        totals = {a.value: 0 for a in Aspect}
        for entry in self.entries:
            for aspect in entry.aspects:
                totals[aspect.value] += entry.results
        return totals

    def lead_totals(self) -> dict[str, int]:
        totals = {lead.value: 0 for lead in Lead}
        for entry in self.entries:
            totals[entry.lead.value] += entry.results
        return totals


def default_registry() -> Registry:
    """The toolkit registered against the paper's Fig. 1 bubbles."""
    reg = Registry()
    rel, sec, qua = Aspect.RELIABILITY, Aspect.SECURITY, Aspect.QUALITY
    aca, ind = Lead.ACADEMIA, Lead.INDUSTRY
    rows = [
        ToolEntry("test-generation-cpu-gpu", (qua,), "III.A", aca,
                  "repro.atpg / repro.gpgpu.sbst", 6),
        ToolEntry("soft-error-vulnerability", (rel,), "III.B", ind,
                  "repro.soft_error", 6),
        ToolEntry("ml-failure-rate", (rel,), "III.B", ind,
                  "repro.soft_error.ml", 4),
        ToolEntry("cross-layer-fault-tolerance", (rel,), "III.C", aca,
                  "repro.ftol", 4),
        ToolEntry("functional-safety-iso26262", (rel, qua), "III.D", ind,
                  "repro.safety", 5),
        ToolEntry("rsn-test-validation", (rel, qua), "III.E", aca,
                  "repro.rsn", 6),
        ToolEntry("memory-aging-bti", (rel,), "III.E", aca,
                  "repro.aging", 3),
        ToolEntry("finfet-sram-defects-dft", (rel, qua), "III.E", aca,
                  "repro.memory", 4),
        ToolEntry("laser-fault-injection", (sec,), "III.F", aca,
                  "repro.security.laser", 2),
        ToolEntry("ai-hw-security", (sec,), "III.F", aca,
                  "repro.security.detector", 2),
        ToolEntry("timing-side-channels", (sec,), "III.F", aca,
                  "repro.security.timing", 3),
        ToolEntry("pufs", (sec, rel), "III.F", ind,
                  "repro.puf", 4),
        ToolEntry("multidimensional-verification", (rel, sec, qua), "IV.A",
                  aca, "repro.core.flow", 2),
        ToolEntry("autosoc-benchmark", (rel, sec, qua), "IV.B", ind,
                  "repro.autosoc", 4),
    ]
    for row in rows:
        reg.register(row)
    return reg
