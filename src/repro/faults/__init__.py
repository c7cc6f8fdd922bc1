"""Fault models, universes, collapsing and statistical sampling."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "models": ("DelayFault", "DelayFaultKind", "Fault", "Line", "SETFault",
               "SEUFault", "StuckAtFault"),
    "sampling": ("draw_sample", "sample_size", "stratified_sample"),
    "universe": ("all_stuck_at", "check_sites", "collapse", "lines_of"),
})
