"""Fault models, universes, collapsing and statistical sampling."""

from .models import (
    DelayFault,
    DelayFaultKind,
    Fault,
    Line,
    SETFault,
    SEUFault,
    StuckAtFault,
)
from .sampling import draw_sample, sample_size, stratified_sample
from .universe import (all_stuck_at, check_sites, collapse, collapse_ratio,
                       lines_of)

__all__ = [
    "DelayFault",
    "DelayFaultKind",
    "Fault",
    "Line",
    "SETFault",
    "SEUFault",
    "StuckAtFault",
    "all_stuck_at",
    "check_sites",
    "collapse",
    "collapse_ratio",
    "draw_sample",
    "lines_of",
    "sample_size",
    "stratified_sample",
]
