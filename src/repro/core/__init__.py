"""Holistic EDA framework: flow, registry, campaigns, RIIF, stats, reports."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "campaign": ("CampaignDb", "CampaignSummary"),
    "flow": ("Flow", "FlowError", "FlowReport", "Stage", "StageReport"),
    "registry": ("Aspect", "Lead", "Registry", "ToolEntry",
                 "default_registry"),
    "report": ("format_bars", "format_kv", "format_table"),
    "riif": ("ComponentModel", "FailureModeSpec", "RiifDocument",
             "RiifParseError", "SystemModel", "emit_riif", "parse_riif"),
    "stats": ("Interval", "clopper_pearson_interval", "fit_from_rate",
              "fit_to_mtbf_hours", "required_injections",
              "scale_fit_per_mbit", "speedup", "welch_t_test",
              "wilson_interval"),
})
