"""Soft-error and transient-fault vulnerability analysis (paper III.B)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "cdn": ("CdnSetResult", "ClockTree", "build_clock_tree",
            "failure_rate_vs_pulse_width", "run_cdn_campaign"),
    "fit": ("ASIL_FIT_TARGETS", "RAW_FIT_PER_MBIT", "ComponentSER",
            "FitBudget", "headroom_bits"),
    "ml": ("FEATURE_NAMES", "GcnRegressor", "MlpRegressor",
           "RegressionMetrics", "RidgeRegressor", "extract_features",
           "split_indices", "standardize"),
    "set_analysis": ("SetSensitivity", "electrical_survival",
                     "latch_window_probability", "logical_derating",
                     "set_derating", "validate_against_event_sim"),
    "seu": ("FAILURE", "LATENT", "MASKED", "SeuCampaignResult",
            "SeuInjection", "inject_seu", "random_workload", "run_campaign"),
    "statistical": ("AccuracyPoint", "AdaptiveEstimate", "StatisticalStudy",
                    "adaptive_estimate", "cost_accuracy_rows", "run_study",
                    "verify_fresh_sample_consistency"),
})
