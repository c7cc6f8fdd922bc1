"""The AutoSoC open-source automotive benchmark (paper Section IV.B)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "apps": ("APPLICATIONS", "Application"),
    "cpu": ("UNITS", "Cpu", "UnitFault"),
    "fi": ("CORRECTED_ECC", "DETECTED_ECC", "DETECTED_LOCKSTEP", "HANG",
           "MASKED", "OUTCOMES", "SDC", "SocCampaignResult", "SocInjection",
           "compare_configurations", "make_injections", "run_campaign",
           "run_injection"),
    "isa": ("AsmError", "Instruction", "OPCODES", "assemble", "decode",
            "disassemble", "encode"),
    "soc": ("AutoSoC", "Bus", "CanFrame", "RunResult", "SocConfig"),
})
