"""Gate-level circuit substrate: netlists, generators, testability."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "builder": ("CircuitBuilder",),
    "levelize": ("cone_of_influence", "depth", "fanin_cone", "fanout_cone",
                 "levels", "observable_outputs"),
    "library": ("BENCHMARKS", "load"),
    "netlist": ("Circuit", "CircuitError", "Flop", "Gate", "GateType"),
    "scoap": ("Scoap", "compute_scoap", "hard_to_test_nets"),
    "verilog": ("VerilogParseError", "emit_verilog", "parse_verilog"),
})
