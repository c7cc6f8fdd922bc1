"""Simulation engines: bit-parallel logic, 3-valued, sequential, event, fault."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "event": ("EventSim", "SETOutcome", "Waveform"),
    "fault_sim": ("FaultSimResult", "detection_mask", "fault_simulate",
                  "fault_simulate_batched", "faulty_values",
                  "sequential_fault_simulate"),
    "logic": ("X", "eval_gate", "eval_gate_3v", "exhaustive_patterns",
              "mask_of", "pack_patterns", "random_patterns", "simulate",
              "simulate_3v", "unpack_patterns"),
    "sequential": ("SequentialSim", "output_trace"),
})
