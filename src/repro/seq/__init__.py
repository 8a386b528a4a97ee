"""Sequential-machine substrate: state tables, flip-flops, clocked
simulation, state assignment, and Kohavi-style synthesis."""

from .._lazy import lazy_exports

_EXPORTS = {
    "DFlipFlop": "dff",
    "FlipFlopFault": "simulator",
    "Register": "dff",
    "SequentialCircuit": "simulator",
    "StateEncoding": "encoding",
    "StateTable": "machine",
    "StateTableError": "machine",
    "SynthesizedMachine": "synthesis",
    "Transition": "machine",
    "binary_encoding": "encoding",
    "distinguishing_sequence": "stg",
    "equivalence_classes": "minimize",
    "homing_identifies_state": "stg",
    "homing_sequence": "stg",
    "prune_unreachable": "stg",
    "render_stg_dot": "stg",
    "is_minimal": "minimize",
    "minimize_machine": "minimize",
    "gray_encoding": "encoding",
    "machine_tables": "synthesis",
    "minimum_width": "encoding",
    "one_hot_encoding": "encoding",
    "single_input_table": "machine",
    "synthesize_machine": "synthesis",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
