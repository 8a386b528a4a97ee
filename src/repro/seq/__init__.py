"""Sequential-machine substrate: state tables, flip-flops, clocked
simulation, state assignment, and Kohavi-style synthesis."""

from .dff import DFlipFlop, Register
from .encoding import (
    StateEncoding,
    binary_encoding,
    gray_encoding,
    minimum_width,
    one_hot_encoding,
)
from .minimize import equivalence_classes, is_minimal, minimize_machine
from .stg import (
    distinguishing_sequence,
    homing_identifies_state,
    homing_sequence,
    prune_unreachable,
    render_stg_dot,
)
from .machine import StateTable, StateTableError, Transition, single_input_table
from .simulator import FlipFlopFault, SequentialCircuit
from .synthesis import SynthesizedMachine, machine_tables, synthesize_machine

__all__ = [
    "DFlipFlop",
    "FlipFlopFault",
    "Register",
    "SequentialCircuit",
    "StateEncoding",
    "StateTable",
    "StateTableError",
    "SynthesizedMachine",
    "Transition",
    "binary_encoding",
    "distinguishing_sequence",
    "equivalence_classes",
    "homing_identifies_state",
    "homing_sequence",
    "prune_unreachable",
    "render_stg_dot",
    "is_minimal",
    "minimize_machine",
    "gray_encoding",
    "machine_tables",
    "minimum_width",
    "one_hot_encoding",
    "single_input_table",
    "synthesize_machine",
]
