"""Inductive (exhaustive) verification of dual flip-flop SCAL machines.

Random-stream campaigns (:mod:`repro.scal.verify`) sample behaviour;
this module proves the sequential fault-security property *inductively*:

    If, from every reachable state and for every input vector, a single
    step under the fault either (a) produces the correct alternating
    (Z, Y) pairs or (b) produces a nonalternating pair on some monitored
    line — then the machine never silently diverges: the first step at
    which anything goes wrong is detected, because the Y lines are
    monitored along with Z (the Section 4.2 requirement "to monitor not
    only the Z outputs, but also the Y outputs").

The verifier enumerates (state, input) exhaustively per fault, seeding
the two-stage feedback chains with the alternating pair (ȳ, y) for each
state code — the steady-state contents of a healthy Figure 4.2a machine.
For the small machines of the thesis this is a complete proof over the
single-fault universe, not a test.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from ..logic.faults import Fault, enumerate_stem_faults
from ..seq.machine import StateTable
from .dualff import DualFlipFlopMachine


@dataclasses.dataclass(frozen=True)
class StepOutcome:
    """Classification of one (fault, state, input) step."""

    state: str
    vector: Tuple[int, ...]
    correct: bool
    detected: bool

    @property
    def silent_wrong(self) -> bool:
        return not self.correct and not self.detected


@dataclasses.dataclass(frozen=True)
class InductiveVerdict:
    """Exhaustive verdict for one machine over a fault universe."""

    machine_name: str
    faults: int
    steps_checked: int
    violations: Tuple[Tuple[str, str, Tuple[int, ...]], ...]  # (fault, state, input)

    @property
    def holds(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "PROVED" if self.holds else "VIOLATED"
        text = (
            f"{self.machine_name}: inductive fault security {status} "
            f"({self.faults} faults x {self.steps_checked // max(self.faults, 1)} "
            f"(state, input) steps)"
        )
        for fault, state, vector in self.violations[:5]:
            text += f"\n  silent wrong step: {fault} from {state} on {vector}"
        return text


def _single_step(
    machine: DualFlipFlopMachine,
    state: str,
    vector: Tuple[int, ...],
    faults: Sequence[Fault],
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """One logical step from ``state`` under ``faults``; returns the
    (Z…Y…) period pair."""
    forcing = machine.circuit.one_row(faults)
    ((first, second, _flags),) = machine.clock_rows([vector], forcing, state)
    return first, second


def verify_inductively(
    machine: DualFlipFlopMachine,
    faults: Optional[Sequence[Fault]] = None,
    include_inputs: bool = False,
) -> InductiveVerdict:
    """Prove (or refute) single-step fault security over all reachable
    states and inputs, for every fault in the universe."""
    table: StateTable = machine.machine
    universe = (
        list(faults)
        if faults is not None
        else list(
            enumerate_stem_faults(
                machine.circuit.network, include_inputs=include_inputs
            )
        )
    )
    states = table.reachable_states()
    vectors = table.input_vectors()
    violations: List[Tuple[str, str, Tuple[int, ...]]] = []
    steps = 0
    for fault in universe:
        for state in states:
            for vector in vectors:
                steps += 1
                expected_first, expected_second = _expected_pair(
                    machine, state, vector
                )
                first, second = _single_step(machine, state, vector, [fault])
                correct = first == expected_first and second == expected_second
                alternates = all(
                    b == 1 - a for a, b in zip(first, second)
                )
                if not correct and alternates:
                    violations.append((fault.describe(), state, vector))
    return InductiveVerdict(
        machine_name=machine.circuit.name,
        faults=len(universe),
        steps_checked=steps,
        violations=tuple(violations),
    )


def _expected_pair(
    machine: DualFlipFlopMachine,
    state: str,
    vector: Tuple[int, ...],
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The healthy (Z…Y…) alternating pair for one step."""
    table = machine.machine
    next_state, output = table.step(state, vector)
    next_code = machine.encoding.code(next_state)
    first = tuple(output) + tuple(next_code)
    second = tuple(1 - v for v in first)
    return first, second
