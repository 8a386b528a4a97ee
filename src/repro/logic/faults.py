"""Fault models (Section 1.2 / Definitions 2.1–2.3).

The thesis's design method is validated against the **single stuck-at
fault model** (Definition 2.1): one line stuck-at 0 or stuck-at 1,
permanent or transient.  Unidirectional faults (Definition 2.2, any number
of lines stuck at *one* value) and multiple faults (Definition 2.3) are
also modelled because the coverage discussion (Section 2.4: "not all
failures are covered") needs them as the comparison classes.

Two granularities of fault site are supported:

* **stem faults** — the output of a gate (or a primary input) is stuck.
  This is the granularity the thesis numbers its lines at.
* **pin faults** — a single input pin of a single gate is stuck, leaving
  the stem and the other branches healthy.  The thesis's "equivalent
  lines" bookkeeping (e.g. pairs (3,24) in Section 3.6) is exactly the
  stem/branch identification for non-fanout lines; for fanout stems the
  branches are distinct fault sites and pin faults model them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from .network import Network


@dataclasses.dataclass(frozen=True)
class StuckAt:
    """Line (stem) ``line`` stuck at ``value``."""

    line: str
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("stuck-at value must be 0 or 1")

    def describe(self) -> str:
        return f"{self.line} s/{self.value}"


@dataclasses.dataclass(frozen=True)
class PinStuckAt:
    """Input pin ``pin_index`` of gate ``gate`` stuck at ``value``."""

    gate: str
    pin_index: int
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("stuck-at value must be 0 or 1")
        if self.pin_index < 0:
            raise ValueError("pin index must be non-negative")

    def describe(self) -> str:
        return f"{self.gate}.pin{self.pin_index} s/{self.value}"


Fault = Union[StuckAt, PinStuckAt]


@dataclasses.dataclass(frozen=True)
class MultipleFault:
    """A set of simultaneous stem/pin faults (Definition 2.3)."""

    faults: Tuple[Fault, ...]

    def describe(self) -> str:
        return " & ".join(f.describe() for f in self.faults)

    def is_unidirectional(self) -> bool:
        """Definition 2.2: all constituent lines stuck at the same value."""
        values = {f.value for f in self.faults}
        return len(values) <= 1


def enumerate_stem_faults(
    network: Network, include_inputs: bool = True
) -> Iterator[StuckAt]:
    """All single stem stuck-at faults of the network.

    ``include_inputs=False`` skips primary-input stems — useful when the
    inputs are themselves outputs of a previously checked stage, as in the
    system-composition arguments of Chapter 5.
    """
    for line in network.lines():
        if not include_inputs and network.is_input(line):
            continue
        yield StuckAt(line, 0)
        yield StuckAt(line, 1)


def enumerate_pin_faults(network: Network) -> Iterator[PinStuckAt]:
    """All single input-pin stuck-at faults of the network."""
    for gate in network.gates:
        for pin in range(len(gate.inputs)):
            yield PinStuckAt(gate.name, pin, 0)
            yield PinStuckAt(gate.name, pin, 1)


def enumerate_single_faults(
    network: Network,
    include_inputs: bool = True,
    include_pins: bool = True,
    collapse: bool = True,
) -> List[Fault]:
    """The single-fault universe the SCAL analysis is run against.

    With ``collapse=True`` a pin fault on the only branch of a non-fanout
    stem is dropped as equivalent to the stem fault (the thesis's
    "equivalent pairs of lines", Section 3.6 step 2), by the compiled
    form's pin counts
    (:attr:`~repro.engine.compiled.CompiledNetwork.branch_folds`).
    """
    if collapse:
        from ..engine.compiled import compile_network  # engine imports us

        return compile_network(network).fault_universe(
            include_inputs, include_pins, collapse=False, live_only=False
        )
    faults: List[Fault] = list(enumerate_stem_faults(network, include_inputs))
    if include_pins:
        faults.extend(enumerate_pin_faults(network))
    return faults


def fault_overrides(fault: Union[Fault, MultipleFault]) -> Tuple[Dict[str, int], Dict[Tuple[str, int], int]]:
    """Split a fault into (stem overrides, pin overrides) for evaluation."""
    stems: Dict[str, int] = {}
    pins: Dict[Tuple[str, int], int] = {}
    parts: Sequence[Fault]
    if isinstance(fault, MultipleFault):
        parts = fault.faults
    else:
        parts = (fault,)
    for part in parts:
        if isinstance(part, StuckAt):
            stems[part.line] = part.value
        else:
            pins[(part.gate, part.pin_index)] = part.value
    return stems, pins
