"""Redundancy and testability of lines (Theorems 3.3–3.5).

Theorem 3.4: a line is *redundant* when ``A ∨ C = 0`` — the network
output never changes whichever constant the line is forced to, for all
inputs.  Redundant lines carry untestable faults, so an irredundant
self-dual network is self-testing (Theorem 3.5) and Algorithm 3.1 assumes
irredundancy; this module supplies the check and the Section 3.2 note
about one-direction-testable lines ("the subnetwork generating the line
value may be removed and replaced by a constant").
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..engine.compiled import compile_network
from ..logic.evaluate import line_tables
from ..logic.faults import StuckAt
from ..logic.gates import GateKind
from ..logic.network import Gate, Network


@dataclasses.dataclass(frozen=True)
class LineTestability:
    """Which stuck-at directions on a line can affect any network output."""

    line: str
    sa0_observable: bool
    sa1_observable: bool

    @property
    def redundant(self) -> bool:
        """Theorem 3.4: neither direction ever changes any output."""
        return not (self.sa0_observable or self.sa1_observable)

    @property
    def one_direction_only(self) -> Optional[int]:
        """The single testable stuck value, if exactly one direction is
        observable (Section 3.2: the line then acts as the constant equal
        to the *untestable* stuck value and can be replaced by it)."""
        if self.sa0_observable and not self.sa1_observable:
            return 0
        if self.sa1_observable and not self.sa0_observable:
            return 1
        return None


def line_testability(network: Network, line: str) -> LineTestability:
    """Observability of each stuck direction over all outputs and inputs."""
    normal = line_tables(network)
    observable = {}
    for value in (0, 1):
        faulty = line_tables(network, StuckAt(line, value))
        observable[value] = any(
            (normal[out] ^ faulty[out]).bits for out in network.outputs
        )
    return LineTestability(line, observable[0], observable[1])


def redundant_lines(network: Network) -> List[str]:
    """All *live* lines satisfying Theorem 3.4's ``A ∨ C = 0``.

    Lines outside every output cone (unconnected inputs, dead gates) are
    not lines of the network in the thesis's sense and are skipped;
    :func:`prune_dead_logic` removes dead gates outright.
    """
    comp = compile_network(network)
    return [
        line
        for line, live in zip(comp.names, comp.live)
        if live and line_testability(network, line).redundant
    ]


def is_irredundant(network: Network) -> bool:
    """Premise of Theorem 3.5 and of Algorithm 3.1."""
    return not redundant_lines(network)


def constant_replacements(network: Network) -> Dict[str, int]:
    """Lines testable in only one direction, with the constant value the
    Section 3.2 transformation would substitute for them.

    A line testable only for stuck-at ``s`` behaves, for all detectable
    purposes, like the constant ``s̄`` (stuck-at ``s̄`` is unobservable,
    i.e. indistinguishable from normal operation); the thesis replaces
    the generating subnetwork by that constant before further analysis.
    """
    replacements: Dict[str, int] = {}
    for line in network.lines():
        info = line_testability(network, line)
        direction = info.one_direction_only
        if direction is not None:
            replacements[line] = 1 - direction
    return replacements


def apply_constant_replacements(network: Network) -> Network:
    """Rebuild the network with one-direction-testable lines tied to
    constants (the Section 3.2 preprocessing step).

    Only the *driving gate* of each replaced line is changed to a
    constant; dead upstream logic is then pruned to keep the result
    irredundant.
    """
    replacements = constant_replacements(network)
    if not replacements:
        return network
    gates: List[Gate] = []
    for gate in network.gates:
        if gate.name in replacements:
            kind = GateKind.CONST1 if replacements[gate.name] else GateKind.CONST0
            gates.append(Gate(gate.name, kind, ()))
        else:
            gates.append(gate)
    rebuilt = Network(network.inputs, gates, network.outputs, name=network.name)
    return prune_dead_logic(rebuilt)


def prune_dead_logic(network: Network) -> Network:
    """Drop gates outside every output cone (keeps all primary inputs)."""
    comp = compile_network(network)
    gates = [g for g in network.gates if comp.live[comp.index[g.name]]]
    return Network(network.inputs, gates, network.outputs, name=network.name)
