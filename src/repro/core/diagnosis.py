"""Fault diagnosis: locating the failure after detection (Section 1.3).

The thesis classifies reliability techniques as tolerance / diagnosis /
detection and builds detection; once SCAL's checker fires, somebody has
to find the broken line.  This module supplies the classical
dictionary-based locator:

* :func:`build_fault_dictionary` — per candidate fault, the full
  input→output response signature;
* :class:`FaultDictionary` — given observed (input, wrong output)
  evidence, return the candidate faults consistent with *all* of it;
* :func:`adaptive_probe` — pick the next input that best splits the
  remaining candidates (a greedy half-split), so a technician applies
  few probes.

Works on any combinational network, with the collapsed fault list of
:meth:`~repro.engine.compiled.CompiledNetwork.universe_ids` as the
natural candidate universe.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.compiled import compile_network
from ..logic.evaluate import line_tables
from ..logic.faults import Fault
from ..logic.network import Network


Signature = Tuple[int, ...]  # output-table bits per output


@dataclasses.dataclass(frozen=True)
class Candidate:
    """``fault is None`` is the *healthy* candidate: the hypothesis that
    the unit under diagnosis has no fault at all."""

    fault: Optional[Fault]
    signature: Signature


class FaultDictionary:
    """Response signatures of every candidate fault of one network."""

    def __init__(
        self,
        network: Network,
        faults: Sequence[Fault],
        include_healthy: bool = True,
    ) -> None:
        self.network = network
        self.normal: Signature = tuple(
            line_tables(network)[o].bits for o in network.outputs
        )
        self.candidates: List[Candidate] = []
        if include_healthy:
            self.candidates.append(Candidate(None, self.normal))
        for fault in faults:
            tables = line_tables(network, fault)
            signature = tuple(tables[o].bits for o in network.outputs)
            self.candidates.append(Candidate(fault, signature))

    # ------------------------------------------------------------------
    def response(self, candidate: Candidate, point: int) -> Tuple[int, ...]:
        return tuple(
            (bits >> point) & 1 for bits in candidate.signature
        )

    def normal_response(self, point: int) -> Tuple[int, ...]:
        return tuple((bits >> point) & 1 for bits in self.normal)

    def consistent(
        self, observations: Sequence[Tuple[int, Tuple[int, ...]]]
    ) -> List[Optional[Fault]]:
        """Candidates matching every observed (input point, outputs)."""
        survivors = []
        for candidate in self.candidates:
            if all(
                self.response(candidate, point) == tuple(outputs)
                for point, outputs in observations
            ):
                survivors.append(candidate.fault)
        return survivors

    def diagnose(
        self,
        faulty_outputs: "OutputOracle",
        max_probes: int = 16,
    ) -> Tuple[List[Optional[Fault]], List[int]]:
        """Adaptive diagnosis: probe inputs until the candidate set stops
        shrinking; returns (surviving faults, probes applied)."""
        observations: List[Tuple[int, Tuple[int, ...]]] = []
        survivors = list(self.candidates)
        probes: List[int] = []
        for _ in range(max_probes):
            point = adaptive_probe(self, survivors)
            if point is None:
                break
            outputs = faulty_outputs(point)
            probes.append(point)
            observations.append((point, outputs))
            survivors = [
                c
                for c in survivors
                if self.response(c, point) == tuple(outputs)
            ]
            if len(survivors) <= 1:
                break
        return [c.fault for c in survivors], probes


OutputOracle = "Callable[[int], Tuple[int, ...]]"


def adaptive_probe(
    dictionary: FaultDictionary, survivors: Sequence[Candidate]
) -> Optional[int]:
    """The input point whose responses best split the survivors.

    Greedy entropy-ish criterion: minimize the size of the largest
    response group.  Returns None when no input distinguishes anything.
    """
    if len(survivors) <= 1:
        return None
    n = len(dictionary.network.inputs)
    best_point: Optional[int] = None
    best_worst = len(survivors) + 1
    for point in range(1 << n):
        groups: Dict[Tuple[int, ...], int] = {}
        for candidate in survivors:
            key = dictionary.response(candidate, point)
            groups[key] = groups.get(key, 0) + 1
        if len(groups) < 2:
            continue
        worst = max(groups.values())
        if worst < best_worst:
            best_worst = worst
            best_point = point
    return best_point


def build_fault_dictionary(
    network: Network, collapse: bool = True
) -> FaultDictionary:
    """Dictionary over the (collapsed) single stem+pin fault universe."""
    comp = compile_network(network)
    ids = comp.universe_ids(collapse=collapse, live_only=False)
    return FaultDictionary(network, list(map(comp.fault, ids)))


def simulate_faulty_unit(network: Network, fault: Fault):
    """An output oracle for a physically faulty unit (for tests/demos)."""
    tables = line_tables(network, fault)
    bits = tuple(tables[o].bits for o in network.outputs)

    def oracle(point: int) -> Tuple[int, ...]:
        return tuple((b >> point) & 1 for b in bits)

    return oracle
