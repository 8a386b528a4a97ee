"""The SCAL oracle: exhaustive fault simulation under alternating operation.

Definition 2.4 (self-checking) and Theorem 2.2 (its alternating-logic
form) are the ground truth every analytic condition of Chapter 3 is
screened against.  This module evaluates them *directly*: for every input
pair ``(X, X̄)`` and every fault, classify each output pair as

* **correct** — equals the fault-free alternating pair,
* **nonalternating** — the two period values are equal; the checker flags
  it, the fault is *detected*,
* **incorrect alternating** — the pair alternates but is wrong; the fault
  slips through undetected.  This is the fault-secure violation of
  Theorem 3.1 (marked ``*`` in the thesis's Figure 3.6).

Everything is computed word-parallel on truth-table bitmasks: a "set of
input points" is one integer, and pair-level properties are obtained with
:meth:`TruthTable.co_reflect` (the ``X → X̄`` index permutation).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..engine.campaign import FaultSweep
from ..engine.compiled import FaultLike
from ..logic.evaluate import line_tables
from ..logic.faults import Fault, MultipleFault
from ..logic.network import Network
from ..logic.truthtable import TruthTable

#: Violation pairs :meth:`ScalVerdict.summary` prints per fault; the
#: rest are counted, so a wide net's oracle report stays readable.
SUMMARY_PAIRS = 4


def _pair_close(table: TruthTable) -> TruthTable:
    """Close a point set under the pairing ``X ↔ X̄``.

    A point is in the result iff it or its complement is in the input —
    the right notion for "the pair anchored at X has property P".
    """
    return table | table.co_reflect()


@dataclasses.dataclass(frozen=True)
class FaultResponse:
    """Pair-level response of one network to one fault.

    All masks are pair-symmetric point sets over the input space:

    * ``affected`` — pairs where some output differs from fault-free,
    * ``detected`` — pairs where some output is nonalternating,
    * ``violations`` — pairs where some output is wrong yet *every*
      output alternates (the undetected-error case).
    """

    fault: Union[Fault, MultipleFault]
    affected: TruthTable
    detected: TruthTable
    violations: TruthTable

    @property
    def is_self_testing(self) -> bool:
        """Revised Definition 2.4(a): the fault changes the output
        sequence for some input (Smith's form, as adopted in Section 2.2)."""
        return not self.affected.is_zero()

    @property
    def is_detected(self) -> bool:
        """Some input pair yields a nonalternating (noncode) output."""
        return not self.detected.is_zero()

    @property
    def is_fault_secure(self) -> bool:
        """Definition 2.4(b): no code input maps to a *wrong code* output,
        i.e. no incorrect-alternating pair survives undetected."""
        return self.violations.is_zero()

    @property
    def is_self_checking(self) -> bool:
        return self.is_self_testing and self.is_fault_secure

    def violation_pairs(self) -> List[Tuple[int, int]]:
        """Canonical ``(X, X̄)`` index pairs of undetected wrong outputs."""
        return canonical_pairs(self.violations)


def canonical_pairs(mask: TruthTable) -> List[Tuple[int, int]]:
    """Each pair-symmetric mask point once, as ``(min, max)`` index pairs."""
    full = (1 << mask.n) - 1
    seen = set()
    pairs = []
    for point in mask.minterms():
        key = (min(point, point ^ full), max(point, point ^ full))
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    return pairs


class ScalSimulator:
    """Exhaustive SCAL fault simulation of one combinational network.

    Backed by the compiled engine (:mod:`repro.engine`): the netlist is
    compiled once, the fault-free baseline is cached, and each
    :meth:`response` call re-simulates only the fault's output cone.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self._sweep = FaultSweep(network)
        self.normal = line_tables(network)
        self._normal_out = {out: self.normal[out] for out in network.outputs}

    def response(self, fault: FaultLike) -> FaultResponse:
        """The fault's pair-level response; a fault id's carries its
        name."""
        bits = self._sweep.response_bits(fault)
        if type(fault) is int:
            fault = self._sweep.compiled.fault(fault)
        n = len(self.network.inputs)
        return FaultResponse(
            fault,
            TruthTable(n, bits.affected),
            TruthTable(n, bits.detected),
            TruthTable(n, bits.violations),
        )

    def responses(self, faults: Iterable[FaultLike]) -> List[FaultResponse]:
        return [self.response(f) for f in faults]

    # ------------------------------------------------------------------
    # network-level verdicts
    # ------------------------------------------------------------------
    def verdict(
        self,
        faults: Optional[Sequence[FaultLike]] = None,
        include_inputs: bool = True,
        include_pins: bool = True,
    ) -> "ScalVerdict":
        """Self-checking verdict over a fault universe (default: all
        single stem+pin stuck-at faults, Definition 2.1, on lines that
        reach some output, with pins folded into non-fanout stems).

        Unconnected primary inputs and dead gates are not lines of the
        network in the thesis's sense (nothing reads them), so their
        trivially untestable faults are excluded from the default sweep.
        """
        universe: Sequence[FaultLike]
        if faults is None:
            universe = self._sweep.compiled.universe_ids(
                include_inputs, include_pins, collapse=False
            )
        else:
            universe = list(faults)
        insecure: List[FaultResponse] = []
        untestable: List[FaultResponse] = []
        for fault in universe:
            resp = self.response(fault)
            if not resp.is_fault_secure:
                insecure.append(resp)
            elif not resp.is_self_testing:
                untestable.append(resp)
        return ScalVerdict(
            network=self.network,
            fault_count=len(universe),
            insecure=tuple(insecure),
            untestable=tuple(untestable),
        )

    def is_alternating(self) -> bool:
        """Theorem 2.1: every output self-dual."""
        return all(t.is_self_dual() for t in self._normal_out.values())

    def line_self_checking(self, line: str) -> bool:
        """The thesis's per-line phrasing: both stem stuck-ats on ``line``
        are fault-secure (and self-testing unless the line is redundant)."""
        from ..logic.faults import StuckAt

        for value in (0, 1):
            resp = self.response(StuckAt(line, value))
            if not resp.is_fault_secure:
                return False
        return True


@dataclasses.dataclass(frozen=True)
class ScalVerdict:
    """Outcome of a full single-fault SCAL sweep."""

    network: Network
    fault_count: int
    insecure: Tuple[FaultResponse, ...]
    untestable: Tuple[FaultResponse, ...]

    @property
    def is_self_checking(self) -> bool:
        """Self-checking over the swept universe: every fault is fault
        secure, and every fault is self-testing (untestable faults sit on
        redundant lines, which Theorem 3.5's irredundancy premise
        excludes)."""
        return not self.insecure and not self.untestable

    @property
    def is_fault_secure(self) -> bool:
        return not self.insecure

    def insecure_lines(self) -> List[str]:
        """Stem names whose faults break fault security (pin faults are
        reported as ``gate.pinK``)."""
        names = []
        for resp in self.insecure:
            names.append(resp.fault.describe())
        return names

    def summary(self) -> str:
        status = "SELF-CHECKING" if self.is_self_checking else "NOT self-checking"
        lines = [
            f"{self.network.name}: {status} "
            f"({self.fault_count} single faults swept)"
        ]
        if self.insecure:
            lines.append("  fault-secure violations:")
            for resp in self.insecure:
                pairs = resp.violation_pairs()
                shown = ", ".join(map(str, pairs[:SUMMARY_PAIRS]))
                more = len(pairs) - SUMMARY_PAIRS
                lines.append(
                    f"    {resp.fault.describe()} -> undetected wrong output "
                    f"on pairs [{shown}]"
                    + (f" … ({more} more)" if more > 0 else "")
                )
        if self.untestable:
            lines.append("  untestable (redundant-line) faults:")
            for resp in self.untestable:
                lines.append(f"    {resp.fault.describe()}")
        return "\n".join(lines)


def is_scal_network(
    network: Network,
    include_inputs: bool = True,
    include_pins: bool = True,
) -> bool:
    """Definition 2.6 end-to-end: alternating (self-dual outputs) *and*
    self-checking for all single stuck-at faults."""
    sim = ScalSimulator(network)
    if not sim.is_alternating():
        return False
    return sim.verdict(
        include_inputs=include_inputs, include_pins=include_pins
    ).is_self_checking


def fault_coverage(
    network: Network,
    faults: Optional[Sequence[FaultLike]] = None,
    collapse: bool = True,
    processes: Optional[int] = None,
) -> Dict[str, float]:
    """Coverage statistics for the merits discussion (Section 2.4).

    Returns the fraction of swept faults that are detected (some pair
    nonalternating), secure-but-silent (never affect the output), and
    dangerous (produce an undetected wrong output for some pair).

    When no explicit fault list is given the default single-fault
    universe is structurally collapsed (one representative per
    equivalence class, ``compiled.universe_ids()``) — equivalent faults
    have identical faulty functions, so per-class classification is
    unchanged while the sweep shrinks.  Pass ``collapse=False`` for the
    raw universe; ``processes`` fans the sweep across fork workers.
    """
    sweep = FaultSweep(network)
    if faults is None:
        faults = sweep.compiled.universe_ids(collapse=collapse)
    return sweep.coverage(faults, processes=processes)
