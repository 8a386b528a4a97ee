"""Fault collapsing: equivalence and dominance reduction of fault lists.

The thesis's Section 3.6 walkthrough starts by collapsing "equivalent
pairs of lines" before analyzing anything; this module implements the
full classical structural collapsing the walkthrough gestures at:

* **equivalence** — faults indistinguishable at the gate boundary fold
  together: for an AND gate, any input s-a-0 ≡ output s-a-0 (NAND:
  input s-a-0 ≡ output s-a-1, and dually for OR/NOR); a NOT/BUF input
  fault ≡ the corresponding output fault;
* **dominance** — for an AND gate, the output s-a-1 dominates each input
  s-a-1 (any test for the input fault also tests the output fault), so
  the dominating fault can be dropped from a *detection* fault list.

The result is a representative fault set that preserves single-fault
coverage, verified against truth tables in the test suite.  Collapsing
matters doubly for SCAL: every fault the oracle or PODEM must process is
two exhaustive network evaluations.

The classes are computed once per network, on integer fault ids, by
:class:`~repro.engine.compiled.CompiledNetwork`; the functions here are
named views of that one computation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from ..engine.compiled import PIN_EQUIVALENCES, compile_network
from ..logic.faults import Fault, StuckAt
from ..logic.network import Network


@dataclasses.dataclass(frozen=True)
class CollapseReport:
    """Outcome of structural fault collapsing."""

    representatives: Tuple[Fault, ...]
    total: int
    equivalence_classes: int
    dominated_dropped: int

    @property
    def collapse_ratio(self) -> float:
        return len(self.representatives) / self.total if self.total else 1.0


def equivalence_collapse(network: Network) -> Dict[Fault, List[Fault]]:
    """The stem+pin single-fault universe's equivalence classes, keyed
    by representative (the first stem member when the class has one).

    Rules: for a gate with controlling value c and forced output f —
    every input pin s-a-c ≡ the output stem s-a-f; NOT: pin s-a-v ≡
    stem s-a-v̄; BUF: pin s-a-v ≡ stem s-a-v.  Additionally a pin fault
    on the single branch of a non-fanout stem ≡ the stem fault.
    """
    comp = compile_network(network)
    fault = comp.fault
    return {
        fault(members[0]): [fault(fid) for fid in members]
        for members in comp.fault_classes
    }


def collapse_stem_faults(
    network: Network, include_inputs: bool = True
) -> List[StuckAt]:
    """One representative stem fault per equivalence class of the stem
    universe — the default fault list for sequential campaigns.

    Equivalent faults produce identical faulty functions at every
    evaluation (the gate-boundary identities above hold pointwise), so
    replacing a class by one member preserves campaign verdicts — for
    clocked runs too — while skipping the duplicate simulations.
    ``include_inputs=False`` drops primary-input stems, matching
    :func:`repro.logic.faults.enumerate_stem_faults`.
    """
    return compile_network(network).fault_universe(
        include_inputs, include_pins=False, live_only=False
    )


def collapsed_single_faults(
    network: Network,
    include_inputs: bool = True,
    include_pins: bool = True,
) -> List[Fault]:
    """Collapsed representatives of the live single stem+pin universe.

    The equivalence-only reduction of :func:`collapse_faults` (dominance
    stays opt-in there), without the faults on lines that reach no
    output.  Equivalence classes never straddle live and dead lines, so
    this is the collapsed form of
    :meth:`repro.engine.FaultSweep.single_fault_universe`.
    """
    comp = compile_network(network)
    return comp.fault_universe(include_inputs, include_pins)


def sorted_stem_universe(
    network: Network, collapse: bool = True
) -> List[StuckAt]:
    """The stem universe of ATPG and synthesis, sorted by ``(line,
    value)``: collapsed representatives, or every stem fault when
    ``collapse`` is off.  The order is then independent of enumeration
    order and representative choice (equivalent faults are
    equi-testable)."""
    faults = compile_network(network).fault_universe(
        include_pins=False, collapse=collapse, live_only=False
    )
    return sorted(faults, key=lambda f: (f.line, f.value))


def collapse_faults(
    network: Network, use_dominance: bool = False
) -> CollapseReport:
    """The representative single-fault list after collapsing.

    Representatives prefer stem faults (they match the thesis's per-line
    phrasing).  ``use_dominance`` additionally drops the dominated
    output faults of multi-input standard gates — sound only for
    *detection* fault lists over **irredundant** networks (if an input
    s-a-noncontrolling fault is itself untestable, the dominated output
    fault would lose its cover), which is why it is opt-in.

    Dominance: for an AND gate (controlling 0, forced 0) the output s-a-1
    is detected by any test for any input s-a-1, so with all pin faults
    kept the output s-a-1 may be dropped — and with it its whole class,
    which shares one detection behaviour; dually for the other standard
    gates.  NOT/BUF outputs are already equivalent, not merely dominated.
    """
    comp = compile_network(network)
    dominated = set()
    if use_dominance:
        for op in comp.ops:
            if len(op.srcs) >= 2:  # not NOT/BUF
                for _pin, forced in PIN_EQUIVALENCES.get(op.kind, ()):
                    dominated.add(2 * op.out + 1 - forced)
    classes = comp.fault_classes
    representatives = tuple(
        comp.fault(members[0])
        for members in classes
        if dominated.isdisjoint(members)
    )
    return CollapseReport(
        representatives=representatives,
        total=sum(len(members) for members in classes),
        equivalence_classes=len(classes),
        dominated_dropped=len(classes) - len(representatives),
    )
