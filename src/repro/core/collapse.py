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

The equivalence classes are computed once per network, on integer fault
ids, by :attr:`~repro.engine.compiled.CompiledNetwork.fault_classes`, and
:meth:`~repro.engine.compiled.CompiledNetwork.universe_ids` is the one
single-fault universe; the functions here are named views of it.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from ..engine.compiled import PIN_EQUIVALENCES, compile_network
from ..logic.faults import Fault
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


def collapsed_single_faults(
    network: Network,
    include_inputs: bool = True,
    include_pins: bool = True,
) -> List[Fault]:
    """The named faults of the default ``universe_ids``: collapsed
    representatives of the live single stem+pin universe, the named
    form ``perfbench`` sweeps."""
    comp = compile_network(network)
    ids = comp.universe_ids(include_inputs, include_pins)
    return list(map(comp.fault, ids))


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
