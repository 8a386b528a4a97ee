"""Conditions A–E of Algorithm 3.1, plus the Corollary 3.2 relaxation.

These are the paper's per-line screens for "the network is self-checking
with respect to line g" in an irredundant self-dual network:

* **A** — the line alternates for every input pair (Theorem 3.6); in
  table form, the line's function is self-dual.
* **B** — the line does not fan out on its way to the output and every
  gate on the path is unate (Theorem 3.7).
* **C** — all paths from the line to the output have equal parity
  (Theorem 3.8).
* **D** — the line feeds a standard gate together with an alternating
  line (Theorem 3.9).  Soundness note: the theorem's argument covers the
  fault's propagation *through that gate*; we therefore require the line
  to feed only that gate (no other fanout within the output's cone), the
  same restriction under which the theorem's proof is airtight.  Lines
  with wider fanout fall through to condition E, which is exact.
* **E** — the exact check of Corollary 3.1: no stuck-at value produces an
  incorrect alternating output pair.

Conditions A–D are *sufficient* screens computed structurally or from
fault-free tables only; condition E (and the multi-output Corollary 3.2)
are exact and need the two faulty evaluations of the line.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Optional, Tuple

from ..engine.backends import engine_for
from ..logic.evaluate import line_tables
from ..logic.faults import StuckAt
from ..logic.gates import DOMINANT_VALUE
from ..logic.network import Network
from ..logic.paths import condition_b_holds, condition_c_holds
from ..logic.truthtable import TruthTable


class Condition(enum.Enum):
    """Which screen of Algorithm 3.1 admitted a line."""

    A_ALTERNATES = "A"
    B_NO_FANOUT_UNATE = "B"
    C_EQUAL_PARITY = "C"
    D_STANDARD_GATE = "D"
    E_COROLLARY_3_1 = "E"
    MULTI_OUTPUT = "3.2"  # Corollary 3.2 relaxation

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def condition_a(tables: Dict[str, TruthTable], line: str) -> bool:
    """Theorem 3.6: the line's value alternates for all input pairs."""
    return tables[line].is_self_dual()


def condition_b(cone: Network, line: str, output: str) -> bool:
    """Theorem 3.7 on the output's cone subnetwork."""
    return condition_b_holds(cone, line, output)


def condition_c(cone: Network, line: str, output: str) -> bool:
    """Theorem 3.8 on the output's cone subnetwork."""
    return condition_c_holds(cone, line, output)


def condition_d(
    network: Network,
    tables: Dict[str, TruthTable],
    line: str,
    cone_lines: Optional[set] = None,
) -> bool:
    """Theorem 3.9 with the single-destination soundness restriction.

    ``cone_lines`` limits the fanout view to one output's cone (pass the
    cone of the output under analysis for per-output screening).
    """
    destinations = [
        dest
        for dest in network.fanout(line)
        if cone_lines is None or dest in cone_lines
    ]
    if len(destinations) != 1:
        return False
    gate = network.gate(destinations[0])
    if gate.inputs.count(line) != 1:
        return False
    if gate.kind not in DOMINANT_VALUE:
        return False  # standard *multi-input* gates only; NOT has no co-input
    for other in gate.inputs:
        if other == line:
            continue
        if tables[other].is_self_dual():
            return True
    return False


@dataclasses.dataclass(frozen=True)
class ConditionEResult:
    """Outcome of the exact Corollary 3.1 check for one line and output."""

    holds: bool
    #: pair-symmetric masks of incorrect-alternating points, per stuck value
    violations_s0: TruthTable
    violations_s1: TruthTable

    def violating_points(self) -> Dict[int, Tuple[int, ...]]:
        return {
            0: tuple(self.violations_s0.minterms()),
            1: tuple(self.violations_s1.minterms()),
        }


def condition_e(
    network: Network,
    line: str,
    output: str,
    normal_tables: Optional[Dict[str, TruthTable]] = None,
) -> ConditionEResult:
    """Corollary 3.1, exactly, in bitmask form.

    An incorrect alternating output for ``g`` stuck-at ``s`` at the pair
    anchored at ``X`` is ``[F(X) ≠ F_f(X)] & [F_f(X̄) = ¬F_f(X)]``; using
    ``F(X̄) = ¬F(X)`` (self-dual normal operation) this is the mask
    ``(T ⊕ T_f) & ¬(T ⊕ T_f∘reflect)``.  Condition E holds iff both stuck
    values give the empty mask.
    """
    tables = normal_tables if normal_tables is not None else line_tables(network)
    t_normal = tables[output]
    engine = engine_for(network)
    out_idx = engine.compiled.index[output]
    n = engine.compiled.n_inputs
    masks = []
    for value in (0, 1):
        faulty_bits = engine.bitmask.line_bits(StuckAt(line, value))
        t_fault = TruthTable(n, faulty_bits[out_idx], t_normal.names)
        wrong = t_normal ^ t_fault
        agrees_with_normal_pairing = ~(t_normal ^ t_fault.co_reflect())
        masks.append(wrong & agrees_with_normal_pairing)
    return ConditionEResult(
        holds=masks[0].is_zero() and masks[1].is_zero(),
        violations_s0=masks[0],
        violations_s1=masks[1],
    )


def corollary_3_1_formula(
    network: Network,
    line: str,
    output: str,
    normal_tables: Optional[Dict[str, TruthTable]] = None,
) -> bool:
    """The literal textbook formula of Corollary 3.1, kept as an
    independent implementation for cross-validation in the test suite:

        F̄(X,G(X)) & [F(X,0) & F̄(X̄,0) ∨ F(X,1) & F̄(X̄,1)] = 0

    where ``F̄(X̄,s)`` is the complement of the faulty output at the
    complemented input.  The single product per stuck value suffices
    because, with all pairs applied, a violation whose first-period value
    is 1 appears as this product at the complemented anchor (the symmetry
    argument closing Section 3.2).
    """
    tables = normal_tables if normal_tables is not None else line_tables(network)
    t_normal = tables[output]
    engine = engine_for(network)
    out_idx = engine.compiled.index[output]
    n = engine.compiled.n_inputs
    for value in (0, 1):
        faulty_bits = engine.bitmask.line_bits(StuckAt(line, value))
        t_fault = TruthTable(n, faulty_bits[out_idx], t_normal.names)
        product = (~t_normal) & t_fault & ~(t_fault.co_reflect())
        if not product.is_zero():
            return False
    return True


def corollary_3_2(
    network: Network,
    line: str,
    output: str,
    e_result: ConditionEResult,
    normal_tables: Optional[Dict[str, TruthTable]] = None,
) -> bool:
    """The multiple-output relaxation (Definition 3.3 / Corollary 3.2).

    Every input pair where ``output`` alternates incorrectly under a
    fault on ``line`` must make some *other* output nonalternating for
    the same pair — then the checker still catches the fault.
    """
    for value, violations in ((0, e_result.violations_s0), (1, e_result.violations_s1)):
        if violations.is_zero():
            continue
        faulty = line_tables(network, StuckAt(line, value))
        protected = TruthTable(violations.n, 0)
        for other in network.outputs:
            if other == output:
                continue
            t_fault = faulty[other]
            nonalternating = ~(t_fault ^ t_fault.co_reflect())
            protected = protected | nonalternating
        uncovered = violations & ~protected
        if not uncovered.is_zero():
            return False
    return True
