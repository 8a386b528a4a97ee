"""Test generation for stuck-at faults under alternating operation
(Theorem 3.2 and its symbol set A, B, C, D, E, F).

For a line ``g`` the thesis defines (Section 3.2):

    A = F(X,0) ⊕ F(X,G(X))        — s-a-0 flips the first-period output
    B = F(X̄,0) ⊕ F(X̄,G(X̄))     — s-a-0 flips the second-period output
    C = F(X,1) ⊕ F(X,G(X))        — same for s-a-1
    D = F(X̄,1) ⊕ F(X̄,G(X̄))
    E = A & B,   F = C & D

Theorem 3.2: line ``g`` can be tested for stuck-at 0 iff ``E = 0``, and
then every point of ``A ∨ B`` is a test (the pair ``(X, X̄)`` yields a
nonalternating faulty output); dually for stuck-at 1 with ``F`` and
``C ∨ D``.  Points of ``E``/``F`` are exactly the incorrect-alternating
pairs of Corollary 3.1.

Because the test is the *pair*, "whichever input of the input pair is
applied first is irrelevant" — tests are reported as canonical pairs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..engine.compiled import compile_network
from ..logic.evaluate import line_tables
from ..logic.faults import StuckAt
from ..logic.network import Network
from ..logic.truthtable import TruthTable
from .simulate import canonical_pairs


@dataclasses.dataclass(frozen=True)
class StuckAtTestPlan:
    """Theorem 3.2's quantities for one line and one output."""

    line: str
    output: str
    #: A, B (s-a-0) and C, D (s-a-1) as point masks
    a: TruthTable
    b: TruthTable
    c: TruthTable
    d: TruthTable

    @property
    def e(self) -> TruthTable:
        return self.a & self.b

    @property
    def f(self) -> TruthTable:
        return self.c & self.d

    @property
    def sa0_testable(self) -> bool:
        """Theorem 3.2: iff E = 0 can the line be tested for s-a-0."""
        return self.e.is_zero()

    @property
    def sa1_testable(self) -> bool:
        return self.f.is_zero()

    def sa0_tests(self) -> List[Tuple[int, int]]:
        """Canonical test pairs for stuck-at 0 (``A ∨ B`` points whose
        pair is not an incorrect alternation)."""
        mask = (self.a | self.b) & ~self.e & ~self.e.co_reflect()
        return canonical_pairs(mask | mask.co_reflect())

    def sa1_tests(self) -> List[Tuple[int, int]]:
        mask = (self.c | self.d) & ~self.f & ~self.f.co_reflect()
        return canonical_pairs(mask | mask.co_reflect())

    def tests(self, stuck_value: int) -> List[Tuple[int, int]]:
        return self.sa0_tests() if stuck_value == 0 else self.sa1_tests()


def test_plan(
    network: Network,
    line: str,
    output: Optional[str] = None,
    normal_tables: Optional[Dict[str, TruthTable]] = None,
) -> StuckAtTestPlan:
    """Compute Theorem 3.2's A, B, C, D masks for one line.

    ``B`` and ``D`` are indexed by the *first-period* input ``X`` (the
    anchor of the pair), hence the ``co_reflect`` on the second-period
    difference.
    """
    if output is None:
        if len(network.outputs) != 1:
            raise ValueError("network has multiple outputs; name one")
        output = network.outputs[0]
    tables = normal_tables if normal_tables is not None else line_tables(network)
    t_normal = tables[output]
    diffs = {}
    for value in (0, 1):
        t_fault = line_tables(network, StuckAt(line, value))[output]
        diffs[value] = t_normal ^ t_fault
    return StuckAtTestPlan(
        line=line,
        output=output,
        a=diffs[0],
        b=diffs[0].co_reflect(),
        c=diffs[1],
        d=diffs[1].co_reflect(),
    )


def format_pair(pair: Tuple[int, int], names: Tuple[str, ...]) -> str:
    """Render a test pair as thesis-style bit strings, e.g. ``(1011,0100)``.

    The thesis prints input vectors most-significant-variable first; we
    print ``names`` order left to right.
    """
    def bits(point: int) -> str:
        return "".join(str((point >> i) & 1) for i in range(len(names)))

    return f"({bits(pair[0])},{bits(pair[1])})"


def all_test_pairs(
    network: Network,
    output: Optional[str] = None,
) -> Dict[Tuple[str, int], List[Tuple[int, int]]]:
    """Test pairs for every (line, stuck value); empty list = untestable.

    A complete alternating test sequence for the network is any input
    schedule applying at least one pair from every non-empty entry.
    """
    plans = {}
    for line in network.lines():
        plan = test_plan(network, line, output)
        plans[(line, 0)] = plan.sa0_tests() if plan.sa0_testable else []
        plans[(line, 1)] = plan.sa1_tests() if plan.sa1_testable else []
    return plans


def greedy_test_schedule(
    network: Network,
    output: Optional[str] = None,
    collapse: bool = True,
) -> List[Tuple[int, int]]:
    """A small set of input pairs covering every testable stuck-at fault.

    Greedy set cover over the per-fault test-pair lists; the thesis points
    out exhaustive application of all pairs suffices ("assuming all inputs
    are applied at some time"), but a compact schedule is what a real
    tester would apply.

    With ``collapse=True`` (the default) structurally equivalent faults
    are merged into one cover obligation before the greedy pass —
    equivalent faults have identical faulty functions, hence identical
    test-pair lists, so collapsing never loses coverage but does stop
    the schedule length from depending on how many aliases a class has.
    The selection is deterministic: candidate pairs are scanned in
    sorted order and ties break toward the smallest pair, so the result
    is independent of set/dict iteration order.
    """
    plans = all_test_pairs(network, output)
    rep: Dict[Tuple[str, int], Tuple[str, int]] = {}
    if collapse:
        comp = compile_network(network)
        n_stems = 2 * len(comp.names)
        for members in comp.fault_classes:
            stems = sorted(
                (comp.names[fid >> 1], fid & 1)
                for fid in members
                if fid < n_stems
            )
            for key in stems:
                rep[key] = stems[0]
    uncovered = set()
    pair_covers: Dict[Tuple[int, int], set] = {}
    for key in sorted(plans):
        tests = plans[key]
        if not tests:
            continue
        obligation = rep.get(key, key)
        uncovered.add(obligation)
        for pair in tests:
            pair_covers.setdefault(pair, set()).add(obligation)
    schedule: List[Tuple[int, int]] = []
    candidates = sorted(pair_covers)
    while uncovered:
        best_pair, best_gain = None, 0
        for pair in candidates:
            gain = len(pair_covers[pair] & uncovered)
            if gain > best_gain:
                best_pair, best_gain = pair, gain
        if best_pair is None:
            break
        schedule.append(best_pair)
        uncovered -= pair_covers[best_pair]
    return schedule
