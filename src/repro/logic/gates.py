"""Gate primitives for the SCAL logic substrate.

The thesis (Woodard 1977 / Woodard & Metze, ISCA 1978) reasons about
networks built from *standard gates* (Definition 3.2: NOT, NAND, AND, NOR,
OR), XOR-style gates (which are explicitly *not* standard — Theorem 3.9
does not apply to them), and threshold gates (majority and minority
modules, Chapter 6). This module defines the gate alphabet, the boolean
semantics of each gate, and the structural attributes the self-checking
analysis needs:

* *standardness* (Definition 3.2) — used by condition D of Algorithm 3.1,
* *unateness* — used by condition B (Theorem 3.7),
* *dominant input values* — the value that forces a standard gate's output
  regardless of its other inputs (0 for AND/NAND, 1 for OR/NOR),
* *inversion parity* — whether the gate inverts, used by the path-parity
  analysis of condition C (Theorem 3.8 / Definition 3.1).

All gate evaluation is defined both pointwise (``evaluate``) and
word-parallel over integer bitmasks (``evaluate_mask``), the latter being
what makes exhaustive fault simulation over all ``2**n`` inputs cheap.
"""

from __future__ import annotations

import enum
from typing import Sequence


class GateKind(enum.Enum):
    """The gate alphabet of the SCAL substrate."""

    INPUT = "input"
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    MAJ = "maj"
    MIN = "min"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GateKind.{self.name}"


#: Gates named by Definition 3.2 of the thesis.  Condition D of Algorithm
#: 3.1 ("input to the same standard gate as an alternating line") only
#: applies to these, because only these exhibit the dominance property.
STANDARD_GATES = frozenset(
    {GateKind.NOT, GateKind.NAND, GateKind.AND, GateKind.NOR, GateKind.OR}
)

#: Gates that are monotone (unate) in every input.  Condition B of
#: Algorithm 3.1 (Theorem 3.7) requires the path from a line to the output
#: to pass only through unate gates.  NOT/NAND/NOR are unate (negative
#: unate in each input); XOR/XNOR are not unate in any input.
UNATE_GATES = frozenset(
    {
        GateKind.BUF,
        GateKind.NOT,
        GateKind.AND,
        GateKind.OR,
        GateKind.NAND,
        GateKind.NOR,
        GateKind.MAJ,
        GateKind.MIN,
    }
)

#: Gates whose output is the complement of a monotone-increasing function
#: of the inputs.  Used to compute path *parity* (Definition 3.1): the
#: modulo-2 number of inversions along a path.
INVERTING_GATES = frozenset(
    {GateKind.NOT, GateKind.NAND, GateKind.NOR, GateKind.XNOR, GateKind.MIN}
)

#: ``kind -> (dominant input value, forced output value)`` for standard
#: multi-input gates (Theorem 3.9): applying the dominant value to any one
#: input forces the gate output independent of the other inputs.
DOMINANT_VALUE = {
    GateKind.AND: (0, 0),
    GateKind.NAND: (0, 1),
    GateKind.OR: (1, 1),
    GateKind.NOR: (1, 0),
}

#: Minimum and maximum input arity for each kind; ``None`` = unbounded.
_ARITY = {
    GateKind.INPUT: (0, 0),
    GateKind.CONST0: (0, 0),
    GateKind.CONST1: (0, 0),
    GateKind.BUF: (1, 1),
    GateKind.NOT: (1, 1),
    GateKind.AND: (1, None),
    GateKind.OR: (1, None),
    GateKind.NAND: (1, None),
    GateKind.NOR: (1, None),
    GateKind.XOR: (1, None),
    GateKind.XNOR: (1, None),
    GateKind.MAJ: (3, None),
    GateKind.MIN: (1, None),
}


class GateArityError(ValueError):
    """Raised when a gate is built with an illegal number of inputs."""


def check_arity(kind: GateKind, n_inputs: int) -> None:
    """Raise :class:`GateArityError` unless ``n_inputs`` is legal for ``kind``.

    Majority gates additionally require an odd number of inputs so that
    "more than half" is unambiguous; minority modules follow the thesis's
    Chapter 6 convention of an odd total input count (the conversion of
    Theorem 6.2 always produces odd ``2N-1``), but even-input minority
    gates are permitted and mean "strictly fewer than half ones".
    """
    low, high = _ARITY[kind]
    if n_inputs < low or (high is not None and n_inputs > high):
        raise GateArityError(f"{kind.value} gate cannot take {n_inputs} inputs")
    if kind is GateKind.MAJ and n_inputs % 2 == 0:
        raise GateArityError("majority gate requires an odd number of inputs")


def evaluate(kind: GateKind, values: Sequence[int]) -> int:
    """Evaluate one gate pointwise on 0/1 input values.

    ``MAJ`` returns 1 iff more than half of the inputs are 1; ``MIN``
    (the minority module of Figure 6.1a) returns 1 iff *fewer than half*
    of the inputs are 1, i.e. ``W(A) < I/2`` in the thesis's notation.
    """
    if kind is GateKind.CONST0:
        return 0
    if kind is GateKind.CONST1:
        return 1
    if kind is GateKind.BUF:
        return values[0]
    if kind is GateKind.NOT:
        return 1 - values[0]
    if kind is GateKind.AND:
        return int(all(values))
    if kind is GateKind.OR:
        return int(any(values))
    if kind is GateKind.NAND:
        return 1 - int(all(values))
    if kind is GateKind.NOR:
        return 1 - int(any(values))
    if kind is GateKind.XOR:
        return sum(values) % 2
    if kind is GateKind.XNOR:
        return 1 - (sum(values) % 2)
    if kind is GateKind.MAJ:
        return int(2 * sum(values) > len(values))
    if kind is GateKind.MIN:
        return int(2 * sum(values) < len(values))
    raise ValueError(f"gate kind {kind} has no pointwise evaluation")


def evaluate_mask(kind: GateKind, masks: Sequence[int], full: int) -> int:
    """Evaluate one gate word-parallel over truth-table bitmasks.

    ``masks[i]`` holds the value of input *i* for every point of the input
    space as a bitmask; ``full`` is the all-ones mask for that space.  The
    return value is the output bitmask.  This is the core primitive behind
    exhaustive condition-E evaluation (Corollary 3.1) and the SCAL fault
    oracle: one pass over the netlist evaluates all ``2**n`` inputs.
    """
    # Commonest kinds first: this runs once per gate per evaluation.
    if kind is GateKind.AND:
        out = full
        for m in masks:
            out &= m
        return out
    if kind is GateKind.OR:
        out = 0
        for m in masks:
            out |= m
        return out
    if kind is GateKind.NOT:
        return ~masks[0] & full
    if kind is GateKind.XOR:
        out = 0
        for m in masks:
            out ^= m
        return out
    if kind is GateKind.NAND:
        out = full
        for m in masks:
            out &= m
        return ~out & full
    if kind is GateKind.NOR:
        out = 0
        for m in masks:
            out |= m
        return ~out & full
    if kind is GateKind.XNOR:
        out = 0
        for m in masks:
            out ^= m
        return ~out & full
    if kind is GateKind.BUF:
        return masks[0]
    if kind is GateKind.CONST0:
        return 0
    if kind is GateKind.CONST1:
        return full
    if kind in (GateKind.MAJ, GateKind.MIN):
        return _threshold_mask(kind, masks, full)
    raise ValueError(f"gate kind {kind} has no mask evaluation")


def _threshold_mask(kind: GateKind, masks: Sequence[int], full: int) -> int:
    """Word-parallel threshold evaluation via a bit-sliced population count.

    Maintains a little-endian binary counter of how many inputs are 1 at
    each truth-table point, then thresholds the count against ``len/2``.
    """
    counter: list[int] = []
    for m in masks:
        carry = m
        for i, c in enumerate(counter):
            new_carry = c & carry
            counter[i] = c ^ carry
            carry = new_carry
            if not carry:
                break
        if carry:
            counter.append(carry)
    n = len(masks)
    out = 0
    # A point satisfies the threshold if its count, read from the bit-sliced
    # counter, compares correctly with n/2.  Enumerate achievable counts.
    for count in range(n + 1):
        if kind is GateKind.MAJ and not 2 * count > n:
            continue
        if kind is GateKind.MIN and not 2 * count < n:
            continue
        sel = full
        for bit, slice_mask in enumerate(counter):
            if (count >> bit) & 1:
                sel &= slice_mask
            else:
                sel &= ~slice_mask & full
        if count >> len(counter):
            sel = 0  # count not representable in the counter width
        out |= sel
    return out


def is_standard(kind: GateKind) -> bool:
    """True for the standard gates of Definition 3.2."""
    return kind in STANDARD_GATES


def is_unate(kind: GateKind) -> bool:
    """True when the gate is monotone (possibly inverted) in every input."""
    return kind in UNATE_GATES


def inverts(kind: GateKind) -> bool:
    """True when the gate contributes one inversion to path parity."""
    return kind in INVERTING_GATES
