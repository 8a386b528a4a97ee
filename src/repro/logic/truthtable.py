"""Integer-bitmask truth tables.

The self-checking conditions of Chapter 3 are universally quantified
boolean identities ("for all X: F(X,G(X)) & [...] = 0", Corollary 3.1).
The natural executable form is truth-table algebra: a function of *n*
variables is a ``2**n``-bit integer where bit ``i`` holds the value at the
input point whose variable *j* equals bit *j* of ``i``.  Python's
arbitrary-precision integers make the pointwise ``&``, ``|``, ``^``, ``~``
of the thesis's equations single machine operations for all ``2**n``
points at once.

The one SCAL-specific operation is :meth:`TruthTable.co_reflect`: the
thesis constantly pairs the value at ``X`` with the value at the
complemented input ``X̄``.  At the bitmask level ``X̄`` is the index
``i ^ (2**n - 1)``, i.e. ``2**n - 1 - i``, so ``co_reflect`` is a
reversal of the table's bit order: :func:`reverse_bits`, the one
reversal of a truth table in this repository (a byte-table translate,
no per-bit loop).  With it, e.g. the self-dual test
``F(X̄) = ¬F(X)`` becomes ``tt.co_reflect() == ~tt``.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: ``_BYTE_MIRROR[b]`` is byte ``b`` with its eight bits in reverse order.
_BYTE_MIRROR = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def reverse_bits(bits: int, n: int) -> int:
    """Reverse the ``2**n`` bits of a truth table: bit ``i`` moves to bit
    ``i ^ (2**n - 1)``, the SCAL ``X → X̄`` pairing.

    Little-endian bytes with each byte's bits mirrored, read back
    big-endian, are the whole bit string reversed; tables narrower than
    a byte (``n < 3``) take a plain loop.
    """
    if n < 3:
        top = (1 << n) - 1
        return sum(1 << (top - i) for i in range(top + 1) if bits >> i & 1)
    return int.from_bytes(
        bits.to_bytes(1 << (n - 3), "little").translate(_BYTE_MIRROR), "big"
    )


@dataclasses.dataclass(frozen=True)
class TruthTable:
    """A boolean function of ``n`` named variables as a ``2**n``-bit mask."""

    n: int
    bits: int
    names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.names and len(self.names) != self.n:
            raise ValueError("names length must equal variable count")
        size = 1 << self.n
        if self.bits < 0 or self.bits >> size:
            raise ValueError("bits outside the 2**n-entry table")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def variable(index: int, n: int, names: Sequence[str] = ()) -> "TruthTable":
        """The projection onto variable ``index`` (bit ``index`` of the
        input point)."""
        if not 0 <= index < n:
            raise ValueError("variable index out of range")
        bits = 0
        for i in range(1 << n):
            if (i >> index) & 1:
                bits |= 1 << i
        return TruthTable(n, bits, tuple(names))

    @staticmethod
    def constant(value: int, n: int, names: Sequence[str] = ()) -> "TruthTable":
        full = (1 << (1 << n)) - 1
        return TruthTable(n, full if value else 0, tuple(names))

    @staticmethod
    def from_function(
        fn: Callable[..., int], n: int, names: Sequence[str] = ()
    ) -> "TruthTable":
        """Tabulate a Python predicate ``fn(x0, ..., x_{n-1}) -> 0/1``."""
        bits = 0
        for i in range(1 << n):
            point = tuple((i >> j) & 1 for j in range(n))
            if fn(*point):
                bits |= 1 << i
        return TruthTable(n, bits, tuple(names))

    @staticmethod
    def from_values(values: Sequence[int], names: Sequence[str] = ()) -> "TruthTable":
        """Tabulate from an explicit output list indexed by input point."""
        size = len(values)
        n = size.bit_length() - 1
        if 1 << n != size:
            raise ValueError("values length must be a power of two")
        bits = 0
        for i, v in enumerate(values):
            if v:
                bits |= 1 << i
        return TruthTable(n, bits, tuple(names))

    @staticmethod
    def from_minterms(
        minterms: Iterable[int], n: int, names: Sequence[str] = ()
    ) -> "TruthTable":
        bits = 0
        for m in minterms:
            if not 0 <= m < (1 << n):
                raise ValueError(f"minterm {m} out of range for {n} variables")
            bits |= 1 << m
        return TruthTable(n, bits, tuple(names))

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    @property
    def full(self) -> int:
        return (1 << (1 << self.n)) - 1

    def _check_compatible(self, other: "TruthTable") -> None:
        if self.n != other.n:
            raise ValueError("truth tables over different variable counts")

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.n, self.bits & other.bits, self.names)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.n, self.bits | other.bits, self.names)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.n, self.bits ^ other.bits, self.names)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.n, ~self.bits & self.full, self.names)

    def is_zero(self) -> bool:
        return self.bits == 0

    def is_one(self) -> bool:
        return self.bits == self.full

    def value(self, point: int) -> int:
        """The function value at input point ``point``."""
        return (self.bits >> point) & 1

    def minterms(self) -> List[int]:
        """Input points where the function is 1 (one pass over the bits:
        shifting a 2^n-bit int once per point is quadratic)."""
        text = format(self.bits, "b")[::-1]
        return [i for i, bit in enumerate(text) if bit == "1"]

    def count_ones(self) -> int:
        return bin(self.bits).count("1")

    def points(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(point, value)`` over the whole table."""
        for i in range(1 << self.n):
            yield i, (self.bits >> i) & 1

    # ------------------------------------------------------------------
    # SCAL-specific operations
    # ------------------------------------------------------------------
    def co_reflect(self) -> "TruthTable":
        """The table ``G(X) = F(X̄)`` — the *second time period* view.

        SCAL applies the complemented input in the second period; every
        chapter-3 equation that mentions ``F(X̄, ...)`` is, in bitmask
        form, a ``co_reflect`` of the corresponding first-period table.
        """
        return TruthTable(self.n, reverse_bits(self.bits, self.n), self.names)

    def dual(self) -> "TruthTable":
        """The dual function ``F^d(X) = ¬F(X̄)``."""
        return ~self.co_reflect()

    def is_self_dual(self) -> bool:
        """Definition 2.7: ``F(X̄) = ¬F(X)`` for every ``X``."""
        return self.co_reflect().bits == (~self.bits & self.full)

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def cofactor(self, index: int, value: int) -> "TruthTable":
        """Shannon cofactor: substitute ``value`` for variable ``index``,
        replicated back over the full space so tables stay composable."""
        if not 0 <= index < self.n:
            raise ValueError("variable index out of range")
        bits = 0
        for i in range(1 << self.n):
            j = (i & ~(1 << index)) | (value << index)
            if (self.bits >> j) & 1:
                bits |= 1 << i
        return TruthTable(self.n, bits, self.names)

    def depends_on(self, index: int) -> bool:
        return self.cofactor(index, 0).bits != self.cofactor(index, 1).bits

    def support(self) -> Tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.depends_on(i))

    def unateness(self, index: int) -> Optional[int]:
        """``+1`` if positive unate in variable ``index``, ``-1`` if
        negative unate, ``0`` if independent, ``None`` if binate."""
        lo, hi = self.cofactor(index, 0), self.cofactor(index, 1)
        if lo.bits == hi.bits:
            return 0
        rising_ok = (lo.bits & ~hi.bits) == 0  # f(x=0) <= f(x=1) pointwise
        falling_ok = (hi.bits & ~lo.bits) == 0
        if rising_ok:
            return 1
        if falling_ok:
            return -1
        return None

    def restrict_names(self, names: Sequence[str]) -> "TruthTable":
        return TruthTable(self.n, self.bits, tuple(names))

    def __str__(self) -> str:
        rows = []
        for i in range(1 << self.n):
            point = "".join(str((i >> j) & 1) for j in range(self.n))
            rows.append(f"{point}:{(self.bits >> i) & 1}")
        return " ".join(rows)


def all_functions(n: int) -> Iterator[TruthTable]:
    """Every boolean function of ``n`` variables (use only for tiny n)."""
    for bits in range(1 << (1 << n)):
        yield TruthTable(n, bits)


def all_points(n: int) -> Iterator[Tuple[int, ...]]:
    """Every 0/1 assignment of ``n`` variables, little-endian order."""
    for point in itertools.product((0, 1), repeat=n):
        yield point[::-1]


def assignment_of_point(point: int, names: Sequence[str]) -> Dict[str, int]:
    """Decode a table index into a ``{name: value}`` assignment."""
    return {name: (point >> i) & 1 for i, name in enumerate(names)}


def point_of_assignment(assignment: Dict[str, int], names: Sequence[str]) -> int:
    """Encode a ``{name: value}`` assignment into a table index."""
    point = 0
    for i, name in enumerate(names):
        if assignment[name]:
            point |= 1 << i
    return point
