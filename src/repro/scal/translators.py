"""The code translators of the code-conversion technique (Section 4.3).

* **ALPT** (Alternating Logic to Parity Translator, Figure 4.4a): takes
  the alternating pair ``(Y, Ȳ)`` produced by the self-dual block over
  two periods and emits an (n+1)-bit parity code word for storage —
  the data bits latched from the first (true) period on the 0→1 clock
  transition, the parity bit latched from the second (complemented)
  period on the 1→0 transition.  With an even word size the parity of
  ``Ȳ`` equals the parity of ``Y``; for odd sizes the period clock is
  folded in, the thesis's "convert an odd word size to even word size or
  change the parity" remark.
* **PALT** (Parity to Alternating Logic Translator, Figure 4.4b): takes
  a stored code word and regenerates the alternating pair by XOR-ing
  every line with the period clock, and produces a 1-out-of-2 code from
  the stored parity bit and the complemented parity recomputed from its
  own data outputs — the self-checking hook Theorem 4.3 relies on.

Both are register-transfer-level models with *named internal fault
sites* matching the line classes the proofs of Theorems 4.1 and 4.3 walk
through (letters a–j as printed in Figures 4.4a/4.4b), so the theorems
can be checked by exhaustive injection.  Both are row-parallel: a
code-conversion campaign clocks every fault at once, one per row, and
the single-fault API is the one-row case.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from ..engine.compiled import RowForcing


@dataclasses.dataclass(frozen=True)
class TranslatorFault:
    """A stuck line inside a translator.

    ``site`` names the line class from the thesis's figures; ``index``
    selects the bit position for per-bit sites (ignored otherwise).

    ALPT sites: ``a`` input line, ``b`` latch data-in, ``c`` latch
    output, ``d`` latch clock, ``e`` parity-tree input, ``f`` parity
    latch data-in, ``i`` parity latch output, ``h``/``j`` parity latch
    clock, ``g`` common clock stem.

    PALT sites: ``a`` stored-data input line, ``b`` XOR output (the
    alternating data output), ``c``/``d`` period-clock branch into one
    XOR, ``e`` parity-complement tree, ``f`` computed-parity output,
    ``g``/``h`` the two 1-out-of-2 code output lines.
    """

    site: str
    index: int
    value: int

    def describe(self) -> str:
        return f"{self.site}[{self.index}] s/{self.value}"


class ALPT:
    """Alternating Logic to Parity Translator (Figure 4.4a).

    Row-parallel (:class:`~repro.engine.compiled.RowForcing`): latches
    and line values are row masks and every site is forced through
    :attr:`forcing`.
    :meth:`inject` arms one fault in a one-row forcing — the scalar case.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self.data_latches: List[int] = [0] * width
        self.parity_latch: int = 0
        self.inject(None)

    def inject(self, fault: Optional[TranslatorFault]) -> None:
        self.fault = fault
        self.forcing = RowForcing()
        if fault is not None:
            self.force(self.forcing, 0, fault)

    @staticmethod
    def force(forcing: RowForcing, row: int, fault: TranslatorFault) -> None:
        """Add one ALPT line fault to ``forcing`` in ``row``.  The clock
        sites ``g`` and ``h``/``j`` have no bit position."""
        index = 0 if fault.site in ("g", "h", "j") else fault.index
        forcing.stick(("alpt", fault.site, index), 1 << row, fault.value)

    def feed_pair(
        self,
        true_values: Sequence[int],
        comp_values: Sequence[int],
        address_parity: int = 0,
    ) -> Tuple[List[int], int]:
        """Consume one alternating pair; return the (data, parity) word.

        ``address_parity`` (one bit, the same in every row) is folded
        into the parity bit when the word is headed for random-access
        memory (Dussault's scheme).
        """
        if len(true_values) != self.width or len(comp_values) != self.width:
            raise ValueError("value width mismatch")
        f = self.forcing
        full = f.full
        # A stuck common clock (g) holds every latch.
        stopped = f.forced_rows(("alpt", "g", 0))
        # First period ends: 0->1 transition latches the true data
        # values; a stuck latch clock (d) retains the previous value.
        for k in range(self.width):
            a = f.apply(("alpt", "a", k), int(true_values[k]) & full)
            b = f.apply(("alpt", "b", k), a)
            hold = stopped | f.forced_rows(("alpt", "d", k))
            self.data_latches[k] = (self.data_latches[k] & hold) | (b & ~hold)
        # Second period ends: 1->0 transition latches the parity of the
        # complemented values (for even width this equals the data
        # parity; odd widths fold the period clock, i.e. a constant 1).
        par = 0
        for k in range(self.width):
            a = f.apply(("alpt", "a", k), int(comp_values[k]) & full)
            par ^= f.apply(("alpt", "e", k), a)
        if (self.width ^ int(address_parity)) & 1:
            par ^= full
        par = f.apply(("alpt", "f", 0), par)
        hold = (
            stopped
            | f.forced_rows(("alpt", "h", 0))
            | f.forced_rows(("alpt", "j", 0))
        )
        self.parity_latch = (self.parity_latch & hold) | (par & ~hold)
        data_out = [
            f.apply(("alpt", "c", k), latch)
            for k, latch in enumerate(self.data_latches)
        ]
        return data_out, f.apply(("alpt", "i", 0), self.parity_latch)


class PALT:
    """Parity to Alternating Logic Translator (Figure 4.4b), row-parallel
    like :class:`ALPT`."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.inject(None)

    def inject(self, fault: Optional[TranslatorFault]) -> None:
        self.fault = fault
        self.forcing = RowForcing()
        if fault is not None:
            self.force(self.forcing, 0, fault)

    @staticmethod
    def force(forcing: RowForcing, row: int, fault: TranslatorFault) -> None:
        """Add one PALT line fault to ``forcing`` in ``row``."""
        forcing.stick(("palt", fault.site, fault.index), 1 << row, fault.value)

    def outputs_for_period(
        self, stored_data: Sequence[int], phase: int
    ) -> List[int]:
        """The alternating data outputs ``y_k = t_k ⊕ φ`` for one period
        (``phase`` is one bit, the same in every row)."""
        if len(stored_data) != self.width:
            raise ValueError("stored word width mismatch")
        f = self.forcing
        clock = f.full if int(phase) & 1 else 0
        outs = []
        for k in range(self.width):
            a = f.apply(("palt", "a", k), int(stored_data[k]) & f.full)
            c = f.apply(("palt", "d", k), f.apply(("palt", "c", k), clock))
            outs.append(f.apply(("palt", "b", k), a ^ c))
        return outs

    def code_output(
        self,
        stored_data: Sequence[int],
        stored_parity: int,
        address_parity: int = 0,
    ) -> Tuple[int, int]:
        """The 1-out-of-2 code pair (stored parity, complement of the
        recomputed parity of the first-period data outputs).

        Valid operation gives complementary values; equal values are a
        noncode word — the checker input Theorem 4.3 requires.
        """
        f = self.forcing
        computed = 0
        for k, value in enumerate(self.outputs_for_period(stored_data, 0)):
            computed ^= f.apply(("palt", "e", k), value)
        if int(address_parity) & 1:
            computed ^= f.full
        complement = f.apply(("palt", "f", 0), computed ^ f.full)
        g_line = f.apply(("palt", "g", 0), int(stored_parity) & f.full)
        h_line = f.apply(("palt", "h", 0), complement)
        return g_line, h_line

    @staticmethod
    def code_valid(code: Tuple[int, int]) -> bool:
        """1-out-of-2 validity: exactly one of the two rails is 1."""
        return code[0] != code[1]
