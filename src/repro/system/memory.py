"""Parity-encoded memory with address-parity folding (Sections 4.3, 7.2).

The code-conversion technique stores an *n*-bit word plus one parity bit:
"only n+1 bits are required to provide the necessary code distance for
single fault detection".  For random-access memory the thesis adopts
Dussault's scheme: "the address selection of memory must be self-checking
... by including the parity of the address with the parity of the data
stored" — a stuck address line then makes the write-side and read-side
folded parities disagree, and the 1-out-of-2 code at the PALT breaks.

Fault injection covers the memory's single-fault modes: one stuck data
cell bit, one stuck data line (affects every access), and one stuck
address line (the misaddressing fault the folding is there to catch).
The memory is row-parallel, like the translators, and holds no fault
state: :meth:`ParityMemory.store` and :meth:`~ParityMemory.load` take the
caller's :class:`~repro.engine.compiled.RowForcing`, so a code-conversion
campaign keeps every faulty copy in one instance.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.compiled import RowForcing


def parity(bits: Sequence[int]) -> int:
    """Even-parity sum (XOR) of a bit sequence."""
    acc = 0
    for b in bits:
        acc ^= int(b) & 1
    return acc


@dataclasses.dataclass(frozen=True)
class MemoryFault:
    """One single fault inside the memory subsystem.

    ``kind`` is one of ``"cell"`` (one stored bit of one word stuck),
    ``"data_line"`` (one bit position stuck on every read),
    ``"address_line"`` (one address bit stuck for every access).
    """

    kind: str
    index: int
    value: int
    address: Optional[int] = None  # for "cell": which word

    def describe(self) -> str:
        if self.kind == "cell":
            return f"mem.cell[{self.address}].bit{self.index} s/{self.value}"
        return f"mem.{self.kind}{self.index} s/{self.value}"


class ParityMemory:
    """Word-addressable storage of (data, parity) code words.

    Row-parallel (:class:`~repro.engine.compiled.RowForcing`): stored
    bits are row masks and faults are forced through the caller's
    forcing, so a campaign keeps one faulty memory per row in one
    instance and a one-row forcing is the scalar case.
    """

    def __init__(
        self,
        word_bits: int,
        address_bits: int = 4,
        fold_address_parity: bool = True,
    ) -> None:
        self.word_bits = word_bits
        self.address_bits = address_bits
        self.fold_address_parity = fold_address_parity
        #: physical address -> (rows that wrote it, per-bit row masks)
        self._cells: Dict[int, Tuple[int, List[int]]] = {}

    # ------------------------------------------------------------------
    def force(self, forcing: RowForcing, row: int, fault: MemoryFault) -> None:
        """Add one memory fault to ``forcing`` in ``row``."""
        if fault.kind == "cell":
            cell = (fault.address or 0) & ((1 << self.address_bits) - 1)
            site = ("mem", "cell", cell, fault.index)
        else:
            site = ("mem", fault.kind, fault.index)
        forcing.stick(site, 1 << row, fault.value)

    def _routes(self, forcing: RowForcing, address: int) -> Dict[int, int]:
        """Physical cell -> the rows whose access to ``address`` lands
        there through their stuck address lines."""
        routes = {address & ((1 << self.address_bits) - 1): forcing.full}
        for index in range(self.address_bits):
            forced = forcing.sites.get(("mem", "address_line", index))
            if forced is None:
                continue
            rows, ones = forced
            bit = 1 << index
            moved: Dict[int, int] = {}
            for cell, sel in routes.items():
                for target, part in (
                    (cell | bit, sel & rows & ones),
                    (cell & ~bit, sel & rows & ~ones),
                    (cell, sel & ~rows),
                ):
                    if part:
                        moved[target] = moved.get(target, 0) | part
            routes = moved
        return routes

    def _address_parity(self, full: int, address: int) -> int:
        """The folded address parity as a row mask (same in every row)."""
        if not self.fold_address_parity:
            return 0
        bits = [(address >> i) & 1 for i in range(self.address_bits)]
        return full if parity(bits) else 0

    def store(
        self,
        forcing: RowForcing,
        address: int,
        data: Sequence[int],
        data_parity: int,
    ) -> None:
        """Store a word with its parity bit, folding the parity of the
        address *as presented by the requester* (a stuck address line
        inside the memory then routes the word, with the requester's
        address parity, to the wrong cell)."""
        full = forcing.full
        word = [int(b) & full for b in data]
        fold = self._address_parity(full, address)
        word.append((int(data_parity) & full) ^ fold)
        for cell, rows in self._routes(forcing, address).items():
            written, bits = self._cells.get(cell, (0, word))
            self._cells[cell] = (
                written | rows,
                [(old & ~rows) | (new & rows) for old, new in zip(bits, word)],
            )

    def load(self, forcing: RowForcing, address: int) -> Tuple[List[int], int]:
        """Read ``(data bits, parity bit)`` with the address parity
        unfolded against the address the requester presents.

        Unwritten cells read as zero words initialized *pre-fault* with
        correct addressing: their stored parity carries the fold of the
        physical cell index, so a healthy read of a fresh cell is a
        valid code word while a misaddressed read still trips the check.
        """
        f = forcing
        out = [0] * (self.word_bits + 1)
        for cell, rows in self._routes(f, address).items():
            fresh_parity = self._address_parity(f.full, cell)
            default = [0] * self.word_bits + [fresh_parity]
            written, bits = self._cells.get(cell, (0, default))
            for i, (value, fresh) in enumerate(zip(bits, default)):
                value = (value & written) | (fresh & ~written)
                out[i] |= f.apply(("mem", "cell", cell, i), value) & rows
        out = [f.apply(("mem", "data_line", i), v) for i, v in enumerate(out)]
        fold = self._address_parity(f.full, address)
        return out[: self.word_bits], out[-1] ^ fold

    def check_word(self, data: Sequence[int], parity_bit: int) -> bool:
        """Even-parity validity of a (data, parity) code word."""
        return parity(list(data) + [int(parity_bit) & 1]) == 0

    def clear(self) -> None:
        self._cells.clear()


def single_memory_faults(
    word_bits: int, address_bits: int, addresses: Sequence[int] = (0,)
) -> List[MemoryFault]:
    """The single-fault universe of one memory instance."""
    faults: List[MemoryFault] = []
    for index in range(word_bits + 1):
        for value in (0, 1):
            faults.append(MemoryFault("data_line", index, value))
            for addr in addresses:
                faults.append(MemoryFault("cell", index, value, address=addr))
    for index in range(address_bits):
        for value in (0, 1):
            faults.append(MemoryFault("address_line", index, value))
    return faults
