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
The memory is row-parallel, like the loop it serves, and holds no fault
state: every access takes the caller's
:class:`~repro.engine.compiled.RowForcing`.  A clocked loop
(:class:`~repro.seq.simulator.Stepper`) keeps its one word itself, as
row masks: :meth:`ParityMemory.read_masks` resolves a forcing's routing
once per run and :meth:`~ParityMemory.gather` gives the word each row
starts from.  :meth:`~ParityMemory.store` and :meth:`~ParityMemory.load`
keep addressed cells on the instance, for the CPU.
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
        #: physical cell -> its stored per-bit row masks, parity bit
        #: last, for :meth:`store` and :meth:`load`
        self._cells: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    def force(self, forcing: RowForcing, row: int, fault: MemoryFault) -> None:
        """Add one memory fault to ``forcing`` in ``row``.

        ``ValueError`` for a fault on a line or cell this memory does not
        have: it would force a site nothing reads and vanish."""
        lines = {"cell": self.word_bits + 1, "address_line": self.address_bits}
        lines["data_line"] = self.word_bits + 1
        cell = fault.address or 0
        if not 0 <= fault.index < lines.get(fault.kind, 0) or not (
            0 <= cell < 1 << self.address_bits
        ):
            raise ValueError(f"{fault.describe()}: no such site in this memory")
        if fault.kind == "cell":
            site = ("mem", "cell", cell, fault.index)
        else:
            site = ("mem", fault.kind, fault.index)
        forcing.stick(site, 1 << row, fault.value)

    def routes(self, forcing: RowForcing, address: int) -> Dict[int, int]:
        """Physical cell -> the rows whose access to ``address`` lands
        there through their stuck address lines."""
        routes = {address & ((1 << self.address_bits) - 1): forcing.full}
        for index in range(self.address_bits):
            rows, ones = forcing.sites.get(("mem", "address_line", index), (0, 0))
            if not rows:
                continue
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

    def fold(self, full: int, address: int) -> int:
        """The folded address parity as a row mask (same in every row)."""
        if not self.fold_address_parity:
            return 0
        bits = [(address >> i) & 1 for i in range(self.address_bits)]
        return full if parity(bits) else 0

    def gather(
        self, cells: Dict[int, List[int]], forcing: RowForcing, address: int
    ) -> List[int]:
        """The stored word each row's access to ``address`` finds among
        ``cells`` (physical cell -> stored bits).  An unwritten cell holds
        zeros written *pre-fault* with correct addressing, its parity bit
        the fold of its own index: a misaddressed read trips the check."""
        word = [0] * (self.word_bits + 1)
        for cell, rows in self.routes(forcing, address).items():
            fresh = [0] * self.word_bits + [self.fold(forcing.full, cell)]
            bits = cells.get(cell) or fresh
            word = [w | (b & rows) for w, b in zip(word, bits)]
        return word

    def read_masks(
        self, forcing: RowForcing, address: int
    ) -> List[Tuple[int, int]]:
        """Per stored bit, the ``(rows, ones)`` a read of ``address``
        forces on the word each row finds: the stuck bits of the cell it
        lands in, then the stuck data lines.  A clocked run resolves the
        routing once, here."""
        routes = self.routes(forcing, address)
        masks = []
        for i in range(self.word_bits + 1):
            rows = ones = 0
            for cell, sel in routes.items():
                forced, value = forcing.sites.get(("mem", "cell", cell, i), (0, 0))
                rows |= forced & sel
                ones |= value & sel
            forced, value = forcing.sites.get(("mem", "data_line", i), (0, 0))
            masks.append((rows | forced, (ones & ~forced) | value))
        return masks

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
        word.append((int(data_parity) & full) ^ self.fold(full, address))
        for cell, rows in self.routes(forcing, address).items():
            old = self.gather(self._cells, RowForcing(forcing.rows), cell)
            self._cells[cell] = [o & ~rows | n & rows for o, n in zip(old, word)]

    def load(self, forcing: RowForcing, address: int) -> Tuple[List[int], int]:
        """Read ``(data bits, parity bit)`` with the address parity
        unfolded against the address the requester presents."""
        word = self.gather(self._cells, forcing, address)
        masks = self.read_masks(forcing, address)
        out = [w & ~rows | ones for w, (rows, ones) in zip(word, masks)]
        return out[: self.word_bits], out[-1] ^ self.fold(forcing.full, address)

    def check_word(self, data: Sequence[int], parity_bit: int) -> bool:
        """Even-parity validity of a (data, parity) code word."""
        return parity(list(data) + [int(parity_bit) & 1]) == 0


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
