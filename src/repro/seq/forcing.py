"""Row-parallel stuck-at forcing for clocked simulation.

A clocked fault campaign runs every fault of a machine at once: fault
``r`` is *row* ``r``, and every line value, flip-flop stage, latch and
memory bit is a Python integer whose bit ``r`` is row ``r``'s value.
A single stuck-at then becomes a forcing mask pair ``(rows, ones)`` on
one *site*: the rows it forces and the values it forces them to,
applied as ``v = (v & ~rows) | ones`` exactly where the single fault
used to be applied.  A one-row forcing is the scalar single-fault case.

Sites are any hashable key.  The combinational network's stems and
pins are kept in their own tables (indexed by compiled line and op
position) because the gate loop reads them on every op.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

Masks = Tuple[int, int]


def _merge(table: Dict, key: Hashable, row: int, value: int) -> None:
    rows, ones = table.get(key, (0, 0))
    bit = 1 << row
    table[key] = (rows | bit, (ones & ~bit) | (bit if value else 0))


class RowForcing:
    """Stuck-at forcing masks over ``rows`` parallel rows."""

    def __init__(self, rows: int = 1) -> None:
        self.rows = rows
        self.full = (1 << rows) - 1
        #: compiled line index -> (rows, ones)
        self.lines: Dict[int, Masks] = {}
        #: op position -> {operand slot: (rows, ones)}
        self.pins: Dict[int, Dict[int, Masks]] = {}
        #: any other site (flip-flop stage, translator line, memory bit)
        self.sites: Dict[Hashable, Masks] = {}

    def stick(self, site: Hashable, row: int, value: int) -> None:
        """Force ``site`` to ``value`` in ``row``."""
        _merge(self.sites, site, row, value)

    def stick_line(self, line: int, row: int, value: int) -> None:
        _merge(self.lines, line, row, value)

    def stick_pin(self, op: int, slot: int, row: int, value: int) -> None:
        _merge(self.pins.setdefault(op, {}), slot, row, value)

    def apply(self, site: Hashable, value: int) -> int:
        """``value`` with the rows forced at ``site`` overridden."""
        forced = self.sites.get(site)
        if forced is None:
            return value
        rows, ones = forced
        return (value & ~rows) | ones

    def forced_rows(self, site: Hashable) -> int:
        """The rows forced at ``site``, whatever their value (a stuck
        latch clock holds the latch either way)."""
        forced = self.sites.get(site)
        return 0 if forced is None else forced[0]
