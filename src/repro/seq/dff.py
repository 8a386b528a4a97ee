"""Flip-flop and register primitives.

Positive-edge-triggered D flip-flops, as fixed by the thesis's Section
4.3 convention ("Positive edge-triggered D-type flip-flops will be used,
so that data are latched on the 0 to 1 transition of their inputs").
The scalar model (stuck data, output and clock pins) backs
:class:`Register` and the dual flip-flop cells of
:mod:`repro.modules.shifter` and :mod:`repro.modules.status`; the clocked
SCAL machines use :class:`repro.seq.simulator.Element` instead.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class DFlipFlop:
    """One positive-edge D flip-flop with optional stuck pins."""

    def __init__(self, initial: int = 0) -> None:
        self.q = int(initial) & 1
        self._last_clock = 0
        self.stuck_d: Optional[int] = None
        self.stuck_q: Optional[int] = None
        self.stuck_clock: Optional[int] = None

    def clock_edge(self, d: int, clock: int) -> int:
        """Present ``d`` and the new ``clock`` level; latch on 0→1."""
        if self.stuck_clock is not None:
            clock = self.stuck_clock
        if self.stuck_d is not None:
            d = self.stuck_d
        if self._last_clock == 0 and clock == 1:
            self.q = int(d) & 1
        self._last_clock = clock
        return self.output

    @property
    def output(self) -> int:
        if self.stuck_q is not None:
            return self.stuck_q
        return self.q

    def reset(self, value: int = 0) -> None:
        self.q = int(value) & 1
        self._last_clock = 0


class Register:
    """A bank of D flip-flops sharing one clock."""

    def __init__(self, width: int, initial: Optional[Sequence[int]] = None) -> None:
        values = list(initial) if initial is not None else [0] * width
        if len(values) != width:
            raise ValueError("initial value width mismatch")
        self.cells: List[DFlipFlop] = [DFlipFlop(v) for v in values]

    def clock_edge(self, data: Sequence[int], clock: int) -> List[int]:
        if len(data) != len(self.cells):
            raise ValueError("data width mismatch")
        return [cell.clock_edge(d, clock) for cell, d in zip(self.cells, data)]

    @property
    def outputs(self) -> List[int]:
        return [cell.output for cell in self.cells]

    def reset(self, values: Optional[Sequence[int]] = None) -> None:
        values = list(values) if values is not None else [0] * len(self.cells)
        for cell, v in zip(self.cells, values):
            cell.reset(v)

    def __len__(self) -> int:
        return len(self.cells)

