"""The code-conversion SCAL sequential machine (Figure 4.5, Theorem 4.4).

The thesis's memory-efficient alternative to dual flip-flops: keep the
self-dual combinational block, but translate its alternating feedback
``(Y, Ȳ)`` to an (n+1)-bit parity word (ALPT), store that, and translate
back to alternating form (PALT) for the next step.  An n-bit machine then
needs n+1 storage bits instead of 2n.

Checkers monitor (1) alternation of the external Z outputs and of the
fed-back Y outputs, and (2) the PALT's 1-out-of-2 code — the combination
Theorem 4.4 proves sufficient for the feedback to be self-checking.

A fault is a ``(unit, fault)`` pair and reaches every part of the loop:
the combinational network (``comb``: stem/pin stuck-ats), ALPT lines
(``alpt``), memory (``mem``: cells, data lines, address lines), and PALT
lines (``palt``).  The loop is clocked row-parallel
(:class:`~repro.engine.compiled.RowForcing`) and the units hold no fault
state: :meth:`CodeConversionMachine.clock_rows` passes one forcing down
to all of them, so a campaign runs every fault at once, one per row, and
:meth:`CodeConversionMachine.run` is the one-row case.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence, Tuple

from ..engine.backends import run_ops
from ..engine.compiled import RowForcing, compile_network
from ..logic.network import Network
from ..seq.encoding import StateEncoding
from ..seq.machine import StateTable
from ..system.memory import ParityMemory, parity
from .alternating import (
    PERIOD_CLOCK,
    AlternatingRun,
    RowTrace,
    check_vectors,
    one_row_run,
)
from .dualff import self_dual_machine_network
from .translators import ALPT, PALT

#: ``(unit, fault)``: a network stem/pin fault under ``comb``, a
#: :class:`~repro.scal.translators.TranslatorFault` under ``alpt`` or
#: ``palt``, a :class:`~repro.system.memory.MemoryFault` under ``mem``.
UnitFault = Tuple[str, object]


@dataclasses.dataclass
class CodeConversionMachine:
    """The complete Figure 4.5 system for one sequential machine."""

    machine: StateTable
    network: Network
    encoding: StateEncoding
    alpt: ALPT
    palt: PALT
    memory: ParityMemory
    state_address: int = 0
    clock_name: str = PERIOD_CLOCK

    @property
    def input_names(self) -> Tuple[str, ...]:
        return tuple(f"x{i}" for i in range(self.machine.n_inputs))

    @property
    def output_names(self) -> Tuple[str, ...]:
        return tuple(f"Z{i}" for i in range(self.machine.n_outputs))

    @property
    def state_output_names(self) -> Tuple[str, ...]:
        return tuple(f"Y{i}" for i in range(self.encoding.width))

    def flip_flop_count(self) -> int:
        """Storage cost: the thesis counts the n+1 feedback storage bits
        (the ALPT's latches double as the single level of memory when the
        feedback is through one level, Section 4.3)."""
        return self.encoding.width + 1

    def gate_count(self) -> int:
        """Combinational gates plus the translator gates (n+2 XOR-class
        gates: n PALT XORs, the ALPT parity tree, the PALT parity tree —
        matching the Table 4.1 translator term ``+ n + 2``)."""
        return self.network.gate_count(include_buffers=False) + (
            self.encoding.width + 2
        )

    def reset(self, rows: int = 1) -> None:
        """Clear memory and store the initial state's code word, fault
        free, in each of ``rows`` rows."""
        idle = RowForcing(rows)
        self.memory.clear()
        code = self.encoding.code(self.machine.initial_state)
        word = [idle.full if bit else 0 for bit in code]
        par = idle.full if parity(code) ^ self._address_parity() else 0
        self.alpt.data_latches = list(word)
        self.alpt.parity_latch = par
        self.memory.store(idle, self.state_address, word, par)

    def _address_parity(self) -> int:
        return parity(
            [
                (self.state_address >> i) & 1
                for i in range(self.memory.address_bits)
            ]
        )

    def force(self, forcing: RowForcing, row: int, fault: UnitFault) -> None:
        """Add one ``(unit, fault)`` to ``forcing`` in ``row``."""
        unit, part = fault
        if unit == "comb":
            compiled = compile_network(self.network)
            forcing.stick_fault(compiled, compiled.fault_ids(part), 1 << row)
        else:
            units = {"alpt": self.alpt, "palt": self.palt, "mem": self.memory}
            units[unit].force(forcing, row, part)

    def run(
        self,
        vectors: Sequence[Tuple[int, ...]],
        faults: Iterable[UnitFault] = (),
    ) -> AlternatingRun:
        """Drive logical input vectors through the full loop under
        ``faults``, all in one machine.

        Returns one step per vector monitoring (Z..., Y...) alternation;
        ``checker_flags[t]`` is True when the PALT's 1-out-of-2 code was
        a noncode word at step *t*.  A stopped common clock (Theorem 4.1
        case 5: all clock fanout is from one node, so the whole system
        stops) is a run with no steps and one raised flag.
        """
        forcing = RowForcing()
        for fault in faults:
            self.force(forcing, 0, fault)
        trace = self.clock_rows(vectors, forcing)
        return one_row_run(trace, self.stopped_rows(forcing))

    @staticmethod
    def stopped_rows(forcing: RowForcing) -> int:
        """Rows whose ALPT common clock (site ``g``) is stuck: the whole
        system stops, a detection with no latency."""
        return forcing.forced_rows(("alpt", "g", 0))

    def clock_rows(
        self, vectors: Sequence[Tuple[int, ...]], forcing: RowForcing
    ) -> RowTrace:
        """Clock every row of ``forcing`` through the full loop.

        Returns per step the first- and second-period (Z..., Y...) row
        masks and the rows whose PALT 1-out-of-2 code was a noncode word.
        """
        vectors = check_vectors(vectors, self.machine.n_inputs)
        self.reset(forcing.rows)
        full = forcing.full
        compiled = compile_network(self.network)
        pos = compiled.index
        x_pos = [pos[name] for name in self.input_names]
        y_pos = [pos[f"y{i}"] for i in range(self.encoding.width)]
        clock_pos = pos[self.clock_name]
        monitored = [
            pos[name] for name in self.output_names + self.state_output_names
        ]
        y_idx = [pos[name] for name in self.state_output_names]
        addr_par = self._address_parity()
        alpt, palt, memory = self.alpt, self.palt, self.memory
        trace = []
        for vector in vectors:
            data, stored_parity = memory.load(forcing, self.state_address)
            g_line, h_line = palt.code_output(
                forcing, data, stored_parity, addr_par
            )
            noncode = full & ~(g_line ^ h_line)
            pair = []
            y_pair = []
            for phase in (0, 1):
                values = [0] * len(compiled.names)
                for p, bit in zip(x_pos, vector):
                    values[p] = full if (bit & 1) ^ phase else 0
                values[clock_pos] = full if phase else 0
                present = palt.outputs_for_period(forcing, data, phase)
                for p, value in zip(y_pos, present):
                    values[p] = value
                run_ops(compiled, values, full, forcing=forcing)
                pair.append(tuple(values[i] for i in monitored))
                y_pair.append([values[i] for i in y_idx])
            word, new_parity = alpt.feed_pair(
                forcing, y_pair[0], y_pair[1], address_parity=addr_par
            )
            memory.store(forcing, self.state_address, word, new_parity)
            trace.append((pair[0], pair[1], noncode))
        return trace

    def decoded_outputs(self, run: AlternatingRun) -> List[Tuple[int, ...]]:
        n_z = len(self.output_names)
        return [step.first[:n_z] for step in run.steps]


def to_code_conversion(
    machine: StateTable,
    encoding: Optional[StateEncoding] = None,
    style: str = "and-or",
    share_products: bool = True,
    address_bits: int = 4,
) -> CodeConversionMachine:
    """Build the Figure 4.5 system for ``machine``."""
    network, enc = self_dual_machine_network(
        machine, encoding, style=style, share_products=share_products
    )
    width = enc.width
    return CodeConversionMachine(
        machine=machine,
        network=network,
        encoding=enc,
        alpt=ALPT(width),
        palt=PALT(width),
        memory=ParityMemory(width, address_bits, fold_address_parity=False),
        state_address=0,
    )
