"""The code-conversion SCAL sequential machine (Figure 4.5, Theorem 4.4).

The thesis's memory-efficient alternative to dual flip-flops: keep the
self-dual combinational block, but translate its alternating feedback
``(Y, Ȳ)`` to an (n+1)-bit parity word (ALPT), store that, and translate
back to alternating form (PALT) for the next step.  An n-bit machine then
needs n+1 storage bits instead of 2n.

Checkers monitor (1) alternation of the external Z outputs and of the
fed-back Y outputs, and (2) the PALT's 1-out-of-2 code — the combination
Theorem 4.4 proves sufficient for the feedback to be self-checking.

Single-fault injection reaches every part of the loop: the combinational
network (stem/pin stuck-ats), ALPT lines, memory (cells, data lines,
address lines), and PALT lines.  The loop is clocked row-parallel
(:mod:`repro.seq.forcing`): a campaign runs every fault at once, one
per row, and :meth:`CodeConversionMachine.run` is the one-row case.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

from ..engine.compiled import compile_network
from ..logic.faults import Fault, MultipleFault
from ..logic.network import Network
from ..seq.encoding import StateEncoding
from ..seq.forcing import RowForcing
from ..seq.machine import StateTable
from ..seq.simulator import evaluate_rows, force_fault
from ..system.memory import MemoryFault, ParityMemory, parity
from .alternating import (
    PERIOD_CLOCK,
    AlternatingRun,
    AlternatingStep,
    RowTrace,
    check_vectors,
)
from .dualff import self_dual_machine_network
from .translators import ALPT, PALT, TranslatorFault

FaultLike = Union[Fault, MultipleFault]


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
        for unit in (self.alpt, self.palt, self.memory):
            unit.forcing = idle
        code = self.encoding.code(self.machine.initial_state)
        word = [idle.full if bit else 0 for bit in code]
        par = idle.full if parity(code) ^ self._address_parity() else 0
        self.alpt.data_latches = list(word)
        self.alpt.parity_latch = par
        self.memory.store(self.state_address, word, par)

    def _address_parity(self) -> int:
        return parity(
            [
                (self.state_address >> i) & 1
                for i in range(self.memory.address_bits)
            ]
        )

    def force(
        self, forcing: RowForcing, row: int, unit: str, fault: object
    ) -> None:
        """Add one fault of ``unit`` — ``comb`` (a network stem/pin
        fault), ``alpt``, ``palt`` or ``mem`` — to ``forcing`` in ``row``."""
        if unit == "comb":
            compiled = compile_network(self.network)
            force_fault(forcing, 1 << row, fault, compiled)
        else:
            units = {"alpt": self.alpt, "palt": self.palt, "mem": self.memory}
            units[unit].force(forcing, row, fault)

    def run(
        self,
        vectors: Sequence[Tuple[int, ...]],
        comb_fault: Optional[FaultLike] = None,
        alpt_fault: Optional[TranslatorFault] = None,
        palt_fault: Optional[TranslatorFault] = None,
        memory_fault: Optional[MemoryFault] = None,
    ) -> AlternatingRun:
        """Drive logical input vectors through the full loop.

        Returns one step per vector monitoring (Z..., Y...) alternation;
        ``checker_flags[t]`` is True when the PALT's 1-out-of-2 code was
        a noncode word at step *t*.
        """
        forcing = RowForcing()
        for unit, fault in (
            ("comb", comb_fault),
            ("alpt", alpt_fault),
            ("palt", palt_fault),
            ("mem", memory_fault),
        ):
            if fault is not None:
                self.force(forcing, 0, unit, fault)
        trace = self.clock_rows(vectors, forcing)
        if self.stopped_rows(forcing):
            # Common-clock failure (Theorem 4.1 case 5): all clock fanout
            # is from one node, so the whole system stops.  Shutdown is
            # regarded as a noncode state — reported as a detection.
            return AlternatingRun((), (True,))
        return AlternatingRun(
            tuple(AlternatingStep(first, second) for first, second, _ in trace),
            tuple(bool(flag) for _, _, flag in trace),
        )

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
        for unit in (alpt, palt, memory):
            unit.forcing = forcing
        trace = []
        try:
            for vector in vectors:
                data, stored_parity = memory.load(self.state_address)
                g_line, h_line = palt.code_output(data, stored_parity, addr_par)
                noncode = full & ~(g_line ^ h_line)
                pair = []
                y_pair = []
                for phase in (0, 1):
                    point = [0] * compiled.n_inputs
                    for p, bit in zip(x_pos, vector):
                        point[p] = full if (bit & 1) ^ phase else 0
                    point[clock_pos] = full if phase else 0
                    present = palt.outputs_for_period(data, phase)
                    for p, value in zip(y_pos, present):
                        point[p] = value
                    values = evaluate_rows(compiled, point, forcing)
                    pair.append(tuple(values[i] for i in monitored))
                    y_pair.append([values[i] for i in y_idx])
                word, new_parity = alpt.feed_pair(
                    y_pair[0], y_pair[1], address_parity=addr_par
                )
                memory.store(self.state_address, word, new_parity)
                trace.append((pair[0], pair[1], noncode))
        finally:
            for unit in (alpt, palt, memory):
                unit.inject(None)
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
