"""The Figure 7.3 SCAL computer system and its single-fault sweep.

Section 7.2's encoding argument: match each subsystem's code to its
failure mode — time redundancy (alternating logic) in the CPU where a
parity output would cost as much as the CPU itself, a single parity bit
on the bus and in memory where output lines are independent, translators
(ALPT/PALT) at the boundary, a TSCC reporting to the outside world, and
code-reply signals on the peripherals.  The resulting system is
"protected from single faults" end to end.

:class:`ScalComputer` wires :class:`~repro.system.cpu.ScalCpu` to its
parity memory and exposes the sweep the E-FIG7.3 bench runs: inject every
single fault of the CPU/bus/memory universe, run a program, and classify
the outcome as *detected*, *silent* (never corrupts an architectural
result), or *dangerous* (wrong result, no detection) — the thesis's
claim is that the dangerous class is empty.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from .cpu import (
    CpuFault,
    CpuResult,
    Instruction,
    Op,
    ScalCpu,
    bits_to_word,
    reference_run,
)
from .memory import MemoryFault, single_memory_faults


@dataclasses.dataclass(frozen=True)
class SweepOutcome:
    """Classification counts of a single-fault sweep."""

    total: int
    detected: int
    silent: int
    dangerous: int
    dangerous_faults: Tuple[str, ...]

    @property
    def coverage(self) -> float:
        """Fraction of output-corrupting faults that were detected."""
        corrupting = self.detected + self.dangerous
        return self.detected / corrupting if corrupting else 1.0


class ScalComputer:
    """CPU + parity memory + checkers, runnable with injected faults."""

    def __init__(self, width: int = 8, memory_addr_bits: int = 5) -> None:
        self.width = width
        self.memory_addr_bits = memory_addr_bits

    def run(
        self,
        program: Sequence[Instruction],
        data: Optional[Dict[int, int]] = None,
        cpu_fault: Optional[CpuFault] = None,
        memory_fault: Optional[MemoryFault] = None,
        max_steps: int = 1000,
    ) -> CpuResult:
        cpu = ScalCpu(
            self.width, self.memory_addr_bits, cpu_fault, memory_fault
        )
        return cpu.run(program, data=data, max_steps=max_steps)

    def cpu_fault_universe(self) -> List[CpuFault]:
        faults: List[CpuFault] = []
        for kind in ("alu_bit", "acc_ff", "bus_bit"):
            for index in range(self.width):
                for value in (0, 1):
                    faults.append(CpuFault(kind, index, value))
        return faults

    def sweep(
        self,
        program: Sequence[Instruction],
        data: Optional[Dict[int, int]] = None,
        observed_addresses: Optional[Sequence[int]] = None,
        max_steps: int = 1000,
    ) -> SweepOutcome:
        """Inject every single CPU/memory fault; classify outcomes.

        Architectural results compared: the final accumulator and the
        words at ``observed_addresses`` (default: every address the
        golden run wrote).
        """
        golden_acc, golden_mem = reference_run(
            program, data, self.width, max_steps
        )
        observed = (
            list(observed_addresses)
            if observed_addresses is not None
            else sorted(golden_mem)
        )

        detected = silent = dangerous = 0
        bad: List[str] = []
        universe: List[Tuple[str, Optional[CpuFault], Optional[MemoryFault]]] = []
        for cf in self.cpu_fault_universe():
            universe.append((cf.describe(), cf, None))
        for mf in single_memory_faults(
            self.width, self.memory_addr_bits, addresses=observed or (0,)
        ):
            universe.append((mf.describe(), None, mf))

        for label, cf, mf in universe:
            cpu = ScalCpu(self.width, self.memory_addr_bits, cf, mf)
            result = cpu.run(program, data=data, max_steps=max_steps)
            # Output data leaves through the Figure 7.3 encoding buffer:
            # read each observed word back through the (still faulty)
            # memory and code-check it — a parity violation there is a
            # detection, exactly like one during the run.
            detected_now = result.detected
            wrong = result.acc != golden_acc
            for addr in observed:
                bits, parity_bit = cpu.memory.load(cpu.memory_forcing, addr)
                if not cpu.memory.check_word(bits, parity_bit):
                    detected_now = True
                    break
                if bits_to_word(bits) != golden_mem.get(addr, 0):
                    wrong = True
            if detected_now:
                detected += 1
            elif wrong:
                dangerous += 1
                bad.append(label)
            else:
                silent += 1
        return SweepOutcome(
            total=len(universe),
            detected=detected,
            silent=silent,
            dangerous=dangerous,
            dangerous_faults=tuple(bad),
        )


def demo_program() -> Tuple[List[Instruction], Dict[int, int]]:
    """A small program exercising every datapath op: computes
    ``mem[10] = 2*(a+b) - c`` and ``mem[11] = (a+b) >> 1``."""
    program = [
        Instruction(Op.LOAD, 0),    # acc = a
        Instruction(Op.ADD, 1),     # acc = a + b
        Instruction(Op.STORE, 9),   # scratch = a + b
        Instruction(Op.SHL),        # acc = 2(a+b)
        Instruction(Op.SUB, 2),     # acc = 2(a+b) - c
        Instruction(Op.STORE, 10),
        Instruction(Op.LOAD, 9),
        Instruction(Op.SHR),        # acc = (a+b) >> 1
        Instruction(Op.STORE, 11),
        Instruction(Op.HALT),
    ]
    data = {0: 23, 1: 44, 2: 17}
    return program, data


def multiply_program() -> Tuple[List[Instruction], Dict[int, int]]:
    """Shift-and-add multiplication: ``mem[12] = a * b`` (for operands
    whose product fits the word).  Exercises the whole ISA — loops,
    conditional branches, shifts, AND masking, and memory traffic.

    Layout: mem[0] = a (multiplicand), mem[1] = b (multiplier),
    mem[2] = 1 (mask constant), mem[10] = shifted multiplicand,
    mem[11] = remaining multiplier, mem[12] = accumulating product.
    """
    program = [
        Instruction(Op.LOAD, 0),     # 0: multiplicand
        Instruction(Op.STORE, 10),
        Instruction(Op.LOAD, 1),     # 2: multiplier
        Instruction(Op.STORE, 11),
        Instruction(Op.LDI, 0),      # 4: product = 0
        Instruction(Op.STORE, 12),
        # loop head
        Instruction(Op.LOAD, 11),    # 6
        Instruction(Op.JZ, 18),      # 7: done when multiplier exhausted
        Instruction(Op.AND, 2),      # 8: low bit of multiplier
        Instruction(Op.JZ, 13),      # 9: skip add when bit clear
        Instruction(Op.LOAD, 12),    # 10
        Instruction(Op.ADD, 10),     # 11: product += shifted multiplicand
        Instruction(Op.STORE, 12),   # 12
        Instruction(Op.LOAD, 10),    # 13: multiplicand <<= 1
        Instruction(Op.SHL),
        Instruction(Op.STORE, 10),
        Instruction(Op.LOAD, 11),    # 16: multiplier >>= 1
        Instruction(Op.SHR),
        Instruction(Op.STORE, 11),   # 18
        Instruction(Op.JMP, 6),      # 19: loop
        Instruction(Op.HALT),        # 20
    ]
    program[7] = Instruction(Op.JZ, 20)  # "done" branch targets HALT
    data = {0: 11, 1: 13, 2: 1}
    return program, data


def countdown_program(start: int) -> List[Instruction]:
    """A loop with a data-dependent branch: counts ``start`` down to 0."""
    return [
        Instruction(Op.LDI, start),   # 0
        Instruction(Op.STORE, 4),     # 1: counter
        Instruction(Op.LOAD, 4),      # 2: loop head
        Instruction(Op.JZ, 7),        # 3
        Instruction(Op.SUB, 5),       # 4: acc -= 1
        Instruction(Op.STORE, 4),     # 5
        Instruction(Op.JMP, 2),       # 6
        Instruction(Op.HALT),         # 7
    ]
