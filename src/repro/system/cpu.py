"""A small SCAL accumulator CPU with a self-dual datapath (Chapter 7).

The thesis sketches, rather than specifies, the SCAL CPU: a processor
whose datapath modules are self-dual (adder — Figure 2.2; shifter —
Figure 7.4a; status bits — Figure 7.4b) so every instruction can execute
twice — true data in the first period, complemented data in the second —
and every internal word alternates.  This module realizes that sketch as
an accumulator machine big enough to exercise the Figure 7.3 system
encoding:

* ISA: LDI, LOAD, STORE, ADD, SUB, SHL, SHR, AND, OR, XOR, NOT, JZ,
  JMP, HALT — arithmetic/shift ops are self-dual with phase-driven
  carry/fill; the logical ops run as φ-dualized circuit pairs;
* the accumulator and Z status are stored as alternating pairs
  (two flip-flop banks, Figure 7.4b style);
* data memory is parity-encoded (:class:`~repro.system.memory.ParityMemory`)
  reached through PALT/ALPT-style conversion: reads arrive as parity
  words checked by a 1-out-of-2 code, writes leave as parity words;
* the software checker watches (1) ALU/accumulator alternation each
  instruction and (2) the memory-interface code — when either breaks the
  run stops with ``detected`` set, the clock-disable behaviour of
  Section 5.5.

Fault injection: a stuck ALU result bit, a stuck accumulator flip-flop,
a stuck bus line, or any :class:`~repro.system.memory.MemoryFault`.
SUB is implemented as ``a + ¬b + cin`` with the carry-in driven by the
complemented period clock, which keeps it self-dual (the thesis's adder
argument extends bit-for-bit).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.compiled import RowForcing
from ..modules.adder import add_words
from ..modules.shifter import shift_word
from .memory import MemoryFault, ParityMemory, parity


class Op(enum.Enum):
    """Instruction opcodes."""

    LDI = "ldi"      # load immediate into the accumulator
    LOAD = "load"    # load memory word
    STORE = "store"  # store accumulator
    ADD = "add"      # acc += mem[addr]
    SUB = "sub"      # acc -= mem[addr]
    SHL = "shl"      # logical shift left
    SHR = "shr"      # logical shift right
    AND = "and"      # acc &= mem[addr]   (phase-1 circuit: OR, the dual)
    OR = "or"        # acc |= mem[addr]   (phase-1 circuit: AND)
    XOR = "xor"      # acc ^= mem[addr]   (phase-1 circuit: XNOR)
    NOT = "not"      # acc = ~acc         (self-dual as is)
    JZ = "jz"        # jump if Z status set
    JMP = "jmp"      # unconditional jump
    HALT = "halt"


@dataclasses.dataclass(frozen=True)
class Instruction:
    op: Op
    arg: int = 0


@dataclasses.dataclass(frozen=True)
class CpuFault:
    """Single faults inside the CPU proper.

    ``kind``: ``"alu_bit"`` (one ALU result line stuck), ``"acc_ff"``
    (one accumulator flip-flop stuck — the *true*-bank cell, so the pair
    stops alternating when the stored value disagrees), ``"bus_bit"``
    (one memory-interface data line stuck on reads).
    """

    kind: str
    index: int
    value: int

    def describe(self) -> str:
        return f"cpu.{self.kind}[{self.index}] s/{self.value}"


@dataclasses.dataclass
class CpuResult:
    """Outcome of one program run."""

    halted: bool
    detected: bool
    detection_step: Optional[int]
    detection_reason: Optional[str]
    steps: int
    acc: int
    memory_words: Dict[int, int]
    trace: List[Tuple[int, str, int]]  # (pc, op, acc-after)


def word_to_bits(value: int, width: int) -> List[int]:
    return [(value >> i) & 1 for i in range(width)]


def bits_to_word(bits: Sequence[int]) -> int:
    return sum((int(b) & 1) << i for i, b in enumerate(bits))


def complement_bits(bits: Sequence[int]) -> List[int]:
    return [1 - (int(b) & 1) for b in bits]


class ScalCpu:
    """The alternating-logic accumulator machine."""

    def __init__(
        self,
        width: int = 8,
        memory_addr_bits: int = 5,
        fault: Optional[CpuFault] = None,
        memory_fault: Optional[MemoryFault] = None,
    ) -> None:
        self.width = width
        self.memory = ParityMemory(
            width, memory_addr_bits, fold_address_parity=True
        )
        self.fault = fault
        #: The one-row forcing every memory access goes through.
        self.memory_forcing = RowForcing()
        if memory_fault is not None:
            self.memory.force(self.memory_forcing, 0, memory_fault)
        # Alternating accumulator: a true bank and a complement bank.
        self.acc_true: List[int] = [0] * width
        self.acc_comp: List[int] = [1] * width
        self.z_true = 1  # zero flag of an all-zero accumulator
        self.z_comp = 0

    # ------------------------------------------------------------------
    # datapath pieces
    # ------------------------------------------------------------------
    def _alu(
        self, op: Op, acc: List[int], operand: List[int], phase: int
    ) -> List[int]:
        """One period of the self-dual ALU.

        In phase 1 all operands arrive complemented; each operation is
        either self-dual as is (given the phase-alternating carry and
        fill inputs) or realized as a φ-dualized circuit *pair* — the
        phase-1 hardware computes the dual function (OR for AND, AND
        for OR, XNOR for XOR), so a healthy ALU always returns the
        complement of its phase-0 result.
        """
        if op is Op.ADD:
            result, _carry = add_words(acc, operand, carry_in=phase)
        elif op is Op.SUB:
            inverted = complement_bits(operand)
            result, _carry = add_words(acc, inverted, carry_in=1 - phase)
        elif op is Op.SHL:
            result = shift_word(acc, "left", fill=phase)
        elif op is Op.SHR:
            result = shift_word(acc, "right", fill=phase)
        elif op is Op.AND:
            if phase == 0:
                result = [a & b for a, b in zip(acc, operand)]
            else:
                result = [a | b for a, b in zip(acc, operand)]
        elif op is Op.OR:
            if phase == 0:
                result = [a | b for a, b in zip(acc, operand)]
            else:
                result = [a & b for a, b in zip(acc, operand)]
        elif op is Op.XOR:
            if phase == 0:
                result = [a ^ b for a, b in zip(acc, operand)]
            else:
                result = [1 - (a ^ b) for a, b in zip(acc, operand)]
        elif op is Op.NOT:
            result = complement_bits(acc)
        elif op in (Op.LDI, Op.LOAD):
            result = list(operand)
        else:
            result = list(acc)
        if self.fault is not None and self.fault.kind == "alu_bit":
            result = list(result)
            result[self.fault.index] = self.fault.value
        return result

    def _read_memory(self, addr: int) -> Tuple[List[int], bool]:
        """Parity-word read; returns (bits, code_ok)."""
        data, parity_bit = self.memory.load(self.memory_forcing, addr)
        if self.fault is not None and self.fault.kind == "bus_bit":
            data = list(data)
            data[self.fault.index] = self.fault.value
        code_ok = self.memory.check_word(data, parity_bit)
        return data, code_ok

    def _write_memory(self, addr: int, bits: Sequence[int]) -> None:
        self.memory.store(self.memory_forcing, addr, list(bits), parity(bits))

    def _acc_read(self, phase: int) -> List[int]:
        bank = self.acc_comp if phase else self.acc_true
        bits = list(bank)
        if (
            self.fault is not None
            and self.fault.kind == "acc_ff"
            and phase == 0
        ):
            bits[self.fault.index] = self.fault.value
        return bits

    def _acc_store(self, true_bits: List[int], comp_bits: List[int]) -> None:
        self.acc_true = list(true_bits)
        self.acc_comp = list(comp_bits)
        if self.fault is not None and self.fault.kind == "acc_ff":
            self.acc_true[self.fault.index] = self.fault.value

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        program: Sequence[Instruction],
        data: Optional[Dict[int, int]] = None,
        max_steps: int = 1000,
    ) -> CpuResult:
        """Execute ``program`` in alternating mode.

        Every instruction runs its datapath twice (true, complemented)
        and the checker verifies the pair alternates before the result is
        committed — a nonalternating pair or a noncode memory word stops
        the machine (Section 5.5's clock disable, in software).
        """
        for addr, value in (data or {}).items():
            self._write_memory(addr, word_to_bits(value, self.width))
        self.acc_true = [0] * self.width
        self.acc_comp = [1] * self.width
        self.z_true, self.z_comp = 1, 0
        pc = 0
        steps = 0
        trace: List[Tuple[int, str, int]] = []

        def result(halted: bool, detected: bool, step: Optional[int], why: Optional[str]) -> CpuResult:
            return CpuResult(
                halted=halted,
                detected=detected,
                detection_step=step,
                detection_reason=why,
                steps=steps,
                acc=bits_to_word(self.acc_true),
                memory_words={
                    addr: bits_to_word(
                        self.memory.load(self.memory_forcing, addr)[0]
                    )
                    for addr in sorted(self.memory._cells)
                },
                trace=trace,
            )

        while steps < max_steps:
            if pc >= len(program):
                return result(True, False, None, None)
            instr = program[pc]
            steps += 1
            if instr.op is Op.HALT:
                trace.append((pc, instr.op.value, bits_to_word(self.acc_true)))
                return result(True, False, None, None)
            if instr.op is Op.JMP:
                trace.append((pc, instr.op.value, bits_to_word(self.acc_true)))
                pc = instr.arg
                continue
            if instr.op is Op.JZ:
                if self.z_true == self.z_comp:
                    return result(False, True, steps, "status pair nonalternating")
                trace.append((pc, instr.op.value, bits_to_word(self.acc_true)))
                pc = instr.arg if self.z_true else pc + 1
                continue
            operand_pair, code_ok = self._fetch_operand(instr)
            if not code_ok:
                return result(False, True, steps, "memory code word invalid")
            results = []
            for phase in (0, 1):
                acc = self._acc_read(phase)
                results.append(self._alu(instr.op, acc, operand_pair[phase], phase))
            if any(a == b for a, b in zip(results[0], results[1])):
                return result(False, True, steps, "ALU pair nonalternating")
            if instr.op is Op.STORE:
                self._write_memory(instr.arg, self._acc_read(0))
            else:
                self._acc_store(results[0], results[1])
            # Z status as an alternating pair.  Zero-detect is not
            # self-dual by itself, so the φ-dualized form is used: the
            # phase-0 circuit is NOR(acc), the phase-1 circuit is its
            # dual NAND evaluated on the complemented bank — healthy
            # operation then gives complementary flag values.
            self.z_true = int(not any(self.acc_true))
            self.z_comp = 1 - int(all(self.acc_comp))
            if self.z_true == self.z_comp:
                return result(False, True, steps, "status pair nonalternating")
            trace.append((pc, instr.op.value, bits_to_word(self.acc_true)))
            pc += 1
        return result(False, False, None, None)

    def _fetch_operand(
        self, instr: Instruction
    ) -> Tuple[Tuple[List[int], List[int]], bool]:
        """The operand's alternating pair for the two periods."""
        if instr.op is Op.LDI:
            bits = word_to_bits(instr.arg, self.width)
            return (bits, complement_bits(bits)), True
        if instr.op in (Op.LOAD, Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR):
            bits, ok = self._read_memory(instr.arg)
            return (bits, complement_bits(bits)), ok
        zero = [0] * self.width
        return (zero, complement_bits(zero)), True


def reference_run(
    program: Sequence[Instruction],
    data: Optional[Dict[int, int]] = None,
    width: int = 8,
    max_steps: int = 1000,
) -> Tuple[int, Dict[int, int]]:
    """A plain (unchecked) interpreter: the golden model the SCAL CPU is
    compared against in tests and in the Figure 7.3 sweep."""
    mem = dict(data or {})
    mask = (1 << width) - 1
    acc = 0
    pc = 0
    steps = 0
    while steps < max_steps and pc < len(program):
        instr = program[pc]
        steps += 1
        if instr.op is Op.HALT:
            break
        if instr.op is Op.JMP:
            pc = instr.arg
            continue
        if instr.op is Op.JZ:
            pc = instr.arg if acc == 0 else pc + 1
            continue
        if instr.op is Op.LDI:
            acc = instr.arg & mask
        elif instr.op is Op.LOAD:
            acc = mem.get(instr.arg, 0) & mask
        elif instr.op is Op.STORE:
            mem[instr.arg] = acc
        elif instr.op is Op.ADD:
            acc = (acc + mem.get(instr.arg, 0)) & mask
        elif instr.op is Op.SUB:
            acc = (acc - mem.get(instr.arg, 0)) & mask
        elif instr.op is Op.AND:
            acc &= mem.get(instr.arg, 0)
        elif instr.op is Op.OR:
            acc |= mem.get(instr.arg, 0)
        elif instr.op is Op.XOR:
            acc ^= mem.get(instr.arg, 0)
        elif instr.op is Op.NOT:
            acc = (~acc) & mask
        elif instr.op is Op.SHL:
            acc = (acc << 1) & mask
        elif instr.op is Op.SHR:
            acc = (acc >> 1) & mask
        pc += 1
    return acc, mem
