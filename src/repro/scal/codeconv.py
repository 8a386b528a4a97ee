"""The code-conversion SCAL sequential machine (Figure 4.5, Theorem 4.4).

The thesis's memory-efficient alternative to dual flip-flops: keep the
self-dual combinational block, but translate its alternating feedback
``(Y, Ȳ)`` to an (n+1)-bit parity word (ALPT), store that, and translate
back to alternating form (PALT) for the next step.  An n-bit machine then
needs n+1 storage bits instead of 2n.

Checkers monitor (1) alternation of the external Z outputs and of the
fed-back Y outputs, and (2) the PALT's 1-out-of-2 code — the combination
Theorem 4.4 proves sufficient for the feedback to be self-checking.

The PALT, the block and the ALPT are one gate-level **loop network**
(:func:`loop_network`); the ALPT latches and the parity memory are the
state outside it.  A fault is a loop network stem/pin fault (translator
lines included), a stuck latch output
(:class:`~repro.seq.simulator.FlipFlopFault`) or a
:class:`~repro.system.memory.MemoryFault`.  The loop is clocked
row-parallel (:class:`~repro.engine.compiled.RowForcing`) and holds no
fault state: :meth:`CodeConversionMachine.clock_rows` takes the caller's
forcing, so a campaign runs every fault at once, one per row, and
:meth:`CodeConversionMachine.run` is the one-row case.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..engine.backends import run_ops
from ..engine.compiled import RowForcing, compile_network
from ..logic.network import Network
from ..seq.encoding import StateEncoding
from ..seq.machine import StateTable
from ..seq.simulator import CircuitFault, FlipFlopFault
from ..system.memory import MemoryFault, ParityMemory, parity
from .alternating import (
    PERIOD_CLOCK,
    AlternatingRun,
    RowTrace,
    check_vectors,
    one_row_run,
)
from .dualff import self_dual_machine_network
from .translators import (
    CODE_LINES,
    COMMON_CLOCK,
    alpt_latches,
    alpt_network,
    palt_network,
    stored_lines,
)

#: A fault a :class:`CodeConversionMachine` can carry.
LoopFault = Union[CircuitFault, MemoryFault]


def loop_network(block: Network, width: int, clock: str = PERIOD_CLOCK) -> Network:
    """The PALT, the self-dual ``block`` and the ALPT as one network.

    Inputs: the block's ``x*`` and period clock, then the stored word
    read from memory.  The PALT's XOR outputs are the block's ``y*``
    lines.  Outputs: ``Z*`` and ``Y*``, every ALPT latch's D and clock
    line, and the PALT's code lines.
    """
    palt, alpt = palt_network(width, clock), alpt_network(width, clock)
    inputs = [name for name in block.inputs if name not in palt.outputs]
    return Network(
        inputs + list(stored_lines(width)),
        palt.gates + block.gates + alpt.gates,
        block.outputs + alpt.outputs + CODE_LINES,
        name=f"{block.name}_loop",
    )


@dataclasses.dataclass
class CodeConversionMachine:
    """The complete Figure 4.5 system for one sequential machine.

    ``network`` is the self-dual block; :attr:`loop` is the network the
    machine clocks.  The state word lives at memory address 0.
    """

    machine: StateTable
    network: Network
    encoding: StateEncoding
    memory: ParityMemory
    clock_name: str = PERIOD_CLOCK
    loop: Network = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.loop = loop_network(
            self.network, self.encoding.width, self.clock_name
        )

    @property
    def input_names(self) -> Tuple[str, ...]:
        return tuple(f"x{i}" for i in range(self.machine.n_inputs))

    @property
    def output_names(self) -> Tuple[str, ...]:
        return tuple(f"Z{i}" for i in range(self.machine.n_outputs))

    @property
    def state_output_names(self) -> Tuple[str, ...]:
        return tuple(f"Y{i}" for i in range(self.encoding.width))

    @property
    def latch_names(self) -> Tuple[str, ...]:
        """The ALPT latch outputs (lines ``c*`` then ``i``)."""
        return tuple(latch[0] for latch in alpt_latches(self.encoding.width))

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

    def force(self, forcing: RowForcing, row: int, fault: LoopFault) -> None:
        """Add a loop network, latch-output or memory fault to
        ``forcing`` in ``row``; ``ValueError`` for one on a line, latch
        or memory site the machine does not have."""
        if isinstance(fault, MemoryFault):
            self.memory.force(forcing, row, fault)
        elif isinstance(fault, FlipFlopFault):
            if fault.state_line not in self.latch_names or fault.stage != 0:
                raise ValueError(f"no ALPT latch {fault.describe()!r}")
            forcing.stick(("ff", fault.state_line, 0), 1 << row, fault.value)
        else:
            compiled = compile_network(self.loop)
            ids = compiled.fault_ids(fault)
            if not ids:
                raise ValueError(f"no loop network line {fault.describe()!r}")
            forcing.stick_fault(compiled, ids, 1 << row)

    def run(
        self,
        vectors: Sequence[Tuple[int, ...]],
        faults: Iterable[LoopFault] = (),
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

    def stopped_rows(self, forcing: RowForcing) -> int:
        """Rows whose clock is stuck, the period clock or the ALPT's
        common clock stem: the whole system stops, a detection with no
        latency."""
        index, lines = compile_network(self.loop).index, forcing.lines
        clocks = (index[self.clock_name], index[COMMON_CLOCK])
        return lines.get(clocks[0], (0, 0))[0] | lines.get(clocks[1], (0, 0))[0]

    def clock_rows(
        self, vectors: Sequence[Tuple[int, ...]], forcing: RowForcing
    ) -> RowTrace:
        """Clock every row of ``forcing`` through the full loop, one
        pass over the loop network per period.

        The memory and the latches start with the initial state's code
        word, stored fault free.  Each step reads the word, runs both
        periods, loads each latch in the rows where its clock line took
        both values, and stores the latch outputs.  Returns per step the
        first- and second-period (Z..., Y...) row masks and the rows
        whose PALT 1-out-of-2 code was a noncode word.
        """
        vectors = check_vectors(vectors, self.machine.n_inputs)
        full = forcing.full
        compiled = compile_network(self.loop)
        pos = compiled.index
        inputs = self.input_names + (self.clock_name,)
        inputs = [pos[name] for name in inputs + stored_lines(self.encoding.width)]
        monitored = [
            pos[name] for name in self.output_names + self.state_output_names
        ]
        g_pos, h_pos = (pos[name] for name in CODE_LINES)
        latches = [
            (pos[d_line], pos[clock], period, ("ff", name, 0))
            for name, d_line, clock, period in alpt_latches(self.encoding.width)
        ]
        code = self.encoding.code(self.machine.initial_state)
        state = [full if bit else 0 for bit in code + (parity(code),)]
        memory = self.memory
        memory.clear()
        memory.store(RowForcing(forcing.rows), 0, state[:-1], state[-1])
        trace = []
        for vector in vectors:
            data, stored_parity = memory.load(forcing, 0)
            periods = []
            for phase in (0, 1):
                point = [(bit & 1) ^ phase for bit in vector] + [phase]
                point = [full if bit else 0 for bit in point]
                values = [0] * len(compiled.names)
                for p, value in zip(inputs, point + data + [stored_parity]):
                    values[p] = value
                periods.append(run_ops(compiled, values, full, forcing=forcing))
            first, second = periods
            word = []
            for k, (d_pos, c_pos, period, site) in enumerate(latches):
                load = first[c_pos] ^ second[c_pos]
                state[k] = (state[k] & ~load) | (periods[period][d_pos] & load)
                word.append(forcing.apply(site, state[k]))
            memory.store(forcing, 0, word[:-1], word[-1])
            pair = [tuple(values[i] for i in monitored) for values in periods]
            trace.append((*pair, full & ~(first[g_pos] ^ first[h_pos])))
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
    return CodeConversionMachine(
        machine=machine,
        network=network,
        encoding=enc,
        memory=ParityMemory(enc.width, address_bits, fold_address_parity=False),
    )
