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
(:func:`loop_network`); the ALPT latches and the parity-memory word are
the state outside it, clocked by the
:class:`~repro.seq.simulator.Stepper` the dual flip-flop form also
uses.  A fault is a loop network stem/pin fault (translator lines
included), a stuck latch output
(:class:`~repro.seq.simulator.FlipFlopFault`) or a
:class:`~repro.system.memory.MemoryFault`.  The loop is clocked
row-parallel (:class:`~repro.engine.compiled.RowForcing`) and holds no
run state: :meth:`CodeConversionMachine.clock_rows` takes the caller's
forcing, so a campaign runs every fault at once, one per row, and
:meth:`CodeConversionMachine.run` is the one-row case.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from ..engine.compiled import RowForcing
from ..logic.network import Network
from ..seq.encoding import StateEncoding
from ..seq.machine import StateTable
from ..seq.simulator import Element, State, Stepper
from ..system.memory import ParityMemory, parity
from .alternating import (
    PERIOD_CLOCK,
    AlternatingMachine,
    RowTrace,
    alternating_periods,
    check_vectors,
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
class CodeConversionMachine(AlternatingMachine):
    """The complete Figure 4.5 system for one sequential machine.

    ``network`` is the self-dual block; :attr:`loop` is the network the
    machine clocks, through :attr:`stepper`: the n+1 ALPT latches, each
    on its own clock line, and the state word at memory address 0.
    """

    machine: StateTable
    network: Network
    encoding: StateEncoding
    memory: ParityMemory
    clock_name: str = PERIOD_CLOCK
    loop: Network = dataclasses.field(init=False, repr=False)
    stepper: Stepper = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        width = self.encoding.width
        self.loop = loop_network(self.network, width, self.clock_name)
        code = self.encoding.code(self.machine.initial_state)
        self.stepper = Stepper(
            self.loop,
            self.input_names + (self.clock_name,),
            [
                Element(("ff", name, 0), d, clock, period, initial=bit)
                for (name, d, clock, period), bit in zip(
                    alpt_latches(width), code + (parity(code),)
                )
            ],
            self.memory,
            stored_lines(width),
            ("loop network line", "ALPT latch"),
        )

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
        return self.network.gate_count(include_buffers=False) + self.encoding.width + 2

    def stopped_rows(self, forcing: RowForcing) -> int:
        """Rows whose clock is stuck, the period clock or the ALPT's
        common clock stem: the whole system stops (Theorem 4.1 case 5,
        all clock fanout is from one node), a detection with no
        latency."""
        index, lines = self.stepper.compiled.index, forcing.lines
        clocks = (index[self.clock_name], index[COMMON_CLOCK])
        return lines.get(clocks[0], (0, 0))[0] | lines.get(clocks[1], (0, 0))[0]

    def clock_rows(
        self,
        vectors: Sequence[Tuple[int, ...]],
        forcing: RowForcing,
        state: Optional[State] = None,
    ) -> RowTrace:
        """Clock every row of ``forcing`` through the full loop, one
        pass over the loop network per period, from ``state`` (default:
        the latches and the memory word at the initial state's code
        word, stored fault free).

        Each step reads the word, runs both periods, loads each latch in
        the rows where its clock line took both values, and stores the
        latch outputs.  Returns per step the first- and second-period
        (Z..., Y...) row masks and the rows whose PALT 1-out-of-2 code
        was a noncode word.
        """
        vectors = check_vectors(vectors, self.machine.n_inputs)
        full = forcing.full
        periods = alternating_periods(vectors, full)
        trace, _final = self.stepper.clock_rows(periods, forcing, state, step=2)
        pairs = self.monitored_pairs(trace)
        g, h = (self.stepper.compiled.index[name] for name in CODE_LINES)
        return [
            (a, b, full & ~(values[g] ^ values[h]))
            for a, b, values in zip(pairs[::2], pairs[1::2], trace[::2])
        ]


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
