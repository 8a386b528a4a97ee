"""Reynolds' dual flip-flop SCAL sequential machines (Section 4.2).

Two steps convert a sequential machine to alternating logic:

1. make the combinational block self-dual — "at most, this requires the
   addition of one extra variable, specifically the clock line"; we
   tabulate every output/next-state function over (inputs, state bits),
   self-dualize with the period clock φ (Yamamoto construction), and
   re-synthesize two-level so the block is self-checking by the
   Section 3.3 two-level result;
2. double the number of delays in the feedback path (Figure 4.2a), so in
   period 2k the block sees ``(X_k, y_{k-1})`` and in period 2k+1 the
   complements ``(X̄_k, ȳ_{k-1})``.

Both the Z outputs *and* the fed-back Y outputs are monitored for
alternation ("it is necessary to monitor not only the Z outputs, but also
the Y outputs"), which is what :meth:`DualFlipFlopMachine.run` reports.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Dict, Optional, Sequence, Tuple

from ..engine.compiled import RowForcing
from ..logic.network import Network
from ..logic.selfdual import self_dualize_table
from ..seq.encoding import StateEncoding, binary_encoding
from ..seq.machine import StateTable
from ..seq.simulator import SequentialCircuit, State
from ..seq.synthesis import machine_tables
from .alternating import (
    PERIOD_CLOCK,
    AlternatingMachine,
    RowTrace,
    alternating_periods,
    check_vectors,
)

#: Blocks per machine *object* (identity, not content), then per (codes,
#: style, share_products, clock): both SCAL forms of one machine share a
#: block, and an equal but fresh machine synthesizes again.
_blocks: "weakref.WeakKeyDictionary[StateTable, Dict[tuple, Network]]" = (
    weakref.WeakKeyDictionary()
)


def self_dual_machine_network(
    machine: StateTable,
    encoding: Optional[StateEncoding] = None,
    style: str = "and-or",
    share_products: bool = True,
    clock_name: str = PERIOD_CLOCK,
) -> Tuple[Network, StateEncoding]:
    """The self-dualized combinational block of a machine.

    Inputs: ``x0..`` machine inputs, ``y0..`` present-state bits, and the
    period clock.  Outputs: ``Z*`` then ``Y*``.  Don't-cares from unused
    state codes are *not* exploited here: the self-dualized function must
    be fully specified in both periods, so unused codes are completed
    with 0 before dualization (their behaviour is never exercised by a
    healthy machine, and under faults any value is as good as any other).
    Synthesized once per machine object and settings.
    """
    from ..logic.synthesis import multi_output_sop

    enc = encoding if encoding is not None else binary_encoding(machine.states)
    key = (tuple(enc.codes.items()), enc.width, style, share_products, clock_name)
    memo = _blocks.setdefault(machine, {})
    if key not in memo:
        tables, _dont_care, names = machine_tables(machine, enc)
        block = multi_output_sop(
            {
                out_name: self_dualize_table(table, clock_name)
                for out_name, table in tables.items()
            },
            tuple(names) + (clock_name,),
            style=style,
            network_name=f"{machine.name}_sd_comb",
            share_products=share_products,
        )
        memo.setdefault(key, block)  # racing threads share the first
    return memo[key], enc


@dataclasses.dataclass
class DualFlipFlopMachine(AlternatingMachine):
    """A machine in Reynolds' dual flip-flop SCAL form (Figure 4.2a)."""

    machine: StateTable
    circuit: SequentialCircuit
    encoding: StateEncoding
    clock_name: str = PERIOD_CLOCK
    checker = False

    @property
    def stepper(self) -> SequentialCircuit:
        return self.circuit

    def flip_flop_count(self) -> int:
        return self.circuit.flip_flop_count()

    def gate_count(self) -> int:
        return self.circuit.gate_count()

    def start(self, state: Optional[str], full: int) -> State:
        """The run state at ``state`` (default: the initial state) in
        every row: each two-stage chain holds ``(ȳ, y)``, so the block
        sees the true code in period 0 and its complement in period 1."""
        code = self.encoding.code(
            self.machine.initial_state if state is None else state
        )
        bits = {f"y{i}": bit for i, bit in enumerate(code)}
        return tuple(
            full if bits[line] ^ (stage == 0) else 0
            for _ff, line, stage in (e.site for e in self.circuit.elements)
        ), ()

    def clock_rows(
        self,
        vectors: Sequence[Tuple[int, ...]],
        forcing: RowForcing,
        state: Optional[str] = None,
        fault_window: Optional[Tuple[int, int]] = None,
    ) -> RowTrace:
        """Clock every row of ``forcing`` through ``vectors`` from
        ``state`` (default: the initial state).

        Returns per step the first- and second-period (Z..., Y...) row
        masks and a checker mask, always 0: this form's only checkers
        are the alternation monitors.  ``fault_window=(first, last)``
        makes the faults *transient* (Definition 2.1 covers both): they
        are active only during clock periods ``first..last`` inclusive
        (period = 2·step + phase); the periods outside it run under an
        idle forcing, the state carried across.
        """
        vectors = check_vectors(vectors, self.machine.n_inputs)
        periods = alternating_periods(vectors, forcing.full)
        run = self.start(state, forcing.full)
        segments = [(periods, forcing)]
        if fault_window is not None:
            first = max(fault_window[0], 0)
            last = max(fault_window[1] + 1, first)
            idle = RowForcing(forcing.rows)
            segments = [
                (periods[:first], idle),
                (periods[first:last], forcing),
                (periods[last:], idle),
            ]
        values = []
        for chunk, active in segments:
            trace, run = self.circuit.clock_rows(chunk, active, run)
            values += trace
        pairs = self.monitored_pairs(values)
        return [(a, b, 0) for a, b in zip(pairs[::2], pairs[1::2])]


def to_dual_flipflop(
    machine: StateTable,
    encoding: Optional[StateEncoding] = None,
    style: str = "and-or",
    share_products: bool = True,
) -> DualFlipFlopMachine:
    """Build the Figure 4.2a machine for ``machine``."""
    network, enc = self_dual_machine_network(
        machine, encoding, style=style, share_products=share_products
    )
    feedback = {f"Y{i}": f"y{i}" for i in range(enc.width)}
    circuit = SequentialCircuit(
        network, feedback, depth=2, name=f"{machine.name}_dualff"
    )
    return DualFlipFlopMachine(machine, circuit, enc)
