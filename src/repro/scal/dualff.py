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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine.compiled import RowForcing
from ..logic.network import Network
from ..logic.selfdual import self_dualize_table
from ..logic.truthtable import TruthTable
from ..seq.encoding import StateEncoding, binary_encoding
from ..seq.machine import StateTable
from ..seq.simulator import CircuitFault, SequentialCircuit
from ..seq.synthesis import machine_tables
from .alternating import (
    PERIOD_CLOCK,
    AlternatingRun,
    RowTrace,
    check_vectors,
    one_row_run,
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
    """
    from ..logic.synthesis import multi_output_sop

    enc = encoding if encoding is not None else binary_encoding(machine.states)
    tables, _dont_care, names = machine_tables(machine, enc)
    sd_tables: Dict[str, TruthTable] = {}
    for out_name, table in tables.items():
        sd_tables[out_name] = self_dualize_table(table, clock_name)
    sd_names = tuple(names) + (clock_name,)
    network = multi_output_sop(
        sd_tables,
        sd_names,
        style=style,
        network_name=f"{machine.name}_sd_comb",
        share_products=share_products,
    )
    return network, enc


@dataclasses.dataclass
class DualFlipFlopMachine:
    """A machine in Reynolds' dual flip-flop SCAL form (Figure 4.2a)."""

    machine: StateTable
    circuit: SequentialCircuit
    encoding: StateEncoding
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
        return self.circuit.flip_flop_count()

    def gate_count(self) -> int:
        return self.circuit.gate_count()

    def force(
        self, forcing: RowForcing, row: int, fault: CircuitFault
    ) -> None:
        """Add a network or flip-flop fault to ``forcing`` in ``row``."""
        self.circuit.force(forcing, row, fault)

    @staticmethod
    def stopped_rows(forcing: RowForcing) -> int:
        """No row stops: this form has no common-clock fault site."""
        return 0

    def run(
        self,
        vectors: Sequence[Tuple[int, ...]],
        faults: Iterable[CircuitFault] = (),
        fault_window: Optional[Tuple[int, int]] = None,
    ) -> AlternatingRun:
        """Drive logical input vectors in alternating mode under
        ``faults`` (network and flip-flop faults, all in one machine).

        Each vector occupies two clock periods; the run reports, per
        step, the (Z..., Y...) pair values and the alternation verdict —
        monitoring Z *and* Y as the thesis requires.

        ``fault_window=(first, last)`` makes the faults *transient*
        (Definition 2.1 covers both): they are active only during clock
        periods ``first..last`` inclusive (period = 2·step + phase).
        ``None`` means permanent.
        """
        forcing = self.circuit.one_row(faults)
        trace = self.clock_rows(vectors, forcing, fault_window=fault_window)
        return one_row_run(trace, checker=False)

    def clock_rows(
        self,
        vectors: Sequence[Tuple[int, ...]],
        forcing: RowForcing,
        state: Optional[str] = None,
        fault_window: Optional[Tuple[int, int]] = None,
    ) -> RowTrace:
        """Clock every row of ``forcing`` through ``vectors`` from
        ``state`` (default: the initial state), chains seeded with the
        alternating pair.

        Returns per step the first- and second-period (Z..., Y...) row
        masks and a checker mask, always 0: this form's only checkers
        are the alternation monitors.  A ``fault_window`` switches the
        forcing off in every period outside it.
        """
        vectors = check_vectors(vectors, self.machine.n_inputs)
        circuit = self.circuit
        circuit.reset(rows=forcing.rows)
        # Seed the two-stage chains with (ȳ, y): the block must see the
        # true code in period 0 and its complement in period 1.
        code = self.encoding.code(
            state if state is not None else self.machine.initial_state
        )
        circuit.set_stages(
            {f"y{i}": (1 - bit, bit) for i, bit in enumerate(code)}
        )
        full = forcing.full
        idle = RowForcing(forcing.rows)
        index = circuit.compiled.index
        monitored = [
            index[name] for name in self.output_names + self.state_output_names
        ]
        trace = []
        period = 0
        for vector in vectors:
            pair = []
            for phase in (0, 1):
                active = fault_window is None or (
                    fault_window[0] <= period <= fault_window[1]
                )
                inputs = {
                    name: full if (bit & 1) ^ phase else 0
                    for name, bit in zip(self.input_names, vector)
                }
                inputs[self.clock_name] = full if phase else 0
                values = circuit.clock(inputs, forcing if active else idle)
                pair.append(tuple(values[i] for i in monitored))
                period += 1
            trace.append((pair[0], pair[1], 0))
        return trace

    def decoded_outputs(self, run: AlternatingRun) -> List[Tuple[int, ...]]:
        """Logical Z values (first-period, Z positions only)."""
        n_z = len(self.output_names)
        return [step.first[:n_z] for step in run.steps]


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
    code = enc.code(machine.initial_state)
    initial = {f"y{i}": bit for i, bit in enumerate(code)}
    circuit = SequentialCircuit(
        network,
        feedback,
        depth=2,
        initial_state=initial,
        name=f"{machine.name}_dualff",
    )
    return DualFlipFlopMachine(machine, circuit, enc)
