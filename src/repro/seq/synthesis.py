"""Kohavi-style synthesis: state table → gates + flip-flops.

The classical flow the thesis's Chapter 4 examples assume:

1. assign state codes (:mod:`repro.seq.encoding`),
2. tabulate each output bit and each next-state bit as a boolean function
   of ``(inputs, state bits)``, with unused state codes as don't-cares,
3. minimize two-level (Quine–McCluskey) and emit one shared-product SOP
   network,
4. close the next-state outputs through D flip-flops.

The result is a :class:`~repro.seq.simulator.SequentialCircuit` whose
behaviour is verified against the symbolic :class:`StateTable` by the
test suite (exhaustive over short input streams).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..logic.network import Network
from ..logic.synthesis import multi_output_sop
from ..logic.truthtable import TruthTable
from .encoding import StateEncoding, binary_encoding
from .machine import StateTable
from .simulator import SequentialCircuit


@dataclasses.dataclass(frozen=True)
class SynthesizedMachine:
    """A synthesized machine plus its bookkeeping."""

    circuit: SequentialCircuit
    encoding: StateEncoding
    input_names: Tuple[str, ...]
    output_names: Tuple[str, ...]
    state_names: Tuple[str, ...]

    def run_symbols(
        self, inputs: Sequence[Tuple[int, ...]]
    ) -> List[Tuple[int, ...]]:
        """Drive with input bit-tuples; returns output bit-tuples."""
        stream = [
            {name: vec[i] for i, name in enumerate(self.input_names)}
            for vec in inputs
        ]
        return self.circuit.output_trace(stream)


def machine_tables(
    machine: StateTable, encoding: StateEncoding
) -> Tuple[Dict[str, TruthTable], TruthTable, Tuple[str, ...]]:
    """Tabulate output and next-state functions over (inputs, state bits).

    Returns ``(tables, dont_care_mask, variable_names)`` where variables
    are the machine inputs first, then the state bits (little-endian bit
    positions follow this order).
    """
    n_in = machine.n_inputs
    width = encoding.width
    n_vars = n_in + width
    names = tuple(f"x{i}" for i in range(n_in)) + tuple(
        f"y{i}" for i in range(width)
    )
    out_bits = {f"Z{i}": 0 for i in range(machine.n_outputs)}
    next_bits = {f"Y{i}": 0 for i in range(width)}
    care = 0
    code_to_state = {encoding.code(s): s for s in machine.states}
    for point in range(1 << n_vars):
        in_vec = tuple((point >> i) & 1 for i in range(n_in))
        state_code = tuple((point >> (n_in + i)) & 1 for i in range(width))
        state = code_to_state.get(state_code)
        if state is None:
            continue  # unused code word -> don't-care
        care |= 1 << point
        transition = machine.transition(state, in_vec)
        next_code = encoding.code(transition.next_state)
        for i, bit in enumerate(transition.output):
            if bit:
                out_bits[f"Z{i}"] |= 1 << point
        for i, bit in enumerate(next_code):
            if bit:
                next_bits[f"Y{i}"] |= 1 << point
    full = (1 << (1 << n_vars)) - 1
    dont_care = TruthTable(n_vars, full & ~care)
    tables = {
        name: TruthTable(n_vars, bits, names)
        for name, bits in {**out_bits, **next_bits}.items()
    }
    return tables, dont_care, names


def synthesize_machine(
    machine: StateTable,
    encoding: Optional[StateEncoding] = None,
    style: str = "and-or",
    share_products: bool = True,
    depth: int = 1,
) -> SynthesizedMachine:
    """Synthesize ``machine`` into a gate-level sequential circuit."""
    enc = encoding if encoding is not None else binary_encoding(machine.states)
    tables, dont_care, names = machine_tables(machine, enc)
    # Fill don't-cares greedily through QM by passing them per output.
    network = _sop_with_dont_cares(
        tables, dont_care, names, style=style, share_products=share_products,
        network_name=f"{machine.name}_comb",
    )
    feedback = {f"Y{i}": f"y{i}" for i in range(enc.width)}
    initial_code = enc.code(machine.initial_state)
    initial = {f"y{i}": bit for i, bit in enumerate(initial_code)}
    circuit = SequentialCircuit(
        network,
        feedback,
        depth=depth,
        initial_state=initial,
        name=machine.name,
    )
    return SynthesizedMachine(
        circuit=circuit,
        encoding=enc,
        input_names=tuple(f"x{i}" for i in range(machine.n_inputs)),
        output_names=tuple(f"Z{i}" for i in range(machine.n_outputs)),
        state_names=tuple(f"y{i}" for i in range(enc.width)),
    )


def _sop_with_dont_cares(
    tables: Mapping[str, TruthTable],
    dont_care: TruthTable,
    names: Sequence[str],
    style: str,
    share_products: bool,
    network_name: str,
) -> Network:
    """Multi-output SOP where every output shares one don't-care set.

    :func:`repro.logic.synthesis.multi_output_sop` minimizes fully
    specified tables; to exploit don't-cares we pre-minimize each output
    with them and pass the *cover-completed* tables (QM chooses which
    don't-care points the cover absorbs).
    """
    from ..logic.synthesis import cover_to_table, minimize

    completed: Dict[str, TruthTable] = {}
    for out_name, table in tables.items():
        cover = minimize(table, dont_cares=dont_care)
        completed[out_name] = cover_to_table(cover, table.n).restrict_names(
            tuple(names)
        )
    return multi_output_sop(
        completed,
        names,
        style=style,
        network_name=network_name,
        share_products=share_products,
    )
