"""Exhaustive, word-parallel network evaluation with fault injection.

Every Chapter-3 condition quantifies over *all* inputs, so the natural
evaluator computes each line of the netlist as a full truth table (an
integer bitmask over all ``2**n`` input points, see
:mod:`repro.logic.truthtable`) in one topological pass.  Fault injection
is then free: a stuck stem replaces a line's mask with all-0/all-1; a
stuck pin overrides one operand of one gate.

For networks whose input count makes ``2**n`` impractical the same entry
points accept an explicit list of input points to evaluate ("sampled"
mode); the SCAL oracle in :mod:`repro.core.simulate` uses that for the
randomized coverage experiments.

These functions are thin name-keyed wrappers over the compiled engine
(:mod:`repro.engine`): the network is compiled once into a flat op
program; a table query re-simulates only the fault's output cone on the
cached fault-free baseline, and a point query is one pass.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..engine.backends import engine_for
from .faults import Fault, MultipleFault
from .network import Network, NetworkError
from .truthtable import TruthTable


def line_tables(
    network: Network,
    fault: Optional[Union[Fault, MultipleFault]] = None,
) -> Dict[str, TruthTable]:
    """Truth tables of every line, optionally under a fault.

    The variable order of the tables is ``network.inputs`` (bit *i* of a
    table index is input *i*), so tables from the same network compose
    with plain ``&``/``|``/``^``.
    """
    engine = engine_for(network)
    bits = engine.bitmask.line_bits(fault)
    n = engine.compiled.n_inputs
    names = engine.compiled.input_names
    return {
        line: TruthTable(n, line_bits, names)
        for line, line_bits in zip(engine.compiled.names, bits)
    }


def output_tables(
    network: Network,
    fault: Optional[Union[Fault, MultipleFault]] = None,
) -> Dict[str, TruthTable]:
    """Truth tables of the network outputs, optionally under a fault."""
    engine = engine_for(network)
    bits = engine.bitmask.line_bits(fault)
    n = engine.compiled.n_inputs
    names = engine.compiled.input_names
    return {
        out: TruthTable(n, bits[idx], names)
        for out, idx in zip(network.outputs, engine.compiled.out_idx)
    }


def network_function(network: Network, output: Optional[str] = None) -> TruthTable:
    """The fault-free function of one output (default: the only output)."""
    if output is None:
        if len(network.outputs) != 1:
            raise ValueError("network has multiple outputs; name one")
        output = network.outputs[0]
    return line_tables(network)[output]


def _input_point(network: Network, assignment: Mapping[str, int]) -> Tuple[int, ...]:
    try:
        return tuple(int(assignment[name]) & 1 for name in network.inputs)
    except KeyError as missing:
        raise NetworkError(f"missing value for input {missing.args[0]!r}") from None


def evaluate_with_fault(
    network: Network,
    assignment: Mapping[str, int],
    fault: Optional[Union[Fault, MultipleFault]] = None,
) -> Dict[str, int]:
    """Pointwise evaluation of every line under a fault."""
    engine = engine_for(network)
    values = engine.pointwise.line_values(_input_point(network, assignment), fault)
    return dict(zip(engine.compiled.names, values))


def outputs_with_fault(
    network: Network,
    assignment: Mapping[str, int],
    fault: Optional[Union[Fault, MultipleFault]] = None,
) -> Tuple[int, ...]:
    """Output tuple for one input assignment under a fault."""
    engine = engine_for(network)
    return engine.pointwise.output_values(_input_point(network, assignment), fault)


def sampled_output_vectors(
    network: Network,
    points: Iterable[int],
    fault: Optional[Union[Fault, MultipleFault]] = None,
) -> List[Tuple[int, ...]]:
    """Output tuples at an explicit list of truth-table points.

    Used when the input space is too large to enumerate — the randomized
    coverage benchmarks sample points instead.
    """
    return engine_for(network).pointwise.output_vectors(points, fault)


def functionally_equivalent(a: Network, b: Network) -> bool:
    """True when two networks compute identical output tuples everywhere.

    Inputs are matched by name; both networks must have the same input
    set and the same number of outputs (output *names* may differ — the
    transformations of Chapters 4 and 6 rename lines).
    """
    if set(a.inputs) != set(b.inputs) or len(a.outputs) != len(b.outputs):
        return False
    eng_a = engine_for(a)
    eng_b = engine_for(b)
    bits_a = eng_a.bitmask.baseline()
    bits_b = eng_b.bitmask.baseline()
    n = len(a.inputs)
    if a.inputs == b.inputs:
        perm = None
    else:
        # b's table index for a's point i, built once (incrementally from
        # the lowest set bit) and reused across every output pair.
        order = {name: i for i, name in enumerate(a.inputs)}
        bit_for = [0] * n
        for bi, name in enumerate(b.inputs):
            bit_for[order[name]] = 1 << bi
        perm = [0] * (1 << n)
        for i in range(1, 1 << n):
            low = i & -i
            perm[i] = perm[i ^ low] | bit_for[low.bit_length() - 1]
    for out_a, out_b in zip(a.outputs, b.outputs):
        table_a = bits_a[eng_a.compiled.index[out_a]]
        table_b = bits_b[eng_b.compiled.index[out_b]]
        if perm is None:
            if table_a != table_b:
                return False
            continue
        for i in range(1 << n):
            if ((table_a >> i) & 1) != ((table_b >> perm[i]) & 1):
                return False
    return True
