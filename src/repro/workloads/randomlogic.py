"""Seeded random circuit, function, and machine generators.

The property-based tests and the coverage/cost-factor benches need
populations of networks to sweep: random truth tables (for synthesis and
self-dualization statistics), random multi-level NAND networks (for the
Algorithm 3.1 ↔ oracle agreement properties and minority conversion),
and random Mealy machines (for the sequential transforms).  Everything
is deterministic given the seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from ..logic.gates import GateKind
from ..logic.network import Network, NetworkBuilder
from ..logic.truthtable import TruthTable
from ..seq.machine import StateTable, single_input_table


def random_truth_table(
    rng: random.Random, n: int, names: Sequence[str] = ()
) -> TruthTable:
    """A uniformly random n-variable function."""
    return TruthTable(n, rng.getrandbits(1 << n), tuple(names))


def random_self_dual_table(
    rng: random.Random, n: int, names: Sequence[str] = ()
) -> TruthTable:
    """A uniformly random *self-dual* n-variable function: choose the
    low half freely, mirror the complement into the high half."""
    full_mask = (1 << n) - 1
    bits = 0
    for point in range(1 << (n - 1)):
        value = rng.getrandbits(1)
        if value:
            bits |= 1 << point
        if not value:
            bits |= 1 << (point ^ full_mask)
    return TruthTable(n, bits, tuple(names))


def random_nand_network(
    rng: random.Random,
    n_inputs: int,
    n_gates: int,
    n_outputs: int = 1,
    max_fan_in: int = 3,
    name: str = "random_nand",
) -> Network:
    """A random multi-level NAND network (inputs guaranteed used)."""
    inputs = [f"x{i}" for i in range(n_inputs)]
    builder = NetworkBuilder(inputs, name=name)
    available = list(inputs)
    for g in range(n_gates):
        fan_in = rng.randint(1, min(max_fan_in, len(available)))
        sources = rng.sample(available, fan_in)
        line = builder.add(f"g{g}", GateKind.NAND, sources)
        available.append(line)
    outputs = available[-n_outputs:]
    return builder.build(outputs)


def random_mixed_network(
    rng: random.Random,
    n_inputs: int,
    n_gates: int,
    n_outputs: int = 1,
    kinds: Sequence[GateKind] = (
        GateKind.NAND,
        GateKind.NOR,
        GateKind.AND,
        GateKind.OR,
        GateKind.NOT,
        GateKind.XOR,
    ),
    max_fan_in: int = 3,
    name: str = "random_mixed",
) -> Network:
    """A random network over a mixed gate alphabet (XOR included, to
    exercise the conditions that XORs defeat).  ``NOT`` and ``BUF``
    read one line and ``MAJ`` an odd number, at least three (its arity
    rule), so ``kinds`` holding ``MAJ`` needs ``n_inputs >= 3``."""
    if GateKind.MAJ in kinds and n_inputs < 3:
        raise ValueError(
            f"MAJ gates read at least 3 lines; n_inputs={n_inputs} is too few"
        )
    inputs = [f"x{i}" for i in range(n_inputs)]
    builder = NetworkBuilder(inputs, name=name)
    available = list(inputs)
    for g in range(n_gates):
        kind = rng.choice(list(kinds))
        if kind in (GateKind.NOT, GateKind.BUF):
            sources = [rng.choice(available)]
        elif kind is GateKind.MAJ:
            extra = (max(min(max_fan_in, len(available)), 3) - 3) // 2
            sources = rng.sample(available, 3 + 2 * rng.randint(0, extra))
        else:
            fan_in = rng.randint(2, min(max_fan_in, max(len(available), 2)))
            fan_in = min(fan_in, len(available))
            if fan_in < 1:
                sources = [rng.choice(available)]
            else:
                sources = rng.sample(available, fan_in)
        line = builder.add(f"g{g}", kind, sources)
        available.append(line)
    outputs = available[-n_outputs:]
    return builder.build(outputs)


def random_array_network(
    rng: random.Random,
    stages: int,
    name: str = "random_array",
) -> Network:
    """A random *iterative logic array*: a chain of randomly drawn
    two-input cells, each mixing the running carry with two fresh
    inputs and tapping a per-stage XOR sum output (so internal faults
    stay observable).  The deep reconvergent carry chain makes these
    the random counterpart of the ripple adders — nearly irredundant,
    with expensive per-fault PODEM searches, which is exactly the
    regime where fault dropping pays (cf. the constant-size test sets
    of AND-EXOR iterative arrays in the related work)."""
    kinds = [
        GateKind.AND,
        GateKind.OR,
        GateKind.NAND,
        GateKind.NOR,
        GateKind.XOR,
    ]
    inputs = ["c0"] + [f"{p}{i}" for i in range(stages) for p in "ab"]
    builder = NetworkBuilder(inputs, name=name)
    carry = "c0"
    outputs: List[str] = []
    counter = 0

    def add(kind: GateKind, sources: Sequence[str]) -> str:
        nonlocal counter
        line = builder.add(f"g{counter}", kind, sources)
        counter += 1
        return line

    for stage in range(stages):
        a, b = f"a{stage}", f"b{stage}"
        t1 = add(rng.choice(kinds), [a, b])
        t2 = add(rng.choice(kinds), [t1, carry])
        t3 = add(rng.choice(kinds), [a, carry])
        carry = add(rng.choice(kinds), [t2, t3])
        sum_sources = [t1, carry] if rng.random() < 0.5 else [t2, t3]
        outputs.append(add(GateKind.XOR, sum_sources))
    outputs.append(carry)
    return builder.build(outputs)


def random_alternating_network(
    rng: random.Random,
    n_inputs: int,
    name: str = "random_alt",
    style: str = "and-or",
) -> Network:
    """A random *alternating* (self-dual, two-level) network — always a
    SCAL network by the Yamamoto two-level result, used as the healthy
    population in coverage experiments."""
    from ..logic.synthesis import sop_network

    table = random_self_dual_table(rng, n_inputs)
    return sop_network(
        table,
        names=[f"x{i}" for i in range(n_inputs)],
        style=style,
        network_name=name,
    )


def random_machine(
    rng: random.Random,
    n_states: int,
    name: str = "random_machine",
) -> StateTable:
    """A random single-input/single-output Mealy machine."""
    states = [f"Q{i}" for i in range(n_states)]
    rows: Dict[str, Dict[int, Tuple[str, int]]] = {}
    for state in states:
        rows[state] = {
            x: (rng.choice(states), rng.randint(0, 1)) for x in (0, 1)
        }
    return single_input_table(name, rows, states[0])


def random_input_vectors(
    rng: random.Random, n_inputs: int, length: int
) -> List[Tuple[int, ...]]:
    return [
        tuple(rng.randint(0, 1) for _ in range(n_inputs))
        for _ in range(length)
    ]


def random_sample_points(
    rng: random.Random, n_inputs: int, count: int
) -> List[int]:
    """Distinct truth-table indices for the sampled backend, sorted so
    one seed names one sample set regardless of draw order."""
    space = 1 << n_inputs
    return sorted(rng.sample(range(space), min(count, space)))


def random_fault(rng: random.Random, network: Network, include_pins: bool = True):
    """A uniformly random single stuck-at fault site of ``network``."""
    from ..logic.faults import PinStuckAt, StuckAt

    value = rng.randint(0, 1)
    sites: List[Tuple[str, int]] = [(line, -1) for line in network.lines()]
    if include_pins:
        for gate in network.gates:
            sites.extend((gate.name, pin) for pin in range(len(gate.inputs)))
    line, pin = rng.choice(sites)
    if pin < 0:
        return StuckAt(line, value)
    return PinStuckAt(line, pin, value)
