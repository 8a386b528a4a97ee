"""Golden fixture: every view of the structural fault universe, in order.

``tests/data/collapse_golden.json`` holds, for a fixed set of networks,
the exact output of every public fault-universe view, order included:

* ``equivalence_collapse`` — the classes in order, members in order;
* ``collapse_stem_faults`` with ``include_inputs`` on and off;
* ``collapsed_single_faults`` for each ``include_inputs`` ×
  ``include_pins`` combination;
* ``FaultSweep.single_fault_universe`` for the same four combinations;
* ``enumerate_single_faults`` with ``collapse`` on;
* ``collapse_faults`` with ``use_dominance`` on and off (the
  representatives and the three counts).

The networks are the six committed ``.bench`` files, ten seeded
``random_mixed_network`` nets (one alphabet has ``MAJ``, ``MIN``,
``XNOR``, ``BUF`` and ``NOT``; two have the 14-input, 120-gate shape of
the sweep workload), ten seeded ``random_array_network`` nets, the dual
flip-flop and code-conversion circuits of one random machine, and edge
nets: no inputs, no gates, one input, an input that is also an output,
lines read twice by one gate, a single-pin line that is also an output,
and a dead gate beside an unconnected input.

A fault is written ``[line, value]`` (stem) or ``[gate, pin, value]``
(pin).  Regenerate (only when the universe changes on purpose) with::

    PYTHONPATH=src python tests/test_collapse_golden.py
"""

import functools
import json
import os
import random

import pytest

from repro.core.collapse import (
    collapse_faults,
    collapse_stem_faults,
    collapsed_single_faults,
    equivalence_collapse,
)
from repro.engine import FaultSweep
from repro.logic.benchfmt import load_bench
from repro.logic.faults import StuckAt, enumerate_single_faults
from repro.logic.gates import GateKind
from repro.logic.network import Gate, Network
from repro.scal.codeconv import to_code_conversion
from repro.scal.dualff import to_dual_flipflop
from repro.workloads.randomlogic import (
    random_array_network,
    random_machine,
    random_mixed_network,
)

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "data", "collapse_golden.json")
BENCH_DIR = os.path.join(HERE, os.pardir, "examples", "data")
BENCHES = ("fig34", "fig37", "fig62", "adder4", "array10", "array11")
#: ``(inputs, gates, outputs, seed, kinds)``; ``None`` is the default
#: alphabet.
ALL_KINDS = (
    GateKind.AND,
    GateKind.OR,
    GateKind.NAND,
    GateKind.NOR,
    GateKind.XOR,
    GateKind.XNOR,
    GateKind.MAJ,
    GateKind.MIN,
    GateKind.BUF,
    GateKind.NOT,
)
MIXED = (
    (3, 6, 1, 401, None),
    (4, 9, 2, 402, None),
    (5, 14, 2, 403, ALL_KINDS),
    (6, 18, 3, 404, ALL_KINDS),
    (7, 24, 3, 405, None),
    (8, 30, 4, 406, ALL_KINDS),
    (9, 40, 4, 407, None),
    (10, 60, 6, 408, ALL_KINDS),
    (14, 120, 16, 409, None),
    (14, 120, 16, 410, None),
)
#: ``(stages, seed)`` of the random iterative arrays.
ARRAYS = tuple((stages, 500 + stages) for stages in range(1, 11))
MACHINE = (5, 601)


def edge_networks():
    nets = [
        Network(
            [],
            [
                Gate("k0", GateKind.CONST0, ()),
                Gate("k1", GateKind.CONST1, ()),
                Gate("y", GateKind.OR, ("k0", "k1")),
            ],
            ["y", "k0"],
            name="consts",
        ),
        Network(["a", "b"], [], ["a", "b"], name="nogates"),
        Network(["a"], [Gate("y", GateKind.NOT, ("a",))], ["y"], name="one"),
        Network(
            ["a", "b"],
            [Gate("g", GateKind.AND, ("a", "b"))],
            ["g", "a"],
            name="passthrough",
        ),
        Network(
            ["a", "b", "c"],
            [
                Gate("d", GateKind.AND, ("a", "a")),
                Gate("e", GateKind.XOR, ("b", "b", "c")),
                Gate("m", GateKind.MAJ, ("d", "d", "e")),
                Gate("y", GateKind.NOR, ("m", "c", "m")),
            ],
            ["y", "e"],
            name="twice",
        ),
        Network(
            ["a", "b"],
            [
                Gate("t", GateKind.NAND, ("a", "b")),
                Gate("y", GateKind.NOT, ("t",)),
            ],
            ["y", "t"],
            name="observed",
        ),
        Network(
            ["a", "b", "u"],
            [
                Gate("dead", GateKind.OR, ("a", "b")),
                Gate("deader", GateKind.NOT, ("dead",)),
                Gate("y", GateKind.AND, ("a", "b")),
            ],
            ["y"],
            name="dead",
        ),
    ]
    return {net.name: net for net in nets}


def grid_networks():
    nets = {
        name: load_bench(os.path.join(BENCH_DIR, f"{name}.bench"), name=name)
        for name in BENCHES
    }
    for n_inputs, gates, outputs, seed, kinds in MIXED:
        name = f"mixed-{seed}"
        extra = {} if kinds is None else {"kinds": kinds}
        nets[name] = random_mixed_network(
            random.Random(seed),
            n_inputs,
            gates,
            n_outputs=outputs,
            name=name,
            **extra,
        )
    for stages, seed in ARRAYS:
        name = f"array-{stages}"
        nets[name] = random_array_network(
            random.Random(seed), stages, name=name
        )
    machine = random_machine(random.Random(MACHINE[1]), MACHINE[0])
    nets["dualff"] = to_dual_flipflop(machine).circuit.network
    nets["codeconv"] = to_code_conversion(machine).network
    nets.update(edge_networks())
    return nets


def _faults(faults):
    return [
        [f.line, f.value]
        if isinstance(f, StuckAt)
        else [f.gate, f.pin_index, f.value]
        for f in faults
    ]


def _report(report):
    return {
        "representatives": _faults(report.representatives),
        "total": report.total,
        "equivalence_classes": report.equivalence_classes,
        "dominated_dropped": report.dominated_dropped,
    }


def universe_views(network):
    """Every public universe view of ``network``, keyed by its settings."""
    out = {
        "classes": [
            _faults(members)
            for members in equivalence_collapse(network).values()
        ],
        "enumerate": _faults(enumerate_single_faults(network, collapse=True)),
        "dominance1": _report(collapse_faults(network, use_dominance=True)),
        "dominance0": _report(collapse_faults(network, use_dominance=False)),
    }
    for inputs in (True, False):
        out[f"stems-i{int(inputs)}"] = _faults(
            collapse_stem_faults(network, include_inputs=inputs)
        )
        for pins in (True, False):
            key = f"i{int(inputs)}-p{int(pins)}"
            out[f"single-{key}"] = _faults(
                collapsed_single_faults(
                    network, include_inputs=inputs, include_pins=pins
                )
            )
            out[f"universe-{key}"] = _faults(
                FaultSweep(network).single_fault_universe(
                    include_inputs=inputs, include_pins=pins
                )
            )
    return out


@functools.lru_cache(maxsize=1)
def _load():
    with open(GOLDEN) as handle:
        return json.load(handle)


NETS = grid_networks()


@pytest.mark.parametrize("name", sorted(NETS))
def test_matches_golden(name):
    got = json.loads(json.dumps(universe_views(NETS[name])))
    assert got == _load()[name]


def test_golden_covers_grid():
    assert sorted(_load()) == sorted(NETS)
    kinds = {gate.kind for net in NETS.values() for gate in net.gates}
    assert set(ALL_KINDS) <= kinds


if __name__ == "__main__":
    record = {name: universe_views(net) for name, net in NETS.items()}
    with open(GOLDEN, "w") as handle:
        # One network per line: diffs name the network.
        handle.write("{\n")
        handle.write(
            ",\n".join(
                f"{json.dumps(name)}:"
                f"{json.dumps(record[name], separators=(',', ':'))}"
                for name in sorted(record)
            )
        )
        handle.write("\n}\n")
    print(f"wrote {GOLDEN} ({os.path.getsize(GOLDEN)} bytes)")
