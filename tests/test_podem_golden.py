"""Golden fixture: PODEM search results and ATPG reports, byte for byte.

``tests/data/podem_golden.json`` holds, for every stem and pin fault of
a fixed set of networks, the :class:`~repro.core.atpg.PodemResult` of
one search: ``status``, the full ``test`` and the decided
``assignment`` (both as ordered ``[input, value]`` pairs, so the
decision order is pinned too) and ``backtracks``.  The networks are the
six committed ``.bench`` files, six random iterative arrays, six random
mixed-gate nets whose alphabet includes ``MAJ``, ``MIN``, ``XNOR``,
``BUF`` and ``NOT``, and three edge nets: no inputs at all, a primary
input that is also an output, and gates that read one line twice.

Edge rows add backtrack budgets of 0 and 3 (the aborted path), a
deadline already in the past, the alternating pair ``run_atpg(...,
pairs=True)`` credits each fault of the three thesis figures, and the
counts of one search per fault (``run_atpg(..., drop=False)``).  The
six arrays also pin ``run_atpg(...).to_dict()`` (minus
``wall_seconds``) in the default, ``pairs`` and ``drop=False`` modes.

Regenerate (only when the search's decisions change on purpose) with::

    PYTHONPATH=src python tests/test_podem_golden.py
"""

import functools
import json
import os
import random

import pytest

from repro.core.atpg import Podem
from repro.engine.atpg import run_atpg
from repro.logic.benchfmt import load_bench
from repro.logic.faults import enumerate_pin_faults, enumerate_stem_faults
from repro.logic.gates import GateKind
from repro.logic.network import Gate, Network
from repro.workloads.randomlogic import random_array_network, random_mixed_network

pytestmark = pytest.mark.atpg

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "data", "podem_golden.json")
BENCH_DIR = os.path.join(HERE, os.pardir, "examples", "data")
BENCHES = ("fig34", "fig37", "fig62", "adder4", "array10", "array11")
#: ``(stages, seed)`` of the random iterative arrays.
ARRAYS = ((3, 201), (4, 202), (5, 203), (6, 204), (7, 205), (8, 206))
#: ``(inputs, gates, outputs, seed)`` of the random mixed-gate nets.
MIXED = (
    (4, 12, 2, 301),
    (5, 16, 2, 302),
    (6, 20, 3, 303),
    (7, 24, 3, 304),
    (8, 30, 4, 305),
    (9, 36, 4, 306),
)
MIXED_KINDS = (
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
BUDGET_NETS = ("adder4", "array11", "array-7")
ALTERNATING_NETS = ("fig34", "fig37", "fig62")
ATPG_MODES = {
    "default": {},
    "pairs": {"pairs": True},
    "nodrop": {"drop": False},
}


def edge_networks():
    """No inputs; an input that is also an output; lines read twice."""
    consts = Network(
        [],
        [
            Gate("k0", GateKind.CONST0, ()),
            Gate("k1", GateKind.CONST1, ()),
            Gate("y", GateKind.OR, ("k0", "k1")),
        ],
        ["y", "k0"],
        name="consts",
    )
    passthrough = Network(
        ["a", "b"],
        [Gate("g", GateKind.AND, ("a", "b"))],
        ["g", "a"],
        name="passthrough",
    )
    twice = Network(
        ["a", "b", "c"],
        [
            Gate("d", GateKind.AND, ("a", "a")),
            Gate("e", GateKind.XOR, ("b", "b", "c")),
            Gate("m", GateKind.MAJ, ("d", "d", "e")),
            Gate("y", GateKind.NOR, ("m", "c", "m")),
        ],
        ["y", "e"],
        name="twice",
    )
    return {net.name: net for net in (consts, passthrough, twice)}


def array_networks():
    return {
        f"array-{stages}": random_array_network(
            random.Random(seed), stages, name=f"array-{stages}"
        )
        for stages, seed in ARRAYS
    }


def grid_networks():
    nets = {
        name: load_bench(os.path.join(BENCH_DIR, f"{name}.bench"), name=name)
        for name in BENCHES
    }
    nets.update(array_networks())
    for n_inputs, gates, outputs, seed in MIXED:
        name = f"mixed-{n_inputs}"
        nets[name] = random_mixed_network(
            random.Random(seed),
            n_inputs,
            gates,
            n_outputs=outputs,
            kinds=MIXED_KINDS,
            name=name,
        )
    nets.update(edge_networks())
    return nets


def _universe(network):
    return list(enumerate_stem_faults(network)) + list(
        enumerate_pin_faults(network)
    )


def _pairs(mapping):
    return None if mapping is None else [[k, v] for k, v in mapping.items()]


def search_rows(network, max_backtracks=2000, deadline=None):
    """``[fault, status, test, assignment, backtracks]`` per fault."""
    podem = Podem(network, max_backtracks=max_backtracks)
    rows = []
    for fault in _universe(network):
        result = podem.generate_test_ex(fault, deadline)
        rows.append(
            [
                fault.describe(),
                result.status,
                _pairs(result.test),
                _pairs(result.assignment),
                result.backtracks,
            ]
        )
    return rows


def alternating_rows(network):
    """``[fault, [X, X̄] | None]``: the pair ``pairs`` mode credits."""
    universe = _universe(network)
    report = run_atpg(network, universe, pairs=True)
    full = (1 << len(network.inputs)) - 1
    rows = []
    for fault in universe:
        index = report.detected_by.get(fault.describe())
        x = None if index is None else report.patterns[index]
        rows.append([fault.describe(), None if x is None else [x, x ^ full]])
    return rows


def summary_rows(network):
    """Counts of one PODEM search per stem fault, raw and collapsed."""
    rows = []
    for collapse in (False, True):
        report = run_atpg(network, collapse=collapse, drop=False)
        rows.append(
            {
                "faults": report.requested,
                "tested": report.detected,
                "untested": report.redundant + report.aborted,
                "redundant": report.redundant,
                "aborted": report.aborted,
            }
        )
    return rows


def report_fields(network, mode):
    data = run_atpg(network, **ATPG_MODES[mode]).to_dict()
    del data["wall_seconds"]
    for key in ("classifications", "detected_by"):
        data[key] = _pairs(data[key])
    return data


def grid_cases():
    """``(key, thunk)`` for every grid entry."""
    nets = grid_networks()
    cases = []
    for name, net in nets.items():
        cases.append((f"search-{name}", lambda net=net: search_rows(net)))
        if not name.startswith("array"):  # arrays: see the atpg rows
            cases.append(
                (f"summary-{name}", lambda net=net: summary_rows(net))
            )
    for name in BUDGET_NETS:
        for budget in (0, 3):
            cases.append(
                (
                    f"budget{budget}-{name}",
                    lambda net=nets[name], b=budget: search_rows(net, b),
                )
            )
    cases.append(
        ("deadline-fig34", lambda: search_rows(nets["fig34"], deadline=0.0))
    )
    for name in ALTERNATING_NETS:
        cases.append(
            (f"alternating-{name}", lambda net=nets[name]: alternating_rows(net))
        )
    for name in array_networks():
        for mode in ATPG_MODES:
            cases.append(
                (
                    f"atpg-{mode}-{name}",
                    lambda net=nets[name], m=mode: report_fields(net, m),
                )
            )
    return cases


@functools.lru_cache(maxsize=1)
def _load():
    with open(GOLDEN) as handle:
        return json.load(handle)


CASES = grid_cases()


@pytest.mark.parametrize("key,thunk", CASES, ids=[key for key, _t in CASES])
def test_matches_golden(key, thunk):
    # Round-trip through JSON so tuples compare as the fixture's lists.
    got = json.loads(json.dumps(thunk()))
    assert got == _load()[key]


def test_golden_covers_grid():
    golden = _load()
    assert sorted(golden) == sorted(key for key, _t in CASES)
    statuses = {
        row[1]
        for key, rows in golden.items()
        if key.startswith(("search-", "budget"))
        for row in rows
    }
    assert statuses == {"test", "redundant", "aborted"}
    assert all(row[1] == "aborted" for row in golden["deadline-fig34"])
    assert any(row[4] > 0 for row in golden["search-array11"])
    kinds = {
        gate.kind
        for name, net in grid_networks().items()
        if name.startswith("mixed-")
        for gate in net.gates
    }
    assert set(MIXED_KINDS) <= kinds


if __name__ == "__main__":
    record = {key: thunk() for key, thunk in grid_cases()}
    with open(GOLDEN, "w") as handle:
        # One grid entry per line: small, and diffs name the entry.
        handle.write("{\n")
        handle.write(
            ",\n".join(
                f"{json.dumps(key)}:{json.dumps(record[key], separators=(',', ':'))}"
                for key in sorted(record)
            )
        )
        handle.write("\n}\n")
    print(f"wrote {GOLDEN} ({os.path.getsize(GOLDEN)} bytes)")
