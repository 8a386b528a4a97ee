"""Golden fixture: clocked SCAL campaign results, byte for byte.

``tests/data/clocked_campaign_golden.json`` holds every
:class:`~repro.scal.verify.CampaignResult` field of the dual flip-flop
and code-conversion campaigns over a fixed grid: the machine library,
Kohavi's 0101 detector and four seeded random machines (2-9 states);
streams of 0, 1 and 30 vectors; ``collapse`` and ``include_inputs`` on
and off, and ``include_flip_flops`` on and off for the dual flip-flop
form.  The grid covers zero-vector runs and fault universes on both
sides of one 64-bit word.  Two *tampered* machines add a dead
``AND(φ, ¬φ)`` gate XOR-ed into ``Z0`` and ``Y0``: its stuck-at-1 inverts
the line in both periods, so the grid also pins a nonempty, ordered
``dangerous_faults`` list.

Regenerate (only when a campaign's semantics change on purpose) with::

    PYTHONPATH=src python tests/test_campaign_golden.py
"""

import dataclasses
import json
import os
import random

import pytest

from repro.logic.gates import GateKind
from repro.logic.network import Gate, Network
from repro.scal.codeconv import to_code_conversion
from repro.scal.dualff import DualFlipFlopMachine, to_dual_flipflop
from repro.scal.verify import codeconv_campaign, dualff_campaign, random_vectors
from repro.seq.simulator import SequentialCircuit
from repro.workloads.detectors import kohavi_0101
from repro.workloads.machines import machine_suite
from repro.workloads.randomlogic import random_machine

GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "clocked_campaign_golden.json"
)
LENGTHS = (0, 1, 30)
RANDOM_MACHINES = ((2, 101), (4, 102), (7, 103), (9, 104))
TAMPERED = ("seq0101", "random4")


def grid_machines():
    machines = list(machine_suite()) + [kohavi_0101()]
    for n_states, seed in RANDOM_MACHINES:
        machines.append(
            random_machine(
                random.Random(seed), n_states, name=f"random{n_states}"
            )
        )
    return machines


def grid_cases():
    """``(key, machine, tampered)`` for every grid entry."""
    cases = [(m.name, m, False) for m in grid_machines()]
    cases += [(f"tampered-{m.name}", m, True) for m in grid_machines()
              if m.name in TAMPERED]
    return cases


def _tamper(network):
    """XOR a constant-0 ``AND(φ, ¬φ)`` line into ``Z0`` and ``Y0``."""
    gates = []
    for gate in network.gates:
        if gate.name in ("Z0", "Y0"):
            gate = Gate(f"{gate.name}_core", gate.kind, gate.inputs)
        gates.append(gate)
    gates.append(Gate("dead_nphi", GateKind.NOT, ("phi",)))
    for line in ("Z0", "Y0"):
        gates.append(Gate(f"dead_{line}", GateKind.AND, ("phi", "dead_nphi")))
        gates.append(
            Gate(line, GateKind.XOR, (f"{line}_core", f"dead_{line}"))
        )
    return Network(network.inputs, gates, network.outputs, name=network.name)


def scal_forms(machine, tampered):
    dualff = to_dual_flipflop(machine)
    codeconv = to_code_conversion(machine)
    if tampered:
        circuit = dualff.circuit
        dualff = DualFlipFlopMachine(
            machine,
            SequentialCircuit(
                _tamper(circuit.network),
                circuit.feedback,
                depth=circuit.depth,
                initial_state={
                    f"y{i}": bit
                    for i, bit in enumerate(
                        dualff.encoding.code(machine.initial_state)
                    )
                },
                name=circuit.name,
            ),
            dualff.encoding,
        )
        codeconv = dataclasses.replace(
            codeconv, network=_tamper(codeconv.network)
        )
    return dualff, codeconv


def grid_results(machine, tampered=False):
    """Every grid campaign of one machine, keyed by its settings."""
    dualff, codeconv = scal_forms(machine, tampered)
    out = {}
    for length in LENGTHS:
        vectors = random_vectors(machine, length, seed=length + 7)
        for collapse in (True, False):
            for inputs in (False, True):
                key = f"L{length}-c{int(collapse)}-i{int(inputs)}"
                for ffs in (True, False):
                    result = dualff_campaign(
                        dualff,
                        vectors,
                        include_inputs=inputs,
                        include_flip_flops=ffs,
                        collapse=collapse,
                    )
                    out[f"dualff-{key}-f{int(ffs)}"] = _fields(result)
                result = codeconv_campaign(
                    codeconv, vectors, include_inputs=inputs, collapse=collapse
                )
                out[f"codeconv-{key}"] = _fields(result)
    return out


def _fields(result):
    fields = dataclasses.asdict(result)
    fields["dangerous_faults"] = list(result.dangerous_faults)
    return fields


def _load():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "key,machine,tampered", grid_cases(), ids=[c[0] for c in grid_cases()]
)
def test_campaigns_match_golden(key, machine, tampered):
    assert grid_results(machine, tampered) == _load()[key]


def test_golden_covers_grid():
    golden = _load()
    assert sorted(golden) == sorted(key for key, _m, _t in grid_cases())
    cases = [case for entry in golden.values() for case in entry.values()]
    totals = {case["total"] for case in cases}
    assert min(totals) < 64 < max(totals)
    zero = golden["seq0101"]["codeconv-L0-c1-i0"]
    assert zero["detected"] == 2  # the common clock: alpt_g s/0 and s/1 only
    assert zero["mean_detection_latency"] is None
    assert max(len(case["dangerous_faults"]) for case in cases) > 1


if __name__ == "__main__":
    record = {key: grid_results(m, t) for key, m, t in grid_cases()}
    with open(GOLDEN, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
