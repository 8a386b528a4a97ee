"""Collapse regression: collapse=True must not change any verdict.

PR 1 made structural fault collapsing the campaign default.  Coverage
*fractions* legitimately differ between the collapsed and raw universes
(equivalence classes have different sizes, and fractions weight by
count), so the real invariants are: every equivalence class is
status-uniform under the sweep, the class representative's status equals
each member's, and the campaign verdict — does any dangerous
(fault-secure-violating) fault exist — is identical either way.
"""

import random

import pytest

from repro.engine import FaultSweep
from repro.logic.faults import enumerate_single_faults
from repro.workloads.benchcircuits import fig62_nand_network
from repro.workloads.fig34 import fig34_network, fig37_fixed_network
from repro.workloads.randomlogic import (
    random_mixed_network,
    random_nand_network,
)

SEED_CIRCUITS = {
    "fig34": fig34_network,
    "fig37_fixed": fig37_fixed_network,
    "fig62_nand": fig62_nand_network,
    "random_nand3": lambda: random_nand_network(random.Random(3), 3, 7),
    "random_mixed11": lambda: random_mixed_network(random.Random(11), 4, 9),
}


@pytest.fixture(params=sorted(SEED_CIRCUITS), scope="module")
def circuit(request):
    return SEED_CIRCUITS[request.param]()


def test_equivalence_classes_are_status_uniform(circuit):
    sweep = FaultSweep(circuit)
    fault = sweep.compiled.fault
    for members in sweep.compiled.fault_classes:
        statuses = {fault(m).describe(): sweep.classify(m) for m in members}
        assert len(set(statuses.values())) == 1, statuses


def test_collapsed_universe_preserves_campaign_verdict(circuit):
    sweep = FaultSweep(circuit)
    raw = enumerate_single_faults(circuit)
    collapsed = sweep.compiled.universe_ids()
    assert len(collapsed) <= len(raw)
    raw_statuses = {f.describe(): s for f, s in sweep.sweep(raw)}
    collapsed_statuses = {
        sweep.compiled.fault(f).describe(): s
        for f, s in sweep.sweep(collapsed)
    }
    # Representatives report exactly what they reported uncollapsed...
    for name, status in collapsed_statuses.items():
        assert raw_statuses.get(name, status) == status
    # ...and the dangerous/clean campaign verdict is unchanged.
    raw_dangerous = sorted(
        f.describe() for f, s in sweep.sweep(raw) if s == "dangerous"
    )
    has_dangerous_collapsed = any(
        s == "dangerous" for s in collapsed_statuses.values()
    )
    assert bool(raw_dangerous) == has_dangerous_collapsed, raw_dangerous
    # Detected-anywhere is likewise stable across the two universes.
    assert any(s == "detected" for s in raw_statuses.values()) == any(
        s == "detected" for s in collapsed_statuses.values()
    )
