"""Determinism of the sampled backend and the sweep drivers.

One seed must name one sample set and one verdict list — across two
fresh backend instances in one process, and across the FaultSweep's
serial vs fork-worker paths.  Without this, a nightly fuzz failure
could not be replayed from its artifact alone.
"""

import random

import pytest

from repro.engine import FaultSweep, NetworkEngine
from repro.logic.faults import enumerate_stem_faults
from repro.qa import PROPERTIES, run_property
from repro.workloads.fig34 import fig34_network, fig37_fixed_network
from repro.workloads.randomlogic import (
    random_mixed_network,
    random_sample_points,
)

CIRCUITS = {
    "fig34": fig34_network,
    "fig37_fixed": fig37_fixed_network,
    "random17": lambda: random_mixed_network(random.Random(17), 4, 8),
}


def _sampled_campaign(network, seed):
    """A full seeded sampled campaign on entirely fresh state."""
    n = len(network.inputs)
    rng = random.Random(seed)
    points = random_sample_points(rng, n, min(8, 1 << n))
    engine = NetworkEngine(network)
    verdicts = [
        (fault.describe(), tuple(engine.pointwise.output_vectors(points, fault)))
        for fault in enumerate_stem_faults(network)
    ]
    return points, verdicts


@pytest.mark.parametrize("label", sorted(CIRCUITS))
def test_same_seed_same_sample_set_and_verdicts(label):
    network = CIRCUITS[label]()
    first = _sampled_campaign(network, seed=99)
    second = _sampled_campaign(network, seed=99)
    assert first == second


def test_different_seeds_differ_somewhere():
    # A 4-input net samples 8 of 16 points, so distinct seeds can pick
    # distinct sets (a 3-input net would always sample everything).
    network = CIRCUITS["random17"]()
    sets = {tuple(_sampled_campaign(network, seed=s)[0]) for s in range(4)}
    assert len(sets) > 1


@pytest.mark.parametrize("label", sorted(CIRCUITS))
def test_serial_and_forked_sweeps_agree(label):
    network = CIRCUITS[label]()
    sweep = FaultSweep(network)
    universe = sweep.compiled.universe_ids(collapse=False)
    serial = sweep.sweep(universe)
    forked = sweep.sweep(universe, processes=2)
    assert serial == forked


def test_run_property_is_replayable():
    """The registered determinism property replays bit-for-bit."""
    prop = PROPERTIES["sampled-determinism"]
    first = run_property(prop, seed=5, trials=2)
    second = run_property(prop, seed=5, trials=2)
    assert first.ok and second.ok
    assert first.trials == second.trials
