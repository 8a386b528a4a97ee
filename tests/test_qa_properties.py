"""The QA subsystem's own regression suite (repro.qa).

Three layers: a fixed-seed slice of every registered property (the
invariants hold on the healthy engine), unit tests of the shrinker on a
synthetic known-bad predicate, and the chaos self-test — inject a named
engine bug and require the full pipeline (detect, shrink, emit JSON +
pytest artifacts) to catch it.  A fuzzing harness that has never caught
a bug is indistinguishable from one that cannot.
"""

import json

import pytest

from repro.engine import NetworkEngine
from repro.engine.atpg import pattern_detections
from repro.logic.faults import StuckAt
from repro.logic.gates import GateKind
from repro.logic.network import Gate, Network, NetworkBuilder
from repro.qa import (
    PROPERTIES,
    Case,
    case_from_json,
    case_to_json,
    fuzz,
    network_from_json,
    property_names,
    pytest_snippet,
    run_property,
    shrink_case,
    trial_rng,
)
from repro.qa.chaos import bug_names, inject
from repro.seq.simulator import SequentialCircuit

EXPECTED_PROPERTIES = {
    "algorithm31-oracle-agreement",
    "alternation-self-dual",
    "atpg-compaction-conservation",
    "atpg-detects",
    "atpg-drop-soundness",
    "backend-agreement",
    "clocked-campaign-reference",
    "collapse-verdict",
    "podem-table-agreement",
    "sampled-determinism",
    "seq-transform-equivalence",
    "stem-region-agreement",
    "synth-determinism",
    "synth-soundness",
}

FIXED_SEED = 2026


def test_registry_names():
    assert set(property_names()) == EXPECTED_PROPERTIES


@pytest.mark.parametrize("name", sorted(EXPECTED_PROPERTIES))
def test_fixed_seed_slice(name):
    """Tier-1 slice: every property holds on a few fixed-seed trials."""
    report = run_property(PROPERTIES[name], seed=FIXED_SEED, trials=3)
    assert report.ok, report.counterexamples[0].detail


@pytest.mark.atpg
@pytest.mark.parametrize(
    "name", ["atpg-drop-soundness", "atpg-compaction-conservation"]
)
def test_atpg_property_deep_slice(name):
    """Acceptance bar from the issue: both ATPG properties hold across
    200 fixed-seed trials in tier-1 (the generators are sized so this
    stays a couple of seconds)."""
    report = run_property(PROPERTIES[name], seed=FIXED_SEED, trials=200)
    assert report.ok, report.counterexamples[0].detail


@pytest.mark.atpg
@pytest.mark.parametrize(
    "name", ["atpg-drop-soundness", "atpg-compaction-conservation"]
)
def test_atpg_property_counterexamples_shrink(name):
    """A violated ATPG property must produce a *shrunk* witness: feed the
    checker a sabotaged report via a wrapper predicate and require the
    greedy shrinker to minimize the failing network."""
    check = PROPERTIES[name].check

    def sabotaged(case):
        # Out-of-domain cases pass through; in-domain networks with at
        # least one testable fault are declared "wrong" so the shrinker
        # has a stable failing predicate to minimize against.
        if case.network is None:
            return None
        if check(case) is not None:  # pragma: no cover - healthy engine
            return "real violation"
        from repro.engine.atpg import run_atpg

        report = run_atpg(case.network)
        if report.detected == 0:
            return None
        return f"pretend {name} violation: {report.detected} detected"

    case = Case(network=_wide_xor_network())
    assert sabotaged(case) is not None
    shrunk = shrink_case(case, sabotaged)
    assert sabotaged(shrunk) is not None
    assert shrunk.size() < case.size()
    assert len(shrunk.network.gates) <= 2


@pytest.mark.fuzz
@pytest.mark.parametrize("name", sorted(EXPECTED_PROPERTIES))
def test_large_budget_slice(name):
    """Nightly slice: a deeper per-property campaign."""
    report = run_property(PROPERTIES[name], seed=FIXED_SEED + 1, trials=60)
    assert report.ok, report.counterexamples[0].detail


# ----------------------------------------------------------------------
# shrinker unit tests on a synthetic known-bad predicate
# ----------------------------------------------------------------------
def _contains_xor(case):
    net = case.network
    if net is None:
        return None
    if any(g.kind is GateKind.XOR for g in net.gates):
        return "network contains an XOR gate"
    return None


def _wide_xor_network():
    builder = NetworkBuilder(["a", "b", "c", "d"], name="wide")
    builder.add("g0", GateKind.AND, ["a", "b"])
    builder.add("g1", GateKind.OR, ["c", "d"])
    builder.add("g2", GateKind.NAND, ["g0", "g1"])
    builder.add("g3", GateKind.XOR, ["g2", "a"])
    builder.add("g4", GateKind.NOR, ["g3", "b"])
    builder.add("g5", GateKind.NOT, ["g4"])
    builder.add("g6", GateKind.AND, ["g5", "g1"])
    builder.add("g7", GateKind.OR, ["g6", "g3"])
    builder.add("g8", GateKind.NAND, ["g7", "c"])
    builder.add("g9", GateKind.AND, ["g8", "g0"])
    builder.add("g10", GateKind.OR, ["g9", "d"])
    builder.add("g11", GateKind.NAND, ["g10", "g5"])
    return builder.build(["g11"])


def test_shrinker_minimizes_known_bad_network():
    case = Case(network=_wide_xor_network())
    shrunk = shrink_case(case, _contains_xor)
    assert _contains_xor(shrunk) is not None
    assert shrunk.size() < case.size()
    assert len(shrunk.network.gates) <= 2
    assert len(shrunk.network.inputs) <= 2


def test_shrinker_rejects_passing_case():
    builder = NetworkBuilder(["a"], name="clean")
    builder.add("g0", GateKind.NOT, ["a"])
    with pytest.raises(ValueError):
        shrink_case(Case(network=builder.build(["g0"])), _contains_xor)


def test_shrinker_minimizes_vector_streams():
    def long_stream(case):
        if case.vectors is not None and len(case.vectors) >= 3:
            return "stream still has >= 3 vectors"
        return None

    case = Case(vectors=tuple((i & 1,) for i in range(40)))
    shrunk = shrink_case(case, long_stream)
    assert len(shrunk.vectors) == 3


# ----------------------------------------------------------------------
# chaos: the harness must catch a deliberately broken engine
# ----------------------------------------------------------------------
def test_chaos_bug_registry():
    assert bug_names() == sorted(bug_names())
    assert "nand-as-and" in bug_names()
    with pytest.raises(KeyError):
        with inject("no-such-bug"):
            pass


def test_chaos_nand_bug_caught_shrunk_and_archived(tmp_path):
    report = fuzz(
        seed=0,
        budget=20,
        properties=["backend-agreement"],
        artifact_dir=str(tmp_path),
        chaos_bug="nand-as-and",
    )
    assert not report.ok
    ce = report.reports[0].counterexamples[0]
    # Acceptance bar from the issue: the shrunk witness is tiny.
    assert len(ce.shrunk.network.gates) <= 8
    assert ce.shrunk.size() <= ce.case.size()

    json_paths = sorted(tmp_path.glob("*.json"))
    test_paths = sorted(tmp_path.glob("test_repro_*.py"))
    assert json_paths and test_paths
    payload = json.loads(json_paths[0].read_text())
    assert payload["property"] == "backend-agreement"
    assert payload["shrunk_size"] <= payload["original_size"]
    # The archived case round-trips into a Network the checker accepts.
    restored = case_from_json(payload["case"])
    assert case_to_json(restored) == payload["case"]
    net = network_from_json(payload["case"]["network"])
    assert any(g.kind is GateKind.NAND for g in net.gates)
    assert "def test_backend_agreement_counterexample" in (
        test_paths[0].read_text()
    )


def test_chaos_patch_is_scoped():
    """The sabotage must not outlive its context manager."""
    with inject("nand-as-and"):
        broken = fuzz(
            seed=0,
            budget=6,
            properties=["backend-agreement"],
            artifact_dir=None,
            shrink=False,
        )
        assert not broken.ok
    healthy = fuzz(
        seed=0,
        budget=6,
        properties=["backend-agreement"],
        artifact_dir=None,
        shrink=False,
    )
    assert healthy.ok


def test_pointwise_chaos_bug_caught():
    report = fuzz(
        seed=1,
        budget=20,
        properties=["backend-agreement"],
        artifact_dir=None,
        chaos_bug="nor-as-or",
        shrink=False,
    )
    assert not report.ok


def test_every_chaos_bug_reaches_every_caller():
    """Every bug patches the one interpreter's primitive, so each changes
    the exhaustive tables, a point query, ATPG pattern simulation and a
    one-row clocked step of the same net."""
    net = Network(
        ["a", "b", "y"],
        [
            Gate("n1", GateKind.NAND, ("a", "b")),
            Gate("n2", GateKind.NOR, ("a", "b")),
            Gate("n3", GateKind.NOT, ("y",)),
        ],
        ["n1", "n2", "n3"],
    )
    faults = [StuckAt(line, 0) for line in ("n1", "n2", "n3")]

    def observe():
        engine = NetworkEngine(net)
        circuit = SequentialCircuit(net, {"n3": "y"})
        return {
            "bitmask": engine.bitmask.output_bits(),
            "pointwise": engine.pointwise.output_values((0, 0, 0)),
            "atpg": pattern_detections(engine.compiled, range(8), faults),
            "step": circuit.run([{"a": 0, "b": 0}]),
        }

    healthy = observe()
    for name in bug_names():
        with inject(name):
            broken = observe()
        for caller, value in healthy.items():
            assert broken[caller] != value, (name, caller)


def test_clocked_campaign_chaos_bug_caught():
    """The packed clocked stepper evaluates through the bitmask seam, so
    a NOT miscompiled as a buffer must split it from the naive stepper."""
    report = fuzz(
        seed=0,
        budget=4,
        properties=["clocked-campaign-reference"],
        artifact_dir=None,
        chaos_bug="not-as-buf",
        shrink=False,
    )
    assert not report.ok


def test_emitted_snippet_runs_green_on_healthy_engine():
    """The reproducer a failure writes must pass once the bug is gone."""
    case = Case(network=_wide_xor_network())
    snippet = pytest_snippet("backend-agreement", case)
    namespace = {}
    exec(compile(snippet, "<snippet>", "exec"), namespace)
    namespace["test_backend_agreement_counterexample"]()


def test_trial_rng_is_deterministic():
    a = trial_rng(7, "backend-agreement", 3)
    b = trial_rng(7, "backend-agreement", 3)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    assert trial_rng(7, "backend-agreement", 4).random() != trial_rng(
        8, "backend-agreement", 4
    ).random()
