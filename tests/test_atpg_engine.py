"""Parity suite for the fault-dropping ATPG driver (repro.engine.atpg).

The driver's whole value is that dropping, candidate batching, and
compaction are *accelerations*, never reclassifications: on every seed
circuit and a fixed-seed random-logic batch its final classification
map must be byte-identical to running the scalar ``Podem`` once per
collapsed fault.  The suite also pins the pattern simulator the driver
rides (``pattern_detections``, against truth tables and, in pairs
mode, the reference interpreter), determinism, compaction
conservation, and the ``python -m repro atpg`` entry point.
"""

import dataclasses
import json
import os
import random

import pytest

from repro.cli import main
from repro.core.atpg import Podem
from repro.engine import NetworkEngine, atpg, compile_network, engine_for
from repro.engine.atpg import AtpgReport, pattern_detections, run_atpg
from repro.engine.backends import pack_pattern_masks
from repro.logic.benchfmt import load_bench, save_bench
from repro.logic.faults import (
    MultipleFault,
    PinStuckAt,
    StuckAt,
    enumerate_single_faults,
)
from repro.logic.gates import GateKind
from repro.logic.network import Gate, Network
from repro.modules.adder import ripple_adder_network
from repro.qa.reference import point_tuple, reference_outputs
from repro.workloads.benchcircuits import fig62_nand_network
from repro.workloads.fig34 import fig34_network, fig37_fixed_network
from repro.workloads.randomlogic import (
    random_array_network,
    random_mixed_network,
    random_nand_network,
)

pytestmark = pytest.mark.atpg

PARITY_SEED = 2026

DATA_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "data"
)


def stem_targets(net):
    """The named faults of the default ATPG universe, in target order."""
    comp = compile_network(net)
    return list(map(comp.fault, atpg.atpg_targets(comp)))


def stem_ids(net):
    """The collapsed stem universe's fault ids, in id order."""
    return compile_network(net).universe_ids(
        include_pins=False, live_only=False
    )


def scalar_classifications(net, max_backtracks=2000):
    """The reference: one scalar PODEM search per collapsed fault."""
    podem = Podem(net, max_backtracks=max_backtracks)
    out = {}
    for fault in stem_targets(net):
        result = podem.generate_test_ex(fault)
        out[fault.describe()] = (
            "detected" if result.status == "test" else result.status
        )
    return out


def seed_networks():
    return [
        fig34_network(),
        fig37_fixed_network(),
        fig62_nand_network(),
    ]


def random_batch(count=6):
    rng = random.Random(PARITY_SEED)
    nets = []
    for _ in range(count):
        if rng.random() < 0.5:
            nets.append(
                random_nand_network(
                    rng, rng.randint(3, 5), rng.randint(6, 16),
                    n_outputs=rng.randint(1, 2),
                )
            )
        else:
            nets.append(
                random_mixed_network(
                    rng, rng.randint(3, 5), rng.randint(6, 16),
                    n_outputs=rng.randint(1, 2),
                )
            )
    return nets


# ----------------------------------------------------------------------
# the pattern simulator
# ----------------------------------------------------------------------
def table_masks(tables, patterns, faults, pairs=False):
    """Detection masks read off per-fault output truth tables.

    ``tables(fault)`` is the output-table tuple under ``fault`` (``None``
    for the good circuit).  Single mode: bit ``j`` when some output
    differs at pattern ``j``.  Pairs mode: bit ``2j`` when, on some
    output, the good pair ``(2j, 2j+1)`` alternates and the faulty one
    does not.
    """
    good = tables(None)
    masks = []
    for fault in faults:
        bad = tables(fault)
        mask = 0
        if pairs:
            for j in range(0, len(patterns), 2):
                x, y = patterns[j], patterns[j + 1]
                if any(
                    ((g >> x) ^ (g >> y)) & 1
                    and not ((b >> x) ^ (b >> y)) & 1
                    for g, b in zip(good, bad)
                ):
                    mask |= 1 << j
        else:
            for j, p in enumerate(patterns):
                if any(((g ^ b) >> p) & 1 for g, b in zip(good, bad)):
                    mask |= 1 << j
        masks.append(mask)
    return masks


def truth_table_masks(eng, patterns, faults, pairs=False):
    return table_masks(eng.bitmask.output_bits, patterns, faults, pairs)


def reference_pair_masks(net, patterns, faults):
    """Pairs-mode detection masks from the reference interpreter, one
    point at a time."""
    n = len(net.inputs)
    masks = []
    for fault in faults:
        mask = 0
        for j in range(0, len(patterns), 2):
            x, y = (point_tuple(n, p) for p in patterns[j : j + 2])
            good = zip(reference_outputs(net, x), reference_outputs(net, y))
            bad = zip(
                reference_outputs(net, x, fault),
                reference_outputs(net, y, fault),
            )
            if any(
                g0 != g1 and b0 == b1
                for (g0, g1), (b0, b1) in zip(good, bad)
            ):
                mask |= 1 << j
        masks.append(mask)
    return masks


def alternating(patterns, n):
    """``[X0, ~X0, X1, ~X1, ...]`` over ``n`` inputs."""
    full = (1 << n) - 1
    return [q for p in patterns for q in (p, p ^ full)]


class TestPatternSeam:
    def test_pack_pattern_masks_bit_convention(self):
        # patterns 0b01, 0b10, 0b11 over two inputs: mask i's bit j is
        # input i under pattern j.
        masks = pack_pattern_masks([1, 2, 3], 2)
        assert masks == [0b101, 0b110]

    @pytest.mark.parametrize(
        "backend", ["stem-region", "bitmask", "pointwise"]
    )
    def test_rungs_match_truth_tables(self, backend, fig34):
        """Every pattern of the exhaustive space, every stem and pin
        fault: the masks equal the ones read off each sweep rung's own
        output tables."""
        eng = NetworkEngine(fig34)
        n = len(fig34.inputs)
        patterns = list(range(1 << n))
        if backend == "stem-region":

            def tables(fault):
                if fault is None:
                    return eng.bitmask.output_bits()
                return eng.bitmask.region_output_bits(fault)

        elif backend == "bitmask":
            tables = eng.bitmask.output_bits
        else:

            def tables(fault):
                vectors = eng.pointwise.output_vectors(patterns, fault)
                return tuple(
                    sum(v[k] << p for p, v in enumerate(vectors))
                    for k in range(len(fig34.outputs))
                )

        faults = enumerate_single_faults(fig34)
        for pairs in (False, True):
            pats = alternating(patterns, n) if pairs else patterns
            assert pattern_detections(
                eng.compiled, pats, faults, pairs
            ) == table_masks(tables, pats, faults, pairs), pairs

    def test_zero_output_net_gives_one_row_per_fault(self):
        net = Network(
            ["a", "b"], [Gate("g", GateKind.AND, ("a", "b"))], [],
            name="no_outputs",
        )
        eng = engine_for(net)
        faults = [StuckAt(line, v) for line in net.lines() for v in (0, 1)]
        for pairs in (False, True):
            masks = pattern_detections(eng.compiled, [0, 3], faults, pairs)
            assert masks == [0] * len(faults)

    def test_partial_unordered_patterns(self, fig34):
        eng = engine_for(fig34)
        n = len(fig34.inputs)
        rng = random.Random(5)
        patterns = [rng.randrange(1 << n) for _ in range(11)]
        faults = enumerate_single_faults(fig34)
        for pairs in (False, True):
            pats = alternating(patterns, n) if pairs else patterns
            assert pattern_detections(
                eng.compiled, pats, faults, pairs
            ) == truth_table_masks(eng, pats, faults, pairs)

    def test_multiword_pattern_lists(self):
        """More than 64 patterns, with repeats."""
        rng = random.Random(17)
        net = random_mixed_network(rng, 6, 20, n_outputs=2)
        eng = engine_for(net)
        patterns = [rng.randrange(1 << 6) for _ in range(150)]
        assert len(set(patterns)) < len(patterns)
        faults = enumerate_single_faults(net)
        for pairs in (False, True):
            pats = alternating(patterns, 6) if pairs else patterns
            assert pattern_detections(
                eng.compiled, pats, faults, pairs
            ) == truth_table_masks(eng, pats, faults, pairs)

    @pytest.mark.parametrize("index", range(4))
    def test_pairs_match_reference_interpreter(self, index):
        rng = random.Random(f"pairs:{index}")
        n = rng.randint(3, 6)
        net = random_mixed_network(rng, n, rng.randint(8, 20), n_outputs=2)
        patterns = alternating([rng.randrange(1 << n) for _ in range(6)], n)
        faults = enumerate_single_faults(net)
        masks = pattern_detections(
            NetworkEngine(net).compiled, patterns, faults, pairs=True
        )
        assert masks == reference_pair_masks(net, patterns, faults)
        assert any(masks)

    def test_no_and_one_input_nets(self):
        consts = Network(
            [],
            [Gate("z", GateKind.CONST0, ()), Gate("o", GateKind.CONST1, ())],
            ["z", "o"],
            name="consts",
        )
        inverter = Network(
            ["a"], [Gate("na", GateKind.NOT, ("a",))], ["na", "a"],
            name="inverter",
        )
        for net, patterns in ((consts, [0, 0, 0]), (inverter, [1, 0, 1])):
            eng = NetworkEngine(net)
            faults = enumerate_single_faults(net)
            for pairs in (False, True):
                pats = patterns[:2] if pairs else patterns
                assert pattern_detections(
                    eng.compiled, pats, faults, pairs
                ) == truth_table_masks(eng, pats, faults, pairs)

    def test_repeated_pin_reads(self):
        """``AND(a, a)``: a fault on one pin forces only that operand."""
        net = Network(
            ["a", "b"],
            [
                Gate("g", GateKind.AND, ("a", "a")),
                Gate("h", GateKind.OR, ("g", "b")),
            ],
            ["h"],
            name="and_aa",
        )
        eng = NetworkEngine(net)
        faults = [
            PinStuckAt("g", pin, v) for pin in (0, 1) for v in (0, 1)
        ] + [PinStuckAt("h", 1, 1)]
        patterns = [0, 1, 2, 3]
        masks = pattern_detections(eng.compiled, patterns, faults)
        assert masks == truth_table_masks(eng, patterns, faults)
        # g pin s/0 detected at a=1, b=0 (pattern 1); pin s/1 never
        # (the other pin still reads a); h's b pin s/1 wherever a=b=0.
        assert masks == [0b0010, 0, 0b0010, 0, 0b0001]

    def test_multiple_faults_and_absent_lines(self, fig34):
        eng = NetworkEngine(fig34)
        lines = sorted(fig34.lines())
        faults = [
            MultipleFault((StuckAt(lines[0], 1), StuckAt(lines[3], 0))),
            MultipleFault(
                (StuckAt(lines[1], 0), PinStuckAt(fig34.gates[2].name, 0, 1))
            ),
            StuckAt("no_such_line", 1),
            MultipleFault((StuckAt("no_such_line", 0), StuckAt(lines[2], 1))),
        ]
        patterns = list(range(1 << len(fig34.inputs)))
        for pairs in (False, True):
            pats = alternating(patterns, len(fig34.inputs)) if pairs else (
                patterns
            )
            masks = pattern_detections(eng.compiled, pats, faults, pairs)
            assert masks == truth_table_masks(eng, pats, faults, pairs)
            assert masks[2] == 0

    def test_universe_spans_several_fault_blocks(self):
        """1,000 patterns leave room for 65 faults per block: the
        universe takes three blocks, the last one short."""
        rng = random.Random(29)
        net = random_mixed_network(rng, 5, 24, n_outputs=2)
        eng = engine_for(net)
        faults = enumerate_single_faults(net)[:150]
        assert len(faults) > 2 * 65
        patterns = [rng.randrange(1 << 5) for _ in range(1000)]
        assert pattern_detections(
            eng.compiled, patterns, faults
        ) == truth_table_masks(eng, patterns, faults)


# ----------------------------------------------------------------------
# the test sets the driver reads off the exhaustive tables
# ----------------------------------------------------------------------
class TestDetectionMasks:
    """``BitmaskBackend.detection_mask`` against the reference
    interpreter, point by point: every single fault (stem-region path),
    multiple faults (cone path) and an absent line, in both modes."""

    @pytest.mark.parametrize(
        "index", range(len(seed_networks()) + len(random_batch()) + 3)
    )
    def test_masks_match_reference(self, index):
        from repro.qa.reference import reference_output_bits

        net = (seed_networks() + random_batch() + edge_networks())[index]
        n = len(net.inputs)
        lines = sorted(net.lines())
        faults = list(enumerate_single_faults(net)) + [
            MultipleFault((StuckAt(lines[0], 1), StuckAt(lines[-1], 0))),
            StuckAt("no_such_line", 1),
        ]
        tables = NetworkEngine(net).bitmask
        good = reference_output_bits(net)
        anchors = range(1 << max(n - 1, 0))
        for fault in faults:
            single = 0
            for g, b in zip(good, reference_output_bits(net, fault)):
                single |= g ^ b
            assert tables.detection_mask(fault) == single, fault
            (pair_bits,) = reference_pair_masks(
                net, alternating(anchors, n), [fault]
            )
            pairs = sum(
                1 << x for x in anchors if pair_bits >> (2 * x) & 1
            )
            assert tables.detection_mask(fault, pairs=True) == pairs, fault


# ----------------------------------------------------------------------
# classification parity: driver == scalar PODEM per collapsed fault
# ----------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("index", range(3))
    @pytest.mark.parametrize("engine", ["auto", "bitmask"])
    def test_seed_circuits(self, index, engine):
        """``auto`` lets ``run_atpg`` pick its engine; ``bitmask`` hands
        it a fresh ``NetworkEngine`` and checks every verdict against
        that engine's exhaustive bitmask output tables: each detected
        fault's kept pattern detects it, and no input point detects a
        redundant one."""
        net = seed_networks()[index]
        expected = scalar_classifications(net)
        eng = NetworkEngine(net) if engine == "bitmask" else None
        report = run_atpg(net, engine=eng)
        assert report.classifications == expected
        assert report.requested == len(expected)
        detected = {
            name
            for name, status in report.classifications.items()
            if status == "detected"
        }
        assert set(report.detected_by) == detected
        assert all(
            0 <= i < report.patterns_kept
            for i in report.detected_by.values()
        )
        if eng is None:
            return
        faults = stem_targets(net)
        everywhere = list(range(1 << len(net.inputs)))
        masks = truth_table_masks(eng, everywhere, faults)
        for fault, mask in zip(faults, masks):
            name = fault.describe()
            if name in report.detected_by:
                kept = report.patterns[report.detected_by[name]]
                assert (mask >> kept) & 1, name
            elif report.classifications[name] == "redundant":
                assert mask == 0, name

    @pytest.mark.parametrize("index", range(6))
    def test_fixed_seed_random_batch(self, index):
        net = random_batch()[index]
        report = run_atpg(net)
        assert report.classifications == scalar_classifications(net)

    def test_packed_fallback_when_vectorized_absent(self, fig34, monkeypatch):
        """Pattern simulation is the packed big-int path: with NumPy
        unimportable a fresh engine yields the shared engine's report."""
        import sys

        monkeypatch.setitem(sys.modules, "numpy", None)
        packed = run_atpg(fig34, engine=NetworkEngine(fig34)).to_dict()
        shared = run_atpg(fig34).to_dict()
        for data in (packed, shared):
            del data["wall_seconds"]
        assert packed == shared
        assert packed["classifications"] == scalar_classifications(fig34)

    def test_wide_net_stays_on_bitmask_rung(self):
        """Pattern simulation packs only the pattern list onto big ints,
        so the 25-input exhaustive ceiling must not stop a 30-input
        run."""
        from .test_engine import TestWideInputGuard

        net = TestWideInputGuard()._wide_net()
        compiled = compile_network(net)
        ids = compiled.universe_ids(collapse=False)[:8]
        faults = list(map(compiled.fault, ids))
        report = run_atpg(net, faults=faults)
        podem = Podem(net)
        statuses = [podem.generate_test_ex(f).status for f in faults]
        assert report.classifications == {
            f.describe(): "detected" if status == "test" else status
            for f, status in zip(faults, statuses)
        }


# ----------------------------------------------------------------------
# driver semantics: determinism, dropping, compaction, pairs, deadlines
# ----------------------------------------------------------------------
class TestDriver:
    def test_deterministic(self, fig34):
        a = run_atpg(fig34)
        b = run_atpg(fig34)
        assert a.patterns == b.patterns
        assert a.classifications == b.classifications
        assert a.detected_by == b.detected_by

    def test_dropping_saves_podem_searches(self, fig34):
        dropping = run_atpg(fig34)
        reference = run_atpg(fig34, drop=False, compact=False)
        assert dropping.classifications == reference.classifications
        assert dropping.targets < reference.targets
        assert dropping.dropped > 0
        assert reference.dropped == 0
        assert reference.patterns_kept == reference.detected

    def test_compaction_preserves_coverage(self, fig34):
        compacted = run_atpg(fig34)
        loose = run_atpg(fig34, compact=False)
        assert compacted.classifications == loose.classifications
        assert compacted.patterns_kept <= loose.patterns_kept
        # Every pattern the compacted report credits must really detect
        # the fault it covers, per the reference interpreter.
        n = len(fig34.inputs)
        universe = {f.describe(): f for f in stem_targets(fig34)}
        for name, index in compacted.detected_by.items():
            point = point_tuple(n, compacted.patterns[index])
            assert reference_outputs(
                fig34, point, universe[name]
            ) != reference_outputs(fig34, point), name

    def test_pairs_mode_emits_alternating_pairs(self, fig37):
        report = run_atpg(fig37, pairs=True)
        assert report.pairs
        # fig3.7 is the thesis's repaired self-checking network: every
        # collapsed fault is pair-testable.
        assert report.detected == report.requested
        n = len(fig37.inputs)
        universe = {f.describe(): f for f in stem_targets(fig37)}
        for name, index in report.detected_by.items():
            pair = alternating([report.patterns[index]], n)
            assert reference_pair_masks(fig37, pair, [universe[name]]) == [1]

    def test_candidate_budget_one_matches_scalar_patterns(self, fig34):
        """candidates=1 + no dropping is exactly the scalar generator:
        pattern k is the zero-filled test of the k-th surviving target."""
        report = run_atpg(fig34, drop=False, compact=False, candidates=1)
        podem = Podem(fig34)
        names = list(fig34.inputs)
        for fault in stem_targets(fig34):
            result = podem.generate_test_ex(fault)
            if result.status != "test":
                continue
            index = report.detected_by[fault.describe()]
            point = sum(
                (result.test[name] & 1) << i
                for i, name in enumerate(names)
            )
            assert report.patterns[index] == point

    def test_target_timeout_classifies_aborted(self, fig34):
        """The deadline bounds PODEM searches, which run above the
        whole-table cut; below it nothing is searched, so nothing
        aborts."""
        net = ripple_adder_network(10)
        faults = stem_ids(net)[:6]  # searched targets may be fault ids
        report = run_atpg(net, faults=faults, target_timeout=1e-12)
        assert report.aborted == report.requested == 6
        assert report.patterns == ()
        narrow = run_atpg(fig34, target_timeout=1e-12)
        assert narrow.aborted == 0
        assert narrow.classifications == run_atpg(fig34).classifications

    def test_report_shape_and_coverage(self, fig34):
        report = run_atpg(fig34)
        assert isinstance(report, AtpgReport)
        assert 0.0 <= report.coverage() <= 1.0
        data = report.to_dict()
        assert data["coverage"] == report.coverage()
        json.dumps(data)  # JSON-serializable end to end
        assert "patterns kept" in report.summary()

    def test_repeated_faults_counted_once(self, fig34):
        """A repeated fault is requested once, so the counts tile the
        universe."""
        fault = StuckAt(sorted(fig34.lines())[0], 0)
        other = StuckAt(sorted(fig34.lines())[1], 1)
        report = run_atpg(fig34, faults=[fault, other, fault, fault])
        assert report.requested == 2
        assert (
            report.detected + report.redundant + report.aborted
            == report.requested
        )
        assert list(report.classifications) == [
            fault.describe(), other.describe()
        ]
        assert report == dataclasses.replace(
            run_atpg(fig34, faults=[fault, other]),
            wall_seconds=report.wall_seconds,
        )

    def test_explicit_fault_universe(self, fig34):
        line = sorted(fig34.lines())[0]
        faults = [StuckAt(line, 0), StuckAt(line, 1)]
        report = run_atpg(fig34, faults=faults)
        assert report.requested == 2
        assert set(report.classifications) == {
            f.describe() for f in faults
        }

    def test_invalid_arguments_rejected(self, fig34):
        with pytest.raises(ValueError):
            run_atpg(fig34, candidates=0)


# ----------------------------------------------------------------------
# redundancy from the exhaustive tables, before any search
# ----------------------------------------------------------------------
def count_searches(monkeypatch):
    """Wrap ``Podem.generate_test_ex``; the list grows one per call."""
    calls = []
    search = Podem.generate_test_ex

    def counting(self, fault, deadline=None):
        calls.append(fault)
        return search(self, fault, deadline)

    monkeypatch.setattr(Podem, "generate_test_ex", counting)
    return calls


def searched_only(net, monkeypatch, **kwargs):
    """``run_atpg`` with the table check off (the cut below every width),
    so every target gets its PODEM search; ``to_dict`` minus wall time."""
    with monkeypatch.context() as patch:
        patch.setattr(atpg, "UNTILED_MAX_INPUTS", -1)
        data = run_atpg(net, engine=NetworkEngine(net), **kwargs).to_dict()
    del data["wall_seconds"]
    return data


def assert_credits_detect(net, report):
    """Every detected fault's credited pattern (or pair) detects it per
    the reference interpreter."""
    faults = {f.describe(): f for f in enumerate_single_faults(net)}
    n = len(net.inputs)
    for name, index in report.detected_by.items():
        pattern = report.patterns[index]
        if report.pairs:
            pair = alternating([pattern], n)
            assert reference_pair_masks(net, pair, [faults[name]]) == [1]
        else:
            point = point_tuple(n, pattern)
            assert reference_outputs(
                net, point, faults[name]
            ) != reference_outputs(net, point), name


def edge_networks():
    """No inputs; one input; outputs that are constant, by a constant
    gate and by ``a AND NOT a``."""
    consts = Network(
        [],
        [Gate("z", GateKind.CONST0, ()), Gate("o", GateKind.CONST1, ())],
        ["z", "o"],
        name="consts",
    )
    inverter = Network(
        ["a"], [Gate("na", GateKind.NOT, ("a",))], ["na", "a"],
        name="inverter",
    )
    constant = Network(
        ["a", "b"],
        [
            Gate("na", GateKind.NOT, ("a",)),
            Gate("k", GateKind.AND, ("a", "na")),
            Gate("y", GateKind.OR, ("k", "b")),
            Gate("one", GateKind.CONST1, ()),
        ],
        ["y", "k", "one"],
        name="constant_outputs",
    )
    return [consts, inverter, constant]


class TestTableRedundancy:
    """Up to ``UNTILED_MAX_INPUTS`` inputs a dropping run takes every
    verdict and test from the exhaustive tables and searches nothing;
    its single-mode verdicts are those of searching every target, and
    in ``pairs`` mode a fault with no detecting pair is redundant."""

    @pytest.fixture
    def array6(self):
        return load_bench(os.path.join(DATA_DIR, "array6.bench"))

    @pytest.mark.parametrize("pairs", [False, True])
    def test_redundant_targets_skip_the_search(
        self, array6, monkeypatch, pairs
    ):
        searched = searched_only(array6, monkeypatch, pairs=pairs)
        calls = count_searches(monkeypatch)
        report = run_atpg(array6, engine=NetworkEngine(array6), pairs=pairs)
        assert calls == []
        assert report.aborted == 0
        assert report.targets == report.patterns_generated + report.redundant
        assert_credits_detect(array6, report)
        if not pairs:
            assert report.classifications == searched["classifications"]
            assert report.redundant == 5
            assert report.patterns_kept <= searched["patterns_kept"]
            return
        # The search reads 7 pair-untestable faults as aborted: 6 have no
        # detecting pair at all, and a2 s/0 has 496.
        aborted = sorted(
            name
            for name, status in searched["classifications"].items()
            if status == "aborted"
        )
        assert len(aborted) == 7
        for name, status in searched["classifications"].items():
            expected = "redundant" if name in aborted else status
            if name == "a2 s/0":
                expected = "detected"
            assert report.classifications[name] == expected, name
        assert report.redundant == 11
        fault = StuckAt("a2", 0)
        mask = NetworkEngine(array6).bitmask.detection_mask(fault, True)
        assert bin(mask).count("1") == 496

    @pytest.mark.parametrize("pairs", [False, True])
    def test_podem_abort_becomes_redundant(self, array6, pairs):
        """The one allowed change: a redundant target PODEM aborts on
        under a small backtrack budget is now proved by the tables."""
        fault = StuckAt("g27", 1)
        podem = Podem(array6, max_backtracks=3)
        assert podem.generate_test_ex(fault).status == "aborted"
        report = run_atpg(
            array6, faults=[fault], max_backtracks=3, pairs=pairs
        )
        assert report.classifications == {"g27 s/1": "redundant"}
        assert report.aborted == 0

    def test_wide_net_builds_no_table(self):
        """Above the cut every target is searched and no whole table is
        derived."""
        net = ripple_adder_network(10)
        assert len(net.inputs) == 21
        eng = NetworkEngine(net)
        ids = stem_ids(net)[:12]
        faults = list(map(eng.compiled.fault, ids))
        report = run_atpg(net, faults=ids, engine=eng)
        assert eng.bitmask._baseline is None
        podem = Podem(net)
        statuses = [podem.generate_test_ex(f).status for f in faults]
        assert report.classifications == {
            f.describe(): "detected" if status == "test" else status
            for f, status in zip(faults, statuses)
        }

    @pytest.mark.parametrize("pairs", [False, True])
    def test_searches_start_above_the_cut(self, monkeypatch, pairs):
        """A dropping run makes no PODEM call at 20 inputs and searches
        every target at 21."""
        for n_inputs in (20, 21):
            net = random_mixed_network(
                random.Random(n_inputs), n_inputs, 10, n_outputs=2
            )
            assert len(net.inputs) == n_inputs
            calls = count_searches(monkeypatch)
            report = run_atpg(net, pairs=pairs)
            assert report.detected > 0
            if n_inputs == 20:
                assert calls == []
            else:
                assert len(calls) == report.targets

    @pytest.mark.parametrize("index", range(3))
    @pytest.mark.parametrize("pairs", [False, True])
    @pytest.mark.parametrize("collapse", [True, False])
    def test_edge_nets_match_the_searches(
        self, index, pairs, collapse, monkeypatch
    ):
        """Every verdict a search completes is the tables' verdict, and
        nothing aborts: in ``pairs`` mode the search's anomalies are
        pair-redundant faults."""
        net = edge_networks()[index]
        report = run_atpg(
            net, engine=NetworkEngine(net), pairs=pairs, collapse=collapse
        )
        searched = searched_only(
            net, monkeypatch, pairs=pairs, collapse=collapse
        )
        assert report.aborted == 0
        for name, status in searched["classifications"].items():
            assert report.classifications[name] == (
                "redundant" if status == "aborted" else status
            ), name
        assert_credits_detect(net, report)

    def test_flight_splits_table_proofs_from_searches(
        self, tmp_path, capsys
    ):
        from repro import obs
        from repro.obs.stats import render, summarize

        flight = str(tmp_path / "flight.jsonl")
        metrics = str(tmp_path / "metrics.prom")
        path = os.path.join(DATA_DIR, "array6.bench")
        assert main(
            ["atpg", path, "--trace-out", flight, "--metrics-out", metrics]
        ) == 0
        capsys.readouterr()
        events = list(obs.read_flight(flight))
        vias = [
            (e["attrs"]["via"], e["attrs"]["status"])
            for e in events
            if e.get("name") == "atpg.target"
        ]
        assert len(vias) == 11
        assert vias.count(("table", "redundant")) == 5
        assert vias.count(("table", "test")) == 6
        summary = summarize(events)
        assert summary["atpg_targets"]["table"] == 11
        assert summary["atpg_targets"]["podem"] == 0
        assert "(11 decided by the tables, 0 PODEM searches)" in render(
            summary
        )
        samples = obs.parse_prometheus(open(metrics).read())
        assert samples["repro_atpg_targets_total"][
            (("status", "redundant"),)
        ] == 5
        # Older flights carry no ``via``: every target was a search.
        for event in events:
            event.get("attrs", {}).pop("via", None)
        assert summarize(events)["atpg_targets"]["podem"] == 11

    def test_tables_and_podem_both_find_the_even_min_test(self):
        """On the golden grid's ``mixed-5`` net ``g1 s/0`` changes
        ``g14`` at ``x3=1, x0=x1=x4=0``.  PODEM finds a detecting vector
        only if it evaluates the net's even-arity MIN as a threshold, not
        as ``1 - MAJ``; the tables detect it too."""
        from tests.test_podem_golden import grid_networks

        net = grid_networks()["mixed-5"]
        fault = StuckAt("g1", 0)
        result = Podem(net).generate_test_ex(fault)
        assert result.status == "test"
        vector = tuple(result.test[name] for name in net.inputs)
        assert reference_outputs(net, vector, fault) != reference_outputs(
            net, vector
        )
        point = (0, 0, 0, 1, 0)
        assert reference_outputs(net, point, fault) != reference_outputs(
            net, point
        )
        report = run_atpg(net)
        assert report.classifications["g1 s/0"] == "detected"
        assert_credits_detect(net, report)

    def test_absent_fault_site_still_refused(self, fig34):
        """A fault on no line of the net changes no table; it still goes
        to PODEM, which refuses it, instead of reading as redundant."""
        with pytest.raises(KeyError):
            run_atpg(fig34, faults=[StuckAt("no_such_line", 0)])


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
class TestAtpgCli:
    @pytest.fixture
    def fig34_bench(self, tmp_path):
        path = os.path.join(tmp_path, "fig34.bench")
        save_bench(fig34_network(), path)
        return path

    def test_basic_run(self, fig34_bench, capsys):
        assert main(["atpg", fig34_bench]) == 0
        out = capsys.readouterr().out
        assert "detected" in out and "patterns kept" in out

    def test_json_matches_driver(self, fig34_bench, capsys):
        assert main(["atpg", fig34_bench, "--json", "--report"]) == 0
        data = json.loads(capsys.readouterr().out)
        expected = run_atpg(fig34_network())
        assert data["classifications"] == expected.classifications
        assert data["detected"] == expected.detected
        assert data["patterns"] == list(expected.patterns)

    def test_report_lists_patterns(self, fig34_bench, capsys):
        assert main(["atpg", fig34_bench, "--report"]) == 0
        assert "pattern 0:" in capsys.readouterr().out

    def test_flags_route_through(self, fig34_bench, capsys):
        assert (
            main(
                [
                    "atpg", fig34_bench, "--no-collapse", "--no-drop",
                    "--no-compact", "--json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["dropped"] == 0
        # raw (uncollapsed) stem universe is strictly larger
        assert data["requested"] > run_atpg(fig34_network()).requested

    def test_trace_out_flight_renders(self, fig34_bench, tmp_path, capsys):
        flight = os.path.join(tmp_path, "flight.jsonl")
        assert main(["atpg", fig34_bench, "--trace-out", flight]) == 0
        capsys.readouterr()
        assert main(["stats", flight]) == 0
        out = capsys.readouterr().out
        assert "atpg:" in out and "PODEM searches" in out

    def test_bad_flags_rejected(self, fig34_bench):
        with pytest.raises(SystemExit):
            main(["atpg", fig34_bench, "--timeout", "0"])
        with pytest.raises(SystemExit):
            main(["atpg", fig34_bench, "--candidates", "0"])


class TestCommittedBatch:
    """The committed random-logic batch (``examples/data/array*.bench``:
    array10 and array11 are the BENCH_atpg workload, array6 the
    table-check net) stays reproducible and fully covered."""

    def test_batch_regenerates_from_pinned_seeds(self):
        for stages, seed in ((6, 5), (10, 0), (11, 1)):
            net = random_array_network(
                random.Random(f"array:{stages}:{seed}"),
                stages,
                name=f"array{stages}",
            )
            loaded = load_bench(
                os.path.join(DATA_DIR, f"array{stages}.bench")
            )
            assert loaded.inputs == net.inputs
            assert loaded.outputs == net.outputs
            assert [
                (g.name, g.kind, g.inputs) for g in loaded.gates
            ] == [(g.name, g.kind, g.inputs) for g in net.gates]

    def test_cli_coverage_equals_detectable_count(self, capsys):
        """Acceptance bar: ``python -m repro atpg`` on the committed
        batch detects exactly the faults the block backend can
        distinguish from the good circuit.  With zero aborts,
        ``detected == detectable`` reduces to checking that every
        redundant-claimed fault is truly undetectable — so only those
        few faults need the exhaustive 2^21-point sweep."""
        path = os.path.join(DATA_DIR, "array10.bench")
        assert main(["atpg", path, "--json", "--report"]) == 0
        data = json.loads(capsys.readouterr().out)
        net = load_bench(path)
        universe = stem_targets(net)
        assert data["aborted"] == 0
        assert data["requested"] == len(universe)
        assert data["detected"] + data["redundant"] == data["requested"]
        redundant = {
            name
            for name, status in data["classifications"].items()
            if status == "redundant"
        }
        assert len(redundant) == data["redundant"]
        bitmask = engine_for(net).bitmask
        baseline = bitmask.output_bits(None)
        for fault in universe:
            if fault.describe() in redundant:
                assert bitmask.output_bits(fault) == baseline, (
                    f"{fault.describe()} claimed redundant but detectable"
                )
