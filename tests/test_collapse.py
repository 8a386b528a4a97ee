"""Tests for structural fault collapsing (repro.core.collapse)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collapse import (
    collapse_faults,
    collapse_stem_faults,
    collapsed_single_faults,
    equivalence_collapse,
)
from repro.engine import FaultSweep, compile_network
from repro.logic.evaluate import line_tables
from repro.logic.faults import (
    MultipleFault,
    PinStuckAt,
    StuckAt,
    enumerate_single_faults,
)
from repro.logic.gates import GateKind
from repro.logic.network import Gate, Network, NetworkBuilder
from repro.logic.parse import parse_expression
from repro.workloads.randomlogic import random_mixed_network


def fault_signature(net, fault):
    """Truth-table fingerprint of a fault's output behaviour."""
    tables = line_tables(net, fault)
    return tuple(tables[o].bits for o in net.outputs)


class TestEquivalence:
    def test_and_gate_input_sa0_equals_output_sa0(self):
        b = NetworkBuilder(["a", "b"])
        b.add("g", GateKind.AND, ["a", "b"])
        net = b.build(["g"])
        classes = equivalence_collapse(net)
        merged = next(
            members
            for members in classes.values()
            if any(
                isinstance(m, StuckAt) and m.line == "g" and m.value == 0
                for m in members
            )
        )
        pin_faults = [m for m in merged if isinstance(m, PinStuckAt)]
        assert len(pin_faults) == 2  # both input pins s-a-0

    def test_not_gate_inversion(self):
        b = NetworkBuilder(["a"])
        b.add("n", GateKind.NOT, ["a"])
        net = b.build(["n"])
        classes = equivalence_collapse(net)
        # a s/0 == n-pin s/0 == n s/1 all one class (single fanout stem).
        target = next(
            members
            for members in classes.values()
            if any(
                isinstance(m, StuckAt) and m.line == "n" and m.value == 1
                for m in members
            )
        )
        assert any(
            isinstance(m, StuckAt) and m.line == "a" and m.value == 0
            for m in target
        )

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_equivalent_faults_have_equal_signatures(self, rnd):
        net = random_mixed_network(rnd, 3, rnd.randint(2, 6))
        for members in equivalence_collapse(net).values():
            signatures = {fault_signature(net, m) for m in members}
            assert len(signatures) == 1, members


class TestCollapse:
    def test_reduces_fault_count(self):
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        report = collapse_faults(net)
        assert len(report.representatives) < report.total
        assert 0 < report.collapse_ratio < 1

    def test_dominance_drops_more(self):
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        with_dom = collapse_faults(net, use_dominance=True)
        without = collapse_faults(net, use_dominance=False)
        assert len(with_dom.representatives) < len(without.representatives)
        assert with_dom.dominated_dropped > 0

    def test_dominance_preserves_coverage_on_irredundant_net(self):
        """The irredundant majority network: a test set covering the
        dominance-collapsed representatives covers everything."""
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        report = collapse_faults(net, use_dominance=True)
        normal = line_tables(net)

        def detection_points(fault):
            tables = line_tables(net, fault)
            return {
                p
                for p in range(8)
                if any(
                    tables[o].value(p) != normal[o].value(p)
                    for o in net.outputs
                )
            }

        test_set = set()
        for rep in report.representatives:
            points = detection_points(rep)
            if points:
                test_set.add(min(points))
        for fault in enumerate_single_faults(net, collapse=False):
            points = detection_points(fault)
            if points:
                assert points & test_set, fault.describe()

    @settings(max_examples=15, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_coverage_preserved(self, rnd):
        """A test set detecting every representative detects every
        testable fault of the full universe (on these networks)."""
        net = random_mixed_network(rnd, 3, rnd.randint(2, 5))
        report = collapse_faults(net)  # equivalence-only: safe everywhere
        normal = line_tables(net)

        def detection_points(fault):
            tables = line_tables(net, fault)
            points = set()
            for point in range(1 << len(net.inputs)):
                if any(
                    tables[o].value(point) != normal[o].value(point)
                    for o in net.outputs
                ):
                    points.add(point)
            return points

        # A covering test set: one detection point per representative.
        test_set = set()
        for rep in report.representatives:
            points = detection_points(rep)
            if points:
                test_set.add(min(points))
        # Every testable fault in the full universe must be hit.
        for fault in enumerate_single_faults(net, collapse=False):
            points = detection_points(fault)
            if points:
                assert points & test_set, fault.describe()

    def test_report_counts_consistent(self):
        net = parse_expression("a b | b c", inputs=["a", "b", "c"])
        report = collapse_faults(net, use_dominance=False)
        assert report.equivalence_classes == len(report.representatives)


class TestCompiledCollapse:
    """Edge shapes of the one index-keyed collapse on ``CompiledNetwork``."""

    def test_line_read_twice_counts_two_pins(self):
        net = Network(
            ["a", "b"],
            [
                Gate("d", GateKind.AND, ("a", "a")),
                Gate("y", GateKind.OR, ("d", "b")),
            ],
            ["y"],
        )
        comp = compile_network(net)
        a = comp.index["a"]
        assert len(comp.readers[a]) == 1  # readers de-duplicates...
        assert not comp.branch_folds[a]  # ...the pin count does not
        classes = list(equivalence_collapse(net).values())
        (cls,) = [m for m in classes if StuckAt("d", 0) in m]
        assert cls == [
            StuckAt("d", 0),
            PinStuckAt("d", 0, 0),
            PinStuckAt("d", 1, 0),
            PinStuckAt("y", 0, 0),  # d drives one pin: its branch folds
        ]
        assert [StuckAt("a", 0)] in classes  # a drives two: no fold
        assert PinStuckAt("d", 1, 1) in enumerate_single_faults(net)

    def test_observed_single_pin_line_does_not_fold(self):
        net = Network(
            ["a", "b"],
            [
                Gate("t", GateKind.NAND, ("a", "b")),
                Gate("y", GateKind.NOT, ("t",)),
            ],
            ["y", "t"],
        )
        classes = list(equivalence_collapse(net).values())
        for value in (0, 1):
            (cls,) = [m for m in classes if StuckAt("t", value) in m]
            assert PinStuckAt("y", 0, value) not in cls
        assert PinStuckAt("y", 0, 0) in enumerate_single_faults(net)

    def test_dead_gate_and_unconnected_input_are_dropped(self):
        net = Network(
            ["a", "b", "u"],
            [
                Gate("dead", GateKind.OR, ("a", "b")),
                Gate("deader", GateKind.NOT, ("dead",)),
                Gate("y", GateKind.AND, ("a", "b")),
            ],
            ["y"],
        )
        dead = {"u", "dead", "deader"}

        def sites(faults):
            return {getattr(f, "line", None) or f.gate for f in faults}

        assert sites(collapsed_single_faults(net)).isdisjoint(dead)
        assert sites(FaultSweep(net).single_fault_universe()).isdisjoint(dead)
        assert {"u", "dead"} <= sites(collapse_stem_faults(net))  # no liveness

    def test_zero_gate_net(self):
        net = Network(["a", "b", "u"], [], ["a", "b"])
        comp = compile_network(net)
        assert comp.fault_classes == ((0,), (1,), (2,), (3,), (4,), (5,))
        assert collapsed_single_faults(net) == [
            StuckAt("a", 0), StuckAt("a", 1), StuckAt("b", 0), StuckAt("b", 1)
        ]
        assert collapse_faults(net, use_dominance=True).total == 6

    def test_one_input_net(self):
        net = Network(["a"], [Gate("y", GateKind.NOT, ("a",))], ["y"])
        classes = list(equivalence_collapse(net).values())
        assert classes == [
            [StuckAt("a", 0), StuckAt("y", 1), PinStuckAt("y", 0, 0)],
            [StuckAt("a", 1), StuckAt("y", 0), PinStuckAt("y", 0, 1)],
        ]
        assert collapse_stem_faults(net, include_inputs=False) == [
            StuckAt("y", 1), StuckAt("y", 0)
        ]

    def test_sweeps_share_one_collapse(self):
        net = random_mixed_network(random.Random(7), 5, 14, n_outputs=2)
        first = FaultSweep(net)
        universe = first.single_fault_universe()
        classes = first.compiled.fault_classes
        second = FaultSweep(net)
        assert second.compiled.fault_classes is classes
        assert second.single_fault_universe() == universe
        assert compile_network(net).fault_classes is classes

    def test_resolve_ignores_absent_sites_and_shadows_pins(self):
        net = Network(
            ["a", "b"], [Gate("g", GateKind.AND, ("a", "b"))], ["g"]
        )
        comp = compile_network(net)
        fault = MultipleFault(
            (
                StuckAt("nope", 1),
                PinStuckAt("nope", 0, 1),
                PinStuckAt("a", 0, 1),
                PinStuckAt("g", 5, 1),
                PinStuckAt("g", 1, 0),
            )
        )
        assert comp.resolve(fault) == ({}, {0: [(1, 0)]})
        shadowed = MultipleFault((PinStuckAt("g", 1, 0), StuckAt("g", 1)))
        assert comp.resolve(shadowed) == ({comp.index["g"]: 1}, {})
