"""Tests for structural fault collapsing: ``CompiledNetwork``'s classes
and universe, and the views in repro.core.collapse."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atpg import Podem
from repro.core.collapse import collapse_faults, collapsed_single_faults
from repro.engine import FaultSweep, NetworkEngine, compile_network
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
from repro.qa.reference import reference_output_bits
from repro.workloads.randomlogic import random_mixed_network


def named_classes(net):
    """``fault_classes`` with each fault id written as its name."""
    comp = compile_network(net)
    return [list(map(comp.fault, members)) for members in comp.fault_classes]


def named_universe(net, *args, **kwargs):
    """``universe_ids`` with each fault id written as its name."""
    comp = compile_network(net)
    return list(map(comp.fault, comp.universe_ids(*args, **kwargs)))


def fault_signature(net, fault):
    """Truth-table fingerprint of a fault's output behaviour."""
    tables = line_tables(net, fault)
    return tuple(tables[o].bits for o in net.outputs)


class TestEquivalence:
    def test_and_gate_input_sa0_equals_output_sa0(self):
        b = NetworkBuilder(["a", "b"])
        b.add("g", GateKind.AND, ["a", "b"])
        net = b.build(["g"])
        classes = named_classes(net)
        merged = next(
            members
            for members in classes
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
        classes = named_classes(net)
        # a s/0 == n-pin s/0 == n s/1 all one class (single fanout stem).
        target = next(
            members
            for members in classes
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
        for members in named_classes(net):
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
        for fault in enumerate_single_faults(net):
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
        for fault in enumerate_single_faults(net):
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
        classes = named_classes(net)
        (cls,) = [m for m in classes if StuckAt("d", 0) in m]
        assert cls == [
            StuckAt("d", 0),
            PinStuckAt("d", 0, 0),
            PinStuckAt("d", 1, 0),
            PinStuckAt("y", 0, 0),  # d drives one pin: its branch folds
        ]
        assert [StuckAt("a", 0)] in classes  # a drives two: no fold
        folded = named_universe(net, collapse=False, live_only=False)
        assert PinStuckAt("d", 1, 1) in folded

    def test_observed_single_pin_line_does_not_fold(self):
        net = Network(
            ["a", "b"],
            [
                Gate("t", GateKind.NAND, ("a", "b")),
                Gate("y", GateKind.NOT, ("t",)),
            ],
            ["y", "t"],
        )
        classes = named_classes(net)
        for value in (0, 1):
            (cls,) = [m for m in classes if StuckAt("t", value) in m]
            assert PinStuckAt("y", 0, value) not in cls
        folded = named_universe(net, collapse=False, live_only=False)
        assert PinStuckAt("y", 0, 0) in folded

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
        assert sites(named_universe(net, collapse=False)).isdisjoint(dead)
        stems = named_universe(net, include_pins=False, live_only=False)
        assert {"u", "dead"} <= sites(stems)  # no liveness

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
        classes = named_classes(net)
        assert classes == [
            [StuckAt("a", 0), StuckAt("y", 1), PinStuckAt("y", 0, 0)],
            [StuckAt("a", 1), StuckAt("y", 0), PinStuckAt("y", 0, 1)],
        ]
        assert named_universe(
            net, include_inputs=False, include_pins=False, live_only=False
        ) == [StuckAt("y", 1), StuckAt("y", 0)]

    def test_sweeps_share_one_collapse(self):
        net = random_mixed_network(random.Random(7), 5, 14, n_outputs=2)
        first = FaultSweep(net)
        universe = first.compiled.universe_ids(collapse=False)
        classes = first.compiled.fault_classes
        second = FaultSweep(net)
        assert second.compiled.fault_classes is classes
        assert second.compiled.universe_ids(collapse=False) == universe
        assert compile_network(net).fault_classes is classes

    def test_fault_ids_ignore_absent_sites_and_shadow_pins(self):
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
        # Three lines are stems 0..5; pin 1 of g is pin 1, so id 6 + 2.
        assert comp.fault_ids(fault) == (8,)
        shadowed = MultipleFault((PinStuckAt("g", 1, 0), StuckAt("g", 1)))
        assert comp.fault_ids(shadowed) == (2 * comp.index["g"] + 1,)


class TestFaultIdBoundary:
    """``CompiledNetwork.fault_ids`` is the one place a fault's names are
    read; everything past it sees integer ids."""

    @staticmethod
    def and_net():
        return Network(
            ["a", "b"],
            [
                Gate("g", GateKind.AND, ("a", "b")),
                Gate("h", GateKind.NOT, ("g",)),
            ],
            ["h", "g"],
        )

    def test_each_rule_gives_its_exact_ids(self):
        comp = compile_network(self.and_net())
        # Lines a, b, g, h are stems 0..7; g's pins are 0 and 1 and h's
        # pin is 2, so pin k s-a-v is id 8 + 2k + v.
        cases = {
            # a repeated site: the later part wins
            MultipleFault((StuckAt("a", 0), StuckAt("a", 1))): (1,),
            MultipleFault(
                (PinStuckAt("g", 0, 1), PinStuckAt("g", 0, 0))
            ): (8,),
            # a stem shadows the pins of the gate that drives it
            MultipleFault((PinStuckAt("g", 0, 1), StuckAt("g", 0))): (4,),
            MultipleFault((StuckAt("g", 1), PinStuckAt("h", 0, 0))): (5, 12),
            # an absent line, a pin of an input, an out-of-range slot
            StuckAt("nope", 0): (),
            PinStuckAt("a", 0, 1): (),
            PinStuckAt("g", 2, 0): (),
            PinStuckAt("h", 0, 1): (13,),
            StuckAt("h", 0): (6,),
        }
        for fault, ids in cases.items():
            assert comp.fault_ids(fault) == ids, fault
        for fid in range(2 * (len(comp.names) + len(comp.pin_sites))):
            assert comp.fault_ids(comp.fault(fid)) == (fid,)

    def test_one_live_part_takes_the_stem_region_path(self):
        net = self.and_net()
        bitmask = NetworkEngine(net).bitmask
        fault = MultipleFault((StuckAt("nope", 1), PinStuckAt("g", 1, 0)))
        single = PinStuckAt("g", 1, 0)
        assert bitmask.region_output_bits(fault) == reference_output_bits(
            net, fault
        )
        assert bitmask.response_triple(fault) == bitmask.response_triple(
            single
        )
        cone = FaultSweep(net, engine=NetworkEngine(net)).sweep(
            [fault], backend="vectorized"
        )
        assert FaultSweep(net).sweep([fault]) == cone

    def test_same_ids_share_one_fault_plan(self):
        comp = compile_network(self.and_net())
        single = comp.fault_plan(comp.fault_ids(StuckAt("g", 1)))
        multiple = MultipleFault((StuckAt("g", 1),))
        assert comp.fault_plan(comp.fault_ids(multiple)) is single

    def test_podem_refuses_a_two_site_fault(self):
        fault = MultipleFault((StuckAt("a", 1), StuckAt("b", 1)))
        with pytest.raises(KeyError):
            Podem(self.and_net()).generate_test_ex(fault)
