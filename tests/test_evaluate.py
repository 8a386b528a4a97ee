"""Tests for exhaustive evaluation and fault injection (repro.logic.evaluate)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.evaluate import (
    evaluate_with_fault,
    functionally_equivalent,
    line_tables,
    network_function,
    output_tables,
    outputs_with_fault,
    sampled_output_vectors,
)
from repro.logic.faults import PinStuckAt, StuckAt
from repro.logic.gates import GateKind
from repro.logic.network import NetworkBuilder
from repro.qa.reference import point_tuple, reference_line_values
from repro.workloads.randomlogic import random_mixed_network


class TestRandomMixedKinds:
    """``random_mixed_network`` honours each gate's arity rule."""

    @pytest.mark.parametrize("max_fan_in", [3, 4, 5, 6])
    def test_majority_fan_in_is_odd(self, max_fan_in):
        kinds = (GateKind.MAJ, GateKind.AND, GateKind.BUF, GateKind.NOT)
        for seed in range(20):
            net = random_mixed_network(
                random.Random(seed), 5, 12, kinds=kinds, max_fan_in=max_fan_in
            )
            fan_ins = {
                len(gate.inputs)
                for gate in net.gates
                if gate.kind is GateKind.MAJ
            }
            assert all(k % 2 == 1 and 3 <= k <= max_fan_in for k in fan_ins)

    def test_majority_wide_fan_in_is_drawn(self):
        fan_ins = set()
        for seed in range(20):
            net = random_mixed_network(
                random.Random(seed), 6, 10, kinds=(GateKind.MAJ,), max_fan_in=5
            )
            fan_ins |= {len(gate.inputs) for gate in net.gates}
        assert fan_ins == {3, 5}

    def test_majority_needs_three_inputs(self):
        with pytest.raises(ValueError, match="MAJ"):
            random_mixed_network(
                random.Random(0), 2, 4, kinds=(GateKind.MAJ,)
            )


class TestLineTables:
    def test_tables_match_pointwise(self, rng):
        for _ in range(10):
            net = random_mixed_network(rng, 3, 6, n_outputs=2)
            tables = line_tables(net)
            for point in range(8):
                values = reference_line_values(net, point_tuple(3, point))
                for line, table in tables.items():
                    assert table.value(point) == values[line], line

    def test_faulty_tables_match_pointwise(self, rng):
        for _ in range(10):
            net = random_mixed_network(rng, 3, 6)
            lines = list(net.lines())
            fault = StuckAt(rng.choice(lines), rng.randint(0, 1))
            tables = line_tables(net, fault)
            for point in range(8):
                assign = net.assignment_from_index(point)
                values = evaluate_with_fault(net, assign, fault)
                for line, table in tables.items():
                    assert table.value(point) == values[line]

    def test_pin_fault_differs_from_stem(self):
        b = NetworkBuilder(["a"])
        n1 = b.add("n1", GateKind.NOT, ["a"])
        b.add("o1", GateKind.NOT, [n1])
        b.add("o2", GateKind.BUF, [n1])
        net = b.build(["o1", "o2"])
        stem = output_tables(net, StuckAt("n1", 0))
        pin = output_tables(net, PinStuckAt("o1", 0, 0))
        # Stem fault hits both outputs, pin fault only o1.
        assert stem["o2"].is_zero()
        assert pin["o2"].bits == output_tables(net)["o2"].bits
        assert pin["o1"].is_one()

    def test_input_stem_fault(self):
        b = NetworkBuilder(["a"])
        b.add("n", GateKind.BUF, ["a"])
        net = b.build(["n"])
        t = output_tables(net, StuckAt("a", 1))
        assert t["n"].is_one()


class TestNetworkFunction:
    def test_single_output(self):
        b = NetworkBuilder(["a", "b"])
        b.add("n", GateKind.AND, ["a", "b"])
        net = b.build(["n"])
        assert network_function(net).minterms() == [3]

    def test_requires_output_name_for_multi(self, rng):
        net = random_mixed_network(rng, 2, 4, n_outputs=2)
        with pytest.raises(ValueError):
            network_function(net)
        assert network_function(net, net.outputs[0]) is not None


class TestPointwiseFaults:
    def test_outputs_with_fault(self):
        b = NetworkBuilder(["a", "b"])
        b.add("n", GateKind.AND, ["a", "b"])
        net = b.build(["n"])
        assert outputs_with_fault(net, {"a": 1, "b": 1}, StuckAt("n", 0)) == (0,)
        assert outputs_with_fault(net, {"a": 1, "b": 1}) == (1,)

    def test_sampled_vectors(self):
        b = NetworkBuilder(["a", "b"])
        b.add("n", GateKind.XOR, ["a", "b"])
        net = b.build(["n"])
        outs = sampled_output_vectors(net, [0, 1, 2, 3])
        assert outs == [(0,), (1,), (1,), (0,)]


class TestEquivalence:
    def test_identical_networks(self, rng):
        net = random_mixed_network(rng, 3, 5, n_outputs=2)
        assert functionally_equivalent(net, net)

    def test_renamed_outputs_still_equivalent(self):
        b1 = NetworkBuilder(["a", "b"])
        b1.add("x", GateKind.AND, ["a", "b"])
        n1 = b1.build(["x"])
        b2 = NetworkBuilder(["a", "b"])
        b2.add("y", GateKind.AND, ["b", "a"])
        n2 = b2.build(["y"])
        assert functionally_equivalent(n1, n2)

    def test_input_order_irrelevant(self):
        b1 = NetworkBuilder(["a", "b"])
        b1.add("x", GateKind.AND, ["a", "a"])
        n1 = b1.build(["x"])
        b2 = NetworkBuilder(["b", "a"])
        b2.add("y", GateKind.AND, ["a"])
        n2 = b2.build(["y"])
        assert functionally_equivalent(n1, n2)

    def test_different_functions_not_equivalent(self):
        b1 = NetworkBuilder(["a", "b"])
        b1.add("x", GateKind.AND, ["a", "b"])
        n1 = b1.build(["x"])
        b2 = NetworkBuilder(["a", "b"])
        b2.add("y", GateKind.OR, ["a", "b"])
        n2 = b2.build(["y"])
        assert not functionally_equivalent(n1, n2)

    def test_different_input_sets_not_equivalent(self):
        b1 = NetworkBuilder(["a"])
        b1.add("x", GateKind.NOT, ["a"])
        n1 = b1.build(["x"])
        b2 = NetworkBuilder(["c"])
        b2.add("x", GateKind.NOT, ["c"])
        n2 = b2.build(["x"])
        assert not functionally_equivalent(n1, n2)
