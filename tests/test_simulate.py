"""Tests for the SCAL oracle (repro.core.simulate)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulate import (
    ScalSimulator,
    canonical_pairs,
    fault_coverage,
    is_scal_network,
)
from repro.engine.compiled import compile_network
from repro.logic.faults import StuckAt
from repro.logic.gates import GateKind
from repro.logic.network import NetworkBuilder
from repro.logic.parse import parse_expression
from repro.logic.truthtable import TruthTable
from repro.workloads.randomlogic import random_alternating_network


class TestFaultResponse:
    def test_healthy_majority_network(self):
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        sim = ScalSimulator(net)
        assert sim.is_alternating()
        verdict = sim.verdict()
        assert verdict.is_self_checking
        assert verdict.fault_count > 0

    def test_output_stem_fault_always_detected(self):
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        sim = ScalSimulator(net)
        for value in (0, 1):
            resp = sim.response(StuckAt(net.outputs[0], value))
            assert resp.is_detected
            assert resp.is_fault_secure
            # A stuck output never alternates: detected at every pair.
            assert resp.detected.is_one()

    def test_input_fault_detected(self):
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        sim = ScalSimulator(net)
        resp = sim.response(StuckAt("a", 0))
        assert resp.is_self_testing
        assert resp.is_fault_secure  # Theorem 3.6: inputs alternate

    def test_violation_classification(self):
        """g = AND(a,b) feeding XOR: g s/1 gives incorrect alternation."""
        from repro.workloads.benchcircuits import fig32_xor_path_network

        net = fig32_xor_path_network()
        sim = ScalSimulator(net)
        resp = sim.response(StuckAt("g", 1))
        assert not resp.is_fault_secure
        pairs = resp.violation_pairs()
        assert pairs  # some undetected wrong pair exists
        # Violations occur where exactly one of a, b is 1.
        for x, _ in pairs:
            a, b = x & 1, (x >> 1) & 1
            assert a != b

    def test_redundant_fault_is_silent(self):
        b = NetworkBuilder(["a"])
        b.add("dead", GateKind.NOT, ["a"])
        b.add("out", GateKind.BUF, ["a"])
        net = b.build(["out"])
        sim = ScalSimulator(net)
        resp = sim.response(StuckAt("dead", 0))
        assert not resp.is_self_testing
        assert resp.is_fault_secure


class TestVerdict:
    def test_untestable_reported(self):
        # g feeds both pins of an XOR, so g XOR g = 0 regardless of g:
        # g is an in-cone line whose faults are untestable both ways.
        b = NetworkBuilder(["a", "b"])
        g = b.add("g", GateKind.AND, ["a", "b"])
        t = b.add("t", GateKind.XOR, [g, g])
        b.add("out", GateKind.OR, ["a", t])
        net = b.build(["out"])
        verdict = ScalSimulator(net).verdict(include_pins=False)
        assert any(
            resp.fault.describe().startswith("g s/")
            for resp in verdict.untestable
        )
        assert not verdict.is_self_checking

    def test_insecure_lines_named(self):
        from repro.workloads.benchcircuits import fig32_xor_path_network

        verdict = ScalSimulator(fig32_xor_path_network()).verdict(
            include_pins=False
        )
        assert "g s/1" in verdict.insecure_lines()

    def test_summary_text(self):
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        text = ScalSimulator(net).verdict().summary()
        assert "SELF-CHECKING" in text

    def test_explicit_fault_list(self):
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        sim = ScalSimulator(net)
        verdict = sim.verdict(faults=[StuckAt("a", 0)])
        assert verdict.fault_count == 1


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_two_level_self_dual_networks_are_scal(self, rnd):
        """Yamamoto's result (quoted after Theorem 3.7): two-level
        self-dual networks with monotonic gates are self-checking."""
        net = random_alternating_network(rnd, 3)
        assert is_scal_network(net)

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_fault_secure_faults_with_wrong_outputs_are_detected(self, rnd):
        """If a fault is fault-secure and affects the output, the point
        of difference must be a nonalternating (detected) pair."""
        net = random_alternating_network(rnd, 3)
        sim = ScalSimulator(net)
        for fault in compile_network(net).universe_ids(collapse=False):
            resp = sim.response(fault)
            if resp.is_fault_secure and resp.is_self_testing:
                assert resp.is_detected


class TestHelpers:
    def test_canonical_pairs(self):
        t = TruthTable(2, 0b1001)  # points 0 and 3 = one pair
        assert canonical_pairs(t) == [(0, 3)]

    def test_fault_coverage_buckets_sum(self):
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        cov = fault_coverage(net)
        assert abs(cov["detected"] + cov["silent"] + cov["dangerous"] - 1.0) < 1e-9
        assert cov["dangerous"] == 0.0

    def test_is_scal_network_rejects_non_self_dual(self):
        net = parse_expression("a & b", inputs=["a", "b"])
        assert not is_scal_network(net)
