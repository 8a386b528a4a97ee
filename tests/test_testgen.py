"""Tests for Theorem 3.2 test generation (repro.core.testgen)."""

from hypothesis import given, settings
from hypothesis import strategies as st

import random

import pytest

from repro.core.simulate import ScalSimulator, canonical_pairs
from repro.core.testgen import all_test_pairs, format_pair, greedy_test_schedule
from repro.core.testgen import test_plan as make_test_plan
from repro.engine import NetworkEngine
from repro.engine.atpg import run_atpg
from repro.logic.faults import StuckAt
from repro.logic.parse import parse_expression
from repro.workloads.benchcircuits import (
    fig32_xor_path_network,
    fig62_nand_network,
    section32_example,
)
from repro.workloads.fig34 import fig34_network, fig37_fixed_network
from repro.workloads.randomlogic import (
    random_alternating_network,
    random_array_network,
)


class TestPlanBasics:
    def test_section_3_2_example(self):
        net, g = section32_example()
        plan = make_test_plan(net, g)
        assert plan.sa0_testable and plan.sa1_testable
        assert plan.sa0_tests() and plan.sa1_tests()

    def test_untestable_direction_detected(self):
        """In Figure 3.2's network, g s/1 has E ≠ 0 (incorrect
        alternation), so Theorem 3.2 declares it untestable."""
        net = fig32_xor_path_network()
        plan = make_test_plan(net, "g")
        # s/0 flips the output in one period only -> testable.
        assert plan.e.is_zero() and plan.sa0_testable
        # s/1 is the direction the figure illustrates: F != 0.
        assert not plan.f.is_zero()
        assert not plan.sa1_testable

    def test_requires_single_output(self, fig34):
        import pytest

        with pytest.raises(ValueError):
            make_test_plan(fig34, "nab")
        plan = make_test_plan(fig34, "nab", output="F3")
        assert plan.output == "F3"


class TestPlanSemantics:
    @settings(max_examples=15, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_generated_tests_detect_the_fault(self, rnd):
        """Every generated test pair must yield a nonalternating faulty
        output — the definition of detection in alternating logic."""
        net = random_alternating_network(rnd, 3)
        out = net.outputs[0]
        sim = ScalSimulator(net)
        for line in net.lines():
            if line == out:
                continue
            plan = make_test_plan(net, line)
            for value in (0, 1):
                tests = plan.tests(value)
                if not (plan.sa0_testable if value == 0 else plan.sa1_testable):
                    continue
                resp = sim.response(StuckAt(line, value))
                for x, _xbar in tests:
                    assert resp.detected.value(x) == 1, (line, value, x)

    @settings(max_examples=15, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_e_points_are_oracle_violations(self, rnd):
        """Theorem 3.2's E mask (A & B) marks exactly the incorrect
        alternating pairs the oracle reports for stuck-at 0."""
        net = random_alternating_network(rnd, 3)
        out = net.outputs[0]
        sim = ScalSimulator(net)
        for line in net.lines():
            if line == out:
                continue
            plan = make_test_plan(net, line)
            resp = sim.response(StuckAt(line, 0))
            e_pairs = plan.e | plan.e.co_reflect()
            assert e_pairs.bits == resp.violations.bits, line

    def test_symmetry_ab_cd(self):
        net, g = section32_example()
        plan = make_test_plan(net, g)
        assert plan.b.bits == plan.a.co_reflect().bits
        assert plan.d.bits == plan.c.co_reflect().bits


class TestSchedules:
    def test_all_test_pairs_covers_every_line(self):
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        plans = all_test_pairs(net)
        testable = [k for k, tests in plans.items() if tests]
        # Majority is irredundant: every line testable in both directions.
        lines = set(net.lines()) - set(net.outputs)
        assert len(testable) >= 2 * len(lines)

    def test_greedy_schedule_detects_everything(self):
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        schedule = greedy_test_schedule(net)
        sim = ScalSimulator(net)
        plans = all_test_pairs(net)
        for (line, value), tests in plans.items():
            if not tests or line in net.outputs:
                continue
            resp = sim.response(StuckAt(line, value))
            assert any(resp.detected.value(x) for x, _ in schedule), (line, value)

    def test_schedule_is_compact(self):
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        schedule = greedy_test_schedule(net)
        assert len(schedule) <= 4  # at most all pairs of a 3-input space


def structural_summary(network, collapse):
    """One PODEM search per fault (``run_atpg(drop=False)``), counted."""
    report = run_atpg(network, collapse=collapse, drop=False)
    return {
        "faults": report.requested,
        "tested": report.detected,
        "untested": report.redundant + report.aborted,
        "redundant": report.redundant,
        "aborted": report.aborted,
    }


class TestDeterministicSummaries:
    """Pinned collapse-aware counts and schedules (regression for the
    order-dependent selection the greedy pass used to make)."""

    def test_structural_summary_pinned_fig34(self, fig34):
        assert structural_summary(fig34, collapse=True) == {
            "faults": 30,
            "tested": 30,
            "untested": 0,
            "redundant": 0,
            "aborted": 0,
        }
        # The raw stem universe is strictly larger; counts still tile.
        raw = structural_summary(fig34, collapse=False)
        assert raw["faults"] == 40
        assert raw["tested"] == 40

    def test_structural_summary_pinned_fig37(self, fig37):
        summary = structural_summary(fig37, collapse=True)
        assert summary == {
            "faults": 30,
            "tested": 30,
            "untested": 0,
            "redundant": 0,
            "aborted": 0,
        }

    def test_greedy_schedule_pinned(self):
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        assert greedy_test_schedule(net) == [(1, 6), (2, 5), (3, 4)]

    def test_greedy_schedule_pinned_fig34_outputs(self, fig34):
        assert greedy_test_schedule(fig34, output="F1") == [
            (2, 5), (0, 7), (3, 4),
        ]
        assert greedy_test_schedule(fig34, output="F2") == [
            (1, 6), (0, 7), (3, 4),
        ]
        assert greedy_test_schedule(fig34, output="F3") == [
            (1, 6), (2, 5), (3, 4),
        ]

    def test_collapse_never_loses_coverage(self, fig34):
        """Collapsed and raw schedules cover the same testable faults —
        equivalent faults have identical test-pair lists."""
        for out in fig34.outputs:
            collapsed = greedy_test_schedule(fig34, output=out)
            raw = greedy_test_schedule(
                fig34, output=out, collapse=False
            )
            plans = all_test_pairs(fig34, output=out)
            for key, tests in plans.items():
                if not tests:
                    continue
                covered_c = any(pair in tests for pair in collapsed)
                covered_r = any(pair in tests for pair in raw)
                assert covered_c and covered_r, key
            assert len(collapsed) <= len(raw)

    def test_schedule_independent_of_iteration_order(self):
        """Rebuilding the network (fresh dict/set identities) must yield
        the identical schedule — the selection is sorted, not
        hash-order-dependent."""
        schedules = {
            tuple(
                greedy_test_schedule(
                    parse_expression(
                        "a b | b c | a c", inputs=["a", "b", "c"]
                    )
                )
            )
            for _ in range(5)
        }
        assert len(schedules) == 1


class TestFormatting:
    def test_format_pair(self):
        assert format_pair((0b011, 0b100), ("x1", "x2", "x3")) == "(110,001)"


def pair_test_nets():
    """The thesis's self-dual figures, and random iterative arrays whose
    outputs alternate on some pairs only (``(stages, seed)`` as in
    ``tests/test_podem_golden.py``)."""
    nets = {
        "fig34": fig34_network(),
        "fig37": fig37_fixed_network(),
        "fig62": fig62_nand_network(),
    }
    for stages, seed in ((3, 201), (4, 202), (5, 203)):
        nets[f"array-{stages}"] = random_array_network(
            random.Random(seed), stages
        )
    return nets


class TestEnginePairMasks:
    """Theorem 3.2's test points equal the engine's pair mask
    (:meth:`BitmaskBackend.detection_mask` with ``pairs=True``, which the
    ATPG driver compacts): the pairs where the fault flips the output in
    exactly one period, ``A ⊕ B``, on which the fault-free output
    alternates."""

    @pytest.mark.parametrize("name", sorted(pair_test_nets()))
    def test_thesis_pairs_equal_engine_mask(self, name):
        net = pair_test_nets()[name]
        n = len(net.inputs)
        full = (1 << n) - 1
        for output in net.outputs:
            tables = NetworkEngine(net.with_outputs([output])).bitmask
            alternates = tables.normals()[1][0]
            plans = all_test_pairs(net, output=output)
            for (line, value), thesis in plans.items():
                mask = tables.detection_mask(StuckAt(line, value), pairs=True)
                engine = [
                    (x, x ^ full)
                    for x in range(1 << max(n - 1, 0))
                    if mask >> x & 1
                ]
                plan = make_test_plan(net, line, output)
                flips = (plan.c ^ plan.d) if value else (plan.a ^ plan.b)
                assert engine == [
                    pair
                    for pair in canonical_pairs(flips)
                    if alternates >> pair[0] & 1
                ], (output, line, value)
                testable = (
                    plan.sa1_testable if value else plan.sa0_testable
                )
                if testable:
                    assert engine == [
                        pair for pair in thesis if alternates >> pair[0] & 1
                    ], (output, line, value)
                else:
                    assert thesis == []
                if alternates == tables.full:  # a self-dual output
                    assert engine == thesis, (output, line, value)
