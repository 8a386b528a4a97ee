"""Tests for the structural PODEM generator (repro.core.atpg)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atpg import Podem
from repro.engine.atpg import run_atpg
from repro.logic.evaluate import line_tables, outputs_with_fault
from repro.logic.faults import PinStuckAt, StuckAt, enumerate_stem_faults
from repro.logic.parse import parse_expression
from repro.workloads.fig34 import fig34_network
from repro.workloads.randomlogic import random_mixed_network

pytestmark = pytest.mark.atpg


class TestGenerateTest:
    def test_majority_all_faults_tested(self):
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        report = run_atpg(net, collapse=False, drop=False)
        assert report.redundant == report.aborted == 0
        assert report.detected == report.requested

    def test_redundant_fault_untestable(self):
        net = parse_expression("a b | a' c | b c", inputs=["a", "b", "c"])
        from repro.logic.gates import GateKind

        bc_line = next(
            g.name
            for g in net.gates
            if g.kind is GateKind.AND and set(g.inputs) == {"b", "c"}
        )
        podem = Podem(net)
        # The consensus term s-a-0 is the classic undetectable fault.
        assert podem.generate_test(StuckAt(bc_line, 0)) is None
        assert podem.generate_test(StuckAt(bc_line, 1)) is not None

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_sound_and_complete_vs_truth_tables(self, rnd):
        """Every PODEM test detects (soundness); every truth-table-
        testable fault gets a test (completeness within budget)."""
        net = random_mixed_network(rnd, 4, rnd.randint(3, 8))
        podem = Podem(net)
        normal = line_tables(net)
        for fault in enumerate_stem_faults(net):
            faulty = line_tables(net, fault)
            testable = any(
                (normal[o] ^ faulty[o]).bits for o in net.outputs
            )
            test = podem.generate_test(fault)
            if test is not None:
                good = net.output_values(test)
                bad = outputs_with_fault(net, test, fault)
                assert good != bad, fault.describe()
            assert (test is not None) == testable, fault.describe()

    def test_pin_fault(self, fig34):
        podem = Podem(fig34)
        fault = PinStuckAt("F3", 0, 1)  # the nab branch into F3
        test = podem.generate_test(fault)
        assert test is not None
        assert fig34.output_values(test) != outputs_with_fault(
            fig34, test, fault
        )

    def test_unknown_fault_sites_raise(self, fig34):
        podem = Podem(fig34)
        for fault in (
            StuckAt("nope", 0),
            PinStuckAt("nope", 0, 0),
            PinStuckAt(fig34.inputs[0], 0, 1),  # an input has no pins
        ):
            with pytest.raises(KeyError):
                podem.generate_test_ex(fault)


def pair_verdict(net, fault):
    """``(status, anchor)`` of ``fault`` from the ``pairs``-mode driver;
    the anchor ``X`` of its credited pair ``(X, X̄)``, else ``None``."""
    report = run_atpg(net, [fault], pairs=True)
    name = fault.describe()
    index = report.detected_by.get(name)
    anchor = None if index is None else report.patterns[index]
    return report.classifications[name], anchor


class TestAlternatingTests:
    def test_nab_pair_detects_by_nonalternation(self, fig34):
        from repro.core.simulate import ScalSimulator

        status, anchor = pair_verdict(fig34, StuckAt("nab", 0))
        assert status == "detected"
        resp = ScalSimulator(fig34).response(StuckAt("nab", 0))
        assert resp.detected.value(anchor) == 1

    def test_or_ab_s0_has_no_alternating_test_on_f2_alone(self):
        """The line-20 pathology: every vector that flips F2 flips it in
        both periods when only F2 is observed, so no alternating test
        exists for the single-output view — a proof, not a give-up."""
        fig34 = fig34_network()
        f2_only = fig34.with_outputs(["F2"])
        assert pair_verdict(f2_only, StuckAt("or_ab", 0)) == (
            "redundant", None
        )

    def test_or_ab_s0_found_with_all_outputs(self, fig34):
        """With F3 observed too, the nab-style rescue applies — hmm, no:
        or_ab reaches only F2, so the pair stays undetectable; the
        generator must agree with the oracle and prove it redundant."""
        assert pair_verdict(fig34, StuckAt("or_ab", 0)) == (
            "redundant", None
        )

    @settings(max_examples=10, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_pairs_agree_with_oracle(self, rnd):
        from repro.core.simulate import ScalSimulator
        from repro.workloads.randomlogic import random_alternating_network

        net = random_alternating_network(rnd, 3)
        sim = ScalSimulator(net)
        faults = list(enumerate_stem_faults(net, include_inputs=False))
        report = run_atpg(net, faults, pairs=True)
        assert report.aborted == 0
        for fault in faults:
            resp = sim.response(fault)
            index = report.detected_by.get(fault.describe())
            # Detected exactly when the oracle has a detecting pair, and
            # then on the credited one.
            assert (index is not None) == (not resp.detected.is_zero())
            if index is not None:
                anchor = report.patterns[index]
                assert resp.detected.value(anchor) == 1, fault.describe()
