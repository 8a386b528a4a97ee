"""Tests for the structural PODEM generator (repro.core.atpg)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atpg import X, Podem, _eval3
from repro.engine.atpg import run_atpg
from repro.logic.faults import PinStuckAt, StuckAt, enumerate_stem_faults
from repro.logic.gates import GateArityError, GateKind, check_arity, evaluate
from repro.logic.parse import parse_expression
from repro.qa.reference import reference_output_bits, reference_outputs
from repro.workloads.fig34 import fig34_network
from repro.workloads.randomlogic import random_mixed_network

pytestmark = pytest.mark.atpg


@pytest.mark.parametrize(
    "kind", [kind for kind in GateKind if kind is not GateKind.INPUT]
)
def test_eval3_is_x_exactly_where_completions_disagree(kind):
    """Every legal arity up to 5, every 0/1/X input vector: the
    three-valued value is the 0/1 completions' common value, else X."""
    for arity in range(6):
        try:
            check_arity(kind, arity)
        except GateArityError:
            continue
        for values in itertools.product((0, 1, X), repeat=arity):
            choices = [(0, 1) if v is X else (v,) for v in values]
            outs = {
                evaluate(kind, list(c)) for c in itertools.product(*choices)
            }
            want = outs.pop() if len(outs) == 1 else X
            assert _eval3(kind, list(values)) == want, (kind, values)


class TestGenerateTest:
    def test_majority_all_faults_tested(self):
        net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
        report = run_atpg(net, collapse=False, drop=False)
        assert report.redundant == report.aborted == 0
        assert report.detected == report.requested

    def test_redundant_fault_untestable(self):
        net = parse_expression("a b | a' c | b c", inputs=["a", "b", "c"])
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
        normal = reference_output_bits(net)
        for fault in enumerate_stem_faults(net):
            testable = reference_output_bits(net, fault) != normal
            test = podem.generate_test(fault)
            if test is not None:
                point = tuple(test[name] for name in net.inputs)
                good = reference_outputs(net, point)
                bad = reference_outputs(net, point, fault)
                assert good != bad, fault.describe()
            assert (test is not None) == testable, fault.describe()

    def test_pin_fault(self, fig34):
        podem = Podem(fig34)
        fault = PinStuckAt("F3", 0, 1)  # the nab branch into F3
        test = podem.generate_test(fault)
        assert test is not None
        point = tuple(test[name] for name in fig34.inputs)
        assert reference_outputs(fig34, point) != reference_outputs(
            fig34, point, fault
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
