"""The theorem suite: every thesis theorem as an executable statement.

One test per theorem, quantified over random populations where the
theorem universally quantifies.  This file is the index between the
thesis's mathematics and the library's implementation.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulate import ScalSimulator
from repro.engine.compiled import compile_network
from repro.logic.evaluate import line_tables, network_function
from repro.logic.faults import StuckAt, enumerate_stem_faults
from repro.logic.selfdual import self_dualize_table
from repro.logic.synthesis import sop_network
from repro.logic.truthtable import TruthTable
from repro.workloads.randomlogic import (
    random_alternating_network,
    random_self_dual_table,
    random_truth_table,
)

rnds = st.randoms(use_true_random=False)


class TestChapter2:
    @settings(max_examples=25, deadline=None)
    @given(rnds)
    def test_theorem_2_1_alternating_iff_self_dual(self, rnd):
        """A network is an alternating network iff F is self-dual: the
        output pair (F(X), F(X̄)) alternates for every pair iff the
        table is self-dual."""
        table = (
            random_self_dual_table(rnd, 3)
            if rnd.random() < 0.5
            else random_truth_table(rnd, 3)
        )
        net = sop_network(table, network_name="t21")
        out = network_function(net)
        alternates_everywhere = all(
            out.value(p ^ 0b111) == 1 - out.value(p) for p in range(8)
        )
        assert alternates_everywhere == table.is_self_dual()

    @settings(max_examples=15, deadline=None)
    @given(rnds)
    def test_theorem_2_2_scal_definition(self, rnd):
        """The Theorem 2.2 conditions, evaluated as the oracle: a SCAL
        network's faults never produce undetected wrong pairs."""
        net = random_alternating_network(rnd, 3)
        verdict = ScalSimulator(net).verdict()
        assert verdict.is_self_checking


class TestChapter3:
    @settings(max_examples=15, deadline=None)
    @given(rnds)
    def test_theorem_3_5_irredundant_self_dual_is_self_testing(self, rnd):
        """Every fault on a live line of an irredundant self-dual
        network affects the output for some input."""
        from repro.core.redundancy import is_irredundant

        net = random_alternating_network(rnd, 3)
        if not is_irredundant(net):
            return
        sim = ScalSimulator(net)
        universe = compile_network(net).universe_ids(
            include_pins=False, collapse=False
        )
        for resp in sim.responses(universe):
            assert resp.is_self_testing, resp.fault.describe()

    @settings(max_examples=15, deadline=None)
    @given(rnds)
    def test_theorem_3_6_alternating_lines_are_safe(self, rnd):
        """The network is self-checking w.r.t. every line whose value
        alternates (self-dual line table)."""
        net = random_alternating_network(rnd, 3)
        tables = line_tables(net)
        sim = ScalSimulator(net)
        for line in net.lines():
            if tables[line].is_self_dual():
                for value in (0, 1):
                    resp = sim.response(StuckAt(line, value))
                    assert resp.is_fault_secure, (line, value)

    @settings(max_examples=15, deadline=None)
    @given(rnds)
    def test_theorem_3_7_no_fanout_unate_paths_are_safe(self, rnd):
        from repro.logic.paths import condition_b_holds

        net = random_alternating_network(rnd, 3)
        out = net.outputs[0]
        sim = ScalSimulator(net)
        for line in net.lines():
            if line == out:
                continue
            if condition_b_holds(net, line, out):
                for value in (0, 1):
                    assert sim.response(
                        StuckAt(line, value)
                    ).is_fault_secure, (line, value)

    @settings(max_examples=15, deadline=None)
    @given(rnds)
    def test_theorem_3_8_equal_parity_paths_are_safe(self, rnd):
        from repro.logic.paths import condition_c_holds

        net = random_alternating_network(rnd, 3)
        out = net.outputs[0]
        sim = ScalSimulator(net)
        for line in net.lines():
            if line == out:
                continue
            if condition_c_holds(net, line, out):
                for value in (0, 1):
                    assert sim.response(
                        StuckAt(line, value)
                    ).is_fault_secure, (line, value)

    @settings(max_examples=25, deadline=None)
    @given(rnds)
    def test_yamamoto_two_level_self_dual_is_scal(self, rnd):
        """The Section 3.3 result: two-level self-dual networks with
        monotonic gates (plus input inverters) are self-checking."""
        table = self_dualize_table(random_truth_table(rnd, 2))
        net = sop_network(table, network_name="yam")
        assert ScalSimulator(net).verdict().is_self_checking


class TestChapter4:
    def test_theorem_4_1_alpt(self):
        """Covered exhaustively in tests/test_translators.py; assert the
        headline here for the index: the data latches' D lines carry the
        true word in the first period, the parity latch's its parity in
        the second."""
        from repro.logic.evaluate import evaluate_with_fault
        from repro.scal.translators import alpt_network
        from repro.system.memory import parity

        alpt = alpt_network(4)
        for word in range(16):
            bits = [(word >> i) & 1 for i in range(4)]
            first, second = (
                evaluate_with_fault(
                    alpt,
                    {**{f"Y{k}": b ^ phase for k, b in enumerate(bits)},
                     "phi": phase},
                )
                for phase in (0, 1)
            )
            assert [first[f"alpt_b{k}"] for k in range(4)] == bits
            assert second["alpt_f"] == parity(bits)

    def test_theorem_4_4_feedback_self_checking(self, detector):
        from repro.scal.codeconv import to_code_conversion
        from repro.scal.verify import codeconv_campaign, random_vectors

        machine = to_code_conversion(detector)
        result = codeconv_campaign(
            machine, random_vectors(detector, 30, seed=44)
        )
        assert result.is_fault_secure


class TestChapter5:
    def test_theorem_5_1_xor_checker(self):
        """Odd-input XOR trees over alternating lines alternate on every
        internal line."""
        from repro.checkers.xorchk import xor_checker_network

        for n in (1, 2, 3, 5, 9):
            net = xor_checker_network(n)
            tables = line_tables(net)
            assert all(tables[g.name].is_self_dual() for g in net.gates)

    def test_theorem_5_2_no_self_checking_hardcore(self):
        from repro.checkers.hardcore import theorem_5_2_survey

        assert all(
            not v.is_self_checking_hardcore for v in theorem_5_2_survey()
        )


class TestChapter6:
    def test_theorem_6_1_minority_complete(self):
        """m(x1, x2, 0) = NAND(x1, x2): a complete gate set."""
        from repro.modules.minority import minority

        for a in (0, 1):
            for b in (0, 1):
                assert minority([a, b, 0]) == 1 - (a & b)

    def test_theorems_6_2_and_6_3(self):
        from repro.modules.minority import verify_theorem_6_2, verify_theorem_6_3

        assert verify_theorem_6_2(max_n=5)
        assert verify_theorem_6_3(max_n=5)
