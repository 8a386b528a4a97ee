"""Cross-module integration tests: whole-thesis pipelines."""

import random

from repro.checkers.tworail import ScalDualRailChecker, code_valid
from repro.checkers.xorchk import check_pair
from repro.core import ScalSimulator, analyze_network
from repro.logic.faults import StuckAt, enumerate_stem_faults
from repro.logic.selfdual import self_dualize_table
from repro.logic.synthesis import sop_network
from repro.logic.truthtable import TruthTable
from repro.scal.codeconv import to_code_conversion
from repro.scal.dualff import to_dual_flipflop
from repro.workloads.detectors import kohavi_0101
from repro.workloads.randomlogic import random_machine, random_truth_table


class TestDesignFlowCombinational:
    """The thesis's combinational design flow: arbitrary function →
    self-dualize → two-level synthesis → verified SCAL network →
    checker attached."""

    def test_arbitrary_function_to_scal_network(self):
        rnd = random.Random(5)
        for _ in range(5):
            table = random_truth_table(rnd, 3)
            sd = self_dualize_table(table)
            net = sop_network(sd, network_name="flow")
            analysis = analyze_network(net)
            assert analysis.is_self_checking
            oracle = ScalSimulator(net).verdict()
            assert oracle.is_self_checking

    def test_checker_catches_what_the_oracle_predicts(self):
        """Attach the software XOR checker to a SCAL network and verify
        it fires exactly on the pairs the oracle marks detected."""
        rnd = random.Random(6)
        table = random_truth_table(rnd, 3)
        net = sop_network(self_dualize_table(table), network_name="chk")
        sim = ScalSimulator(net)
        out = net.outputs[0]
        full = (1 << len(net.inputs)) - 1
        for fault in enumerate_stem_faults(net, include_inputs=False):
            resp = sim.response(fault)
            from repro.logic.evaluate import line_tables

            faulty = line_tables(net, fault)[out]
            for anchor in range(1 << (len(net.inputs) - 1)):
                pair = (anchor, anchor ^ full)
                verdict = check_pair(
                    [faulty.value(pair[0])], [faulty.value(pair[1])]
                )
                assert (not verdict.valid) == bool(
                    resp.detected.value(anchor)
                ), (fault.describe(), anchor)


class TestDesignFlowSequential:
    """State table → three realizations → same behaviour, and the
    dual-rail checker validates the dual-FF machine's monitored lines."""

    def test_machine_through_all_realizations(self):
        rnd = random.Random(7)
        machine = random_machine(rnd, 4)
        vectors = [(rnd.randint(0, 1),) for _ in range(30)]
        reference = machine.run(vectors)
        dff = to_dual_flipflop(machine)
        run_dff = dff.run(vectors)
        assert dff.decoded_outputs(run_dff) == reference
        cc = to_code_conversion(machine)
        run_cc = cc.run(vectors)
        assert cc.decoded_outputs(run_cc) == reference

    def test_dual_rail_checker_on_dualff_machine(self):
        rnd = random.Random(8)
        machine = kohavi_0101()
        dff = to_dual_flipflop(machine)
        vectors = [(rnd.randint(0, 1),) for _ in range(25)]
        width = len(dff.output_names) + len(dff.state_output_names)
        checker = ScalDualRailChecker(width)
        run = dff.run(vectors)
        for step in run.steps:
            assert code_valid(checker.feed_pair(step.first, step.second))
        # Now a faulty run: the checker must reject some step.
        fault = StuckAt("Z0", 1)
        bad_run = dff.run(vectors, [fault])
        rejected = [
            not code_valid(checker.feed_pair(step.first, step.second))
            for step in bad_run.steps
        ]
        assert any(rejected)

    def test_codeconv_cheaper_storage_than_dualff(self):
        rnd = random.Random(9)
        for n_states in (3, 4, 5, 7):
            machine = random_machine(rnd, n_states, name=f"m{n_states}")
            dff = to_dual_flipflop(machine)
            cc = to_code_conversion(machine)
            assert cc.flip_flop_count() < dff.flip_flop_count()


class TestFig34EndToEnd:
    def test_fig37_survives_full_fault_campaign_with_checker(self, fig37):
        """Run the fixed network in alternating mode against every stem
        fault with a 3-line dual-rail checker: every output-corrupting
        fault is caught."""
        from repro.logic.evaluate import line_tables

        sim = ScalSimulator(fig37)
        normal = line_tables(fig37)
        full = (1 << 3) - 1
        checker = ScalDualRailChecker(3)
        for fault in enumerate_stem_faults(fig37):
            faulty = line_tables(fig37, fault)
            wrong_somewhere = False
            caught = False
            for anchor in range(4):
                pair = (anchor, anchor ^ full)
                first = [faulty[o].value(pair[0]) for o in fig37.outputs]
                second = [faulty[o].value(pair[1]) for o in fig37.outputs]
                ref_first = [normal[o].value(pair[0]) for o in fig37.outputs]
                if first != ref_first:
                    wrong_somewhere = True
                if not code_valid(checker.feed_pair(first, second)):
                    caught = True
            if wrong_somewhere:
                assert caught, fault.describe()
