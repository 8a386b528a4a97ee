"""Tests for Reynolds' dual flip-flop SCAL machines (repro.scal.dualff)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.evaluate import line_tables
from repro.logic.faults import enumerate_stem_faults
from repro.scal.dualff import (
    self_dual_machine_network,
    to_dual_flipflop,
)
from repro.seq.simulator import FlipFlopFault
from repro.workloads.detectors import kohavi_0101
from repro.workloads.randomlogic import random_input_vectors, random_machine


class TestSelfDualNetwork:
    def test_outputs_self_dual(self, detector):
        network, _enc = self_dual_machine_network(detector)
        tables = line_tables(network)
        for out in network.outputs:
            assert tables[out].is_self_dual()

    def test_clock_is_last_input(self, detector):
        network, _enc = self_dual_machine_network(detector)
        assert network.inputs[-1] == "phi"

    def test_period_one_matches_plain_tables(self, detector):
        from repro.logic.selfdual import first_period_function
        from repro.seq.encoding import binary_encoding
        from repro.seq.synthesis import machine_tables

        enc = binary_encoding(detector.states)
        plain, _dc, _names = machine_tables(detector, enc)
        network, _ = self_dual_machine_network(detector, enc)
        tables = line_tables(network)
        for name, table in plain.items():
            assert first_period_function(tables[name]).bits == table.bits


class TestDualFlipFlopMachine:
    def test_structure(self, detector):
        dm = to_dual_flipflop(detector)
        # 2n flip-flops (Table 4.1's Reynolds row).
        assert dm.flip_flop_count() == 4
        assert dm.circuit.depth == 2

    def test_functional_equivalence(self, detector, rng):
        dm = to_dual_flipflop(detector)
        vectors = random_input_vectors(rng, 1, 50)
        run = dm.run(vectors)
        assert not run.detected
        assert dm.decoded_outputs(run) == detector.run(vectors)

    def test_all_signals_alternate(self, detector, rng):
        dm = to_dual_flipflop(detector)
        run = dm.run(random_input_vectors(rng, 1, 30))
        assert all(step.alternates for step in run.steps)

    @settings(max_examples=8, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_machines_equivalent(self, rnd):
        machine = random_machine(rnd, rnd.randint(2, 4))
        dm = to_dual_flipflop(machine)
        vectors = [(rnd.randint(0, 1),) for _ in range(40)]
        run = dm.run(vectors)
        assert not run.detected
        assert dm.decoded_outputs(run) == machine.run(vectors)


class TestFaultDetection:
    def test_no_undetected_wrong_outputs(self, detector, rng):
        """Every combinational stem fault is either detected by
        alternation monitoring (Z and Y) or never corrupts Z."""
        dm = to_dual_flipflop(detector)
        vectors = random_input_vectors(rng, 1, 40)
        reference = detector.run(vectors)
        for fault in enumerate_stem_faults(
            dm.circuit.network, include_inputs=False
        ):
            run = dm.run(vectors, [fault])
            decoded = dm.decoded_outputs(run)
            if decoded != reference:
                assert run.detected, fault.describe()

    def test_input_stem_faults_detected(self, detector, rng):
        dm = to_dual_flipflop(detector)
        vectors = random_input_vectors(rng, 1, 30)
        from repro.logic.faults import StuckAt

        for value in (0, 1):
            run = dm.run(vectors, [StuckAt("x0", value)])
            assert run.detected  # a stuck input stops alternating

    def test_flip_flop_fault_detected_or_harmless(self, detector, rng):
        dm = to_dual_flipflop(detector)
        vectors = random_input_vectors(rng, 1, 40)
        reference = detector.run(vectors)
        for state_line in ("y0", "y1"):
            for stage in (0, 1):
                for value in (0, 1):
                    ff = FlipFlopFault(state_line, stage, value)
                    run = dm.run(vectors, [ff])
                    if dm.decoded_outputs(run) != reference:
                        assert run.detected, ff.describe()

    def test_stuck_clock_input_detected(self, detector, rng):
        """The period clock stuck is a stem fault on phi: the block stops
        alternating and every pair with differing Z values flags it."""
        from repro.logic.faults import StuckAt

        dm = to_dual_flipflop(detector)
        vectors = random_input_vectors(rng, 1, 30)
        run = dm.run(vectors, [StuckAt("phi", 0)])
        assert run.detected
