"""Tests for inductive sequential verification (repro.scal.induction)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.faults import StuckAt
from repro.scal.dualff import to_dual_flipflop
from repro.scal.induction import (
    verify_inductively,
    _expected_pair,
    _single_step,
)
from repro.workloads.detectors import kohavi_0101
from repro.workloads.machines import machine_suite
from repro.workloads.strategies import machines


class TestSingleStep:
    def test_healthy_step_matches_expected(self, detector):
        machine = to_dual_flipflop(detector)
        for state in detector.states:
            for vector in detector.input_vectors():
                expected = _expected_pair(machine, state, vector)
                got = _single_step(machine, state, vector, [])
                assert got == expected, (state, vector)

    def test_faulty_step_differs_or_alternates_detectably(self, detector):
        machine = to_dual_flipflop(detector)
        fault = StuckAt("Z0", 1)
        first, second = _single_step(machine, "S3", (1,), [fault])
        # Z0 stuck at 1 in both periods: nonalternating.
        assert first[0] == second[0] == 1


class TestInductiveVerdict:
    def test_0101_detector_proved(self, detector):
        machine = to_dual_flipflop(detector)
        verdict = verify_inductively(machine)
        assert verdict.holds, verdict.summary()
        assert verdict.faults > 0
        assert "PROVED" in verdict.summary()

    def test_machine_suite_proved(self):
        for table in machine_suite():
            machine = to_dual_flipflop(table)
            verdict = verify_inductively(machine)
            assert verdict.holds, verdict.summary()

    @settings(max_examples=8, deadline=None)
    @given(machines(max_states=4))
    def test_random_machines_proved(self, table):
        machine = to_dual_flipflop(table)
        verdict = verify_inductively(machine)
        assert verdict.holds, verdict.summary()

    def test_explicit_fault_universe(self, detector):
        machine = to_dual_flipflop(detector)
        verdict = verify_inductively(machine, faults=[StuckAt("Z0", 0)])
        assert verdict.faults == 1
        assert verdict.holds

    def test_input_stems_optional(self, detector):
        machine = to_dual_flipflop(detector)
        with_inputs = verify_inductively(machine, include_inputs=True)
        without = verify_inductively(machine, include_inputs=False)
        assert with_inputs.faults > without.faults
        assert with_inputs.holds
