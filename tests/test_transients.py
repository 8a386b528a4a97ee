"""Transient faults (Definition 2.1 covers them explicitly).

"The line may be stuck either permanently or temporarily; i.e.,
transient failures are included.  The transient failure may or may not
be observable."  These tests drive the dual flip-flop machine with
windowed faults and check the SCAL contract: a transient either never
corrupts the decoded outputs or is detected.
"""

import random

import pytest

from repro.logic.faults import StuckAt, enumerate_stem_faults
from repro.scal.dualff import to_dual_flipflop
from repro.workloads.detectors import kohavi_0101


@pytest.fixture(scope="module")
def machine_and_vectors():
    machine = kohavi_0101()
    dff = to_dual_flipflop(machine)
    rnd = random.Random(77)
    vectors = [(rnd.randint(0, 1),) for _ in range(30)]
    return machine, dff, vectors


class TestTransientWindows:
    def test_no_window_equals_permanent(self, machine_and_vectors):
        machine, dff, vectors = machine_and_vectors
        fault = StuckAt("Z0", 1)
        permanent = dff.run(vectors, [fault])
        windowed = dff.run(
            vectors, [fault], fault_window=(0, 2 * len(vectors))
        )
        assert permanent.detected == windowed.detected

    def test_fault_before_window_is_absent(self, machine_and_vectors):
        machine, dff, vectors = machine_and_vectors
        fault = StuckAt("Z0", 1)
        run = dff.run(vectors, [fault], fault_window=(10_000, 10_001))
        assert not run.detected
        assert dff.decoded_outputs(run) == machine.run(vectors)

    def test_single_period_transient_is_caught_or_harmless(
        self, machine_and_vectors
    ):
        """A one-period transient flips at most one half of a pair, so a
        corrupted output pair is always nonalternating — the cleanest
        case for alternating logic."""
        machine, dff, vectors = machine_and_vectors
        reference = machine.run(vectors)
        for fault in enumerate_stem_faults(
            dff.circuit.network, include_inputs=False
        ):
            for period in (4, 5, 11):
                run = dff.run(
                    vectors, [fault], fault_window=(period, period)
                )
                if dff.decoded_outputs(run) != reference:
                    assert run.detected, (fault.describe(), period)

    def test_pair_wide_transient_secure(self, machine_and_vectors):
        """A transient spanning exactly one logical step (both periods)
        behaves like a momentary permanent fault; the machine is fault
        secure for these too."""
        machine, dff, vectors = machine_and_vectors
        reference = machine.run(vectors)
        for fault in enumerate_stem_faults(
            dff.circuit.network, include_inputs=False
        ):
            run = dff.run(vectors, [fault], fault_window=(8, 9))
            if dff.decoded_outputs(run) != reference:
                assert run.detected, fault.describe()

    def test_transient_state_corruption_detected_later(
        self, machine_and_vectors
    ):
        """A transient on a next-state line can plant a wrong state whose
        effect surfaces steps later; the Y monitoring still catches it by
        the time outputs go wrong."""
        machine, dff, vectors = machine_and_vectors
        reference = machine.run(vectors)
        fault = StuckAt("Y0", 1)
        for start in range(0, 20, 3):
            run = dff.run(vectors, [fault], fault_window=(start, start))
            if dff.decoded_outputs(run) != reference:
                assert run.detected
