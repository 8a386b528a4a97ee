"""Tests for the code-conversion SCAL machine (Figure 4.5, Theorem 4.4)."""

import itertools

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.faults import StuckAt, enumerate_stem_faults
from repro.scal.codeconv import to_code_conversion
from repro.seq.simulator import FlipFlopFault
from repro.system.memory import MemoryFault, single_memory_faults
from repro.workloads.randomlogic import random_input_vectors, random_machine


class TestFunctional:
    def test_fault_on_a_missing_site_rejected(self, detector):
        """The same refusal as the dual flip-flop form: a fault on a
        line, latch or memory site the machine lacks raises."""
        cc = to_code_conversion(detector)
        for fault, match in (
            (StuckAt("Z9", 1), "no loop network line"),
            (FlipFlopFault("alpt_c9", 0, 1), "no ALPT latch"),
            (MemoryFault("data_line", 9, 1), "no such site"),
        ):
            with pytest.raises(ValueError, match=match):
                cc.run([(0,)], [fault])

    def test_equivalence(self, detector, rng):
        cc = to_code_conversion(detector)
        vectors = random_input_vectors(rng, 1, 60)
        run = cc.run(vectors)
        assert not run.detected
        assert cc.decoded_outputs(run) == detector.run(vectors)

    def test_storage_cost_is_n_plus_1(self, detector):
        cc = to_code_conversion(detector)
        assert cc.flip_flop_count() == cc.encoding.width + 1 == 3

    def test_all_steps_alternate(self, detector, rng):
        cc = to_code_conversion(detector)
        run = cc.run(random_input_vectors(rng, 1, 30))
        assert all(step.alternates for step in run.steps)
        assert not any(run.checker_flags)

    @settings(max_examples=6, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_machines_equivalent(self, rnd):
        machine = random_machine(rnd, rnd.randint(2, 5))
        cc = to_code_conversion(machine)
        vectors = [(rnd.randint(0, 1),) for _ in range(40)]
        run = cc.run(vectors)
        assert not run.detected
        assert cc.decoded_outputs(run) == machine.run(vectors)

    def test_odd_state_width_machine(self, rng):
        """Five states -> 3 state bits: exercises the odd-word parity
        normalization end to end."""
        machine = random_machine(rng, 5)
        cc = to_code_conversion(machine)
        assert cc.encoding.width == 3
        vectors = random_input_vectors(rng, 1, 40)
        run = cc.run(vectors)
        assert not run.detected
        assert cc.decoded_outputs(run) == machine.run(vectors)


class TestFaultDetection:
    def _sweep(self, cc, reference, vectors, runner):
        """Assert: wrong decoded outputs are always accompanied by a
        detection (fault-secure), for every fault produced by runner."""
        undetected_wrong = []
        for label, run in runner:
            if cc.decoded_outputs(run) != reference and not run.detected:
                undetected_wrong.append(label)
        assert not undetected_wrong

    def _loop_sweep(self, detector, rng, faults):
        cc = to_code_conversion(detector)
        vectors = random_input_vectors(rng, 1, 40)
        reference = detector.run(vectors)
        runs = ((f.describe(), cc.run(vectors, [f])) for f in faults(cc))
        self._sweep(cc, reference, vectors, runs)

    def test_combinational_faults(self, detector, rng):
        """Every stem of the self-dual block, as a line of the loop."""
        self._loop_sweep(
            detector,
            rng,
            lambda cc: enumerate_stem_faults(cc.network, include_inputs=False),
        )

    def test_alpt_faults(self, detector, rng):
        """Every ALPT line (the common clock stops the machine) and
        every latch output."""

        def faults(cc):
            lines = [g.name for g in cc.loop.gates if g.name.startswith("alpt_")]
            return [StuckAt(line, v) for line in lines for v in (0, 1)] + [
                FlipFlopFault(latch, 0, v)
                for latch in cc.latch_names
                for v in (0, 1)
            ]

        self._loop_sweep(detector, rng, faults)

    def test_palt_faults(self, detector, rng):
        """Every PALT line, the XOR outputs ``y*`` included."""

        def faults(cc):
            width = cc.encoding.width
            lines = [g.name for g in cc.loop.gates if g.name.startswith("palt_")]
            lines += [f"y{k}" for k in range(width)]
            return [StuckAt(line, v) for line in lines for v in (0, 1)]

        self._loop_sweep(detector, rng, faults)

    def test_stuck_clock_stops_the_machine(self, detector):
        """The ALPT's common clock stem or the period clock stuck: the
        whole system stops, a run with no steps and a raised flag."""
        cc = to_code_conversion(detector)
        for line, value in itertools.product(("alpt_g", "phi"), (0, 1)):
            run = cc.run([(0,), (1,)], [StuckAt(line, value)])
            assert run.steps == () and run.checker_flags == (True,)

    def test_memory_faults(self, detector, rng):
        self._loop_sweep(
            detector,
            rng,
            lambda cc: single_memory_faults(
                cc.encoding.width, cc.memory.address_bits
            ),
        )

    def test_memory_cell_fault_detected_by_code(self, detector):
        """A flipped stored state bit breaks the word's parity: the PALT
        1-out-of-2 code flags it on the next read."""
        cc = to_code_conversion(detector)
        vectors = [(0,), (1,), (0,), (1,), (1,), (0,)]
        run = cc.run(
            vectors,
            [MemoryFault("data_line", 0, 1)],
        )
        # Either the code checker fired or the run stayed correct.
        if cc.decoded_outputs(run) != detector.run(vectors):
            assert run.detected
