"""Tests for the code-conversion SCAL machine (Figure 4.5, Theorem 4.4)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.faults import enumerate_stem_faults
from repro.scal.codeconv import to_code_conversion
from repro.scal.translators import TranslatorFault
from repro.system.memory import MemoryFault, single_memory_faults
from repro.workloads.randomlogic import random_input_vectors, random_machine


class TestFunctional:
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

    def test_combinational_faults(self, detector, rng):
        cc = to_code_conversion(detector)
        vectors = random_input_vectors(rng, 1, 40)
        reference = detector.run(vectors)
        runs = (
            (f.describe(), cc.run(vectors, [("comb", f)]))
            for f in enumerate_stem_faults(cc.network, include_inputs=False)
        )
        self._sweep(cc, reference, vectors, runs)

    def test_alpt_faults(self, detector, rng):
        cc = to_code_conversion(detector)
        width = cc.encoding.width
        vectors = random_input_vectors(rng, 1, 40)
        reference = detector.run(vectors)
        sites = [(s, k) for s in "abcde" for k in range(width)]
        sites += [("f", 0), ("i", 0), ("h", 0), ("g", 0)]
        faults = [
            ("alpt", TranslatorFault(s, k, v)) for s, k in sites for v in (0, 1)
        ]
        runs = (
            (f"{u} {f.describe()}", cc.run(vectors, [(u, f)]))
            for u, f in faults
        )
        self._sweep(cc, reference, vectors, runs)

    def test_palt_faults(self, detector, rng):
        cc = to_code_conversion(detector)
        width = cc.encoding.width
        vectors = random_input_vectors(rng, 1, 40)
        reference = detector.run(vectors)
        sites = [(s, k) for s in "abcde" for k in range(width)]
        sites += [("f", 0), ("g", 0), ("h", 0)]
        faults = [
            ("palt", TranslatorFault(s, k, v)) for s, k in sites for v in (0, 1)
        ]
        runs = (
            (f"{u} {f.describe()}", cc.run(vectors, [(u, f)]))
            for u, f in faults
        )
        self._sweep(cc, reference, vectors, runs)

    def test_memory_faults(self, detector, rng):
        cc = to_code_conversion(detector)
        vectors = random_input_vectors(rng, 1, 40)
        reference = detector.run(vectors)
        runs = (
            (mf.describe(), cc.run(vectors, [("mem", mf)]))
            for mf in single_memory_faults(
                cc.encoding.width, cc.memory.address_bits
            )
        )
        self._sweep(cc, reference, vectors, runs)

    def test_memory_cell_fault_detected_by_code(self, detector):
        """A flipped stored state bit breaks the word's parity: the PALT
        1-out-of-2 code flags it on the next read."""
        cc = to_code_conversion(detector)
        vectors = [(0,), (1,), (0,), (1,), (1,), (0,)]
        run = cc.run(
            vectors,
            [("mem", MemoryFault("data_line", 0, 1))],
        )
        # Either the code checker fired or the run stayed correct.
        if cc.decoded_outputs(run) != detector.run(vectors):
            assert run.detected
