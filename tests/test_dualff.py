"""Tests for Reynolds' dual flip-flop SCAL machines (repro.scal.dualff)."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.evaluate import line_tables
from repro.logic.faults import enumerate_stem_faults
from repro.scal import dualff
from repro.scal.codeconv import to_code_conversion
from repro.scal.dualff import (
    self_dual_machine_network,
    to_dual_flipflop,
)
from repro.seq.encoding import gray_encoding
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

    def test_fault_on_a_missing_site_rejected(self, detector):
        """A fault naming no line or flip-flop of the machine would
        force nothing and read as silent; it is refused, as in the
        code-conversion form."""
        from repro.logic.faults import StuckAt

        dm = to_dual_flipflop(detector)
        with pytest.raises(ValueError, match="no network line"):
            dm.run([(0,)], [StuckAt("Z9", 1)])
        with pytest.raises(ValueError, match="no flip-flop"):
            dm.run([(0,)], [FlipFlopFault("y0", 2, 1)])

    def test_stuck_clock_input_detected(self, detector, rng):
        """The period clock stuck is a stem fault on phi: the block stops
        alternating and every pair with differing Z values flags it."""
        from repro.logic.faults import StuckAt

        dm = to_dual_flipflop(detector)
        vectors = random_input_vectors(rng, 1, 30)
        run = dm.run(vectors, [StuckAt("phi", 0)])
        assert run.detected


class TestBlockMemo:
    """One self-dual block per machine object and settings."""

    def test_both_forms_share_one_block(self, detector):
        assert to_dual_flipflop(detector).circuit.network is (
            to_code_conversion(detector).network
        )

    def test_other_encoding_or_style_gets_its_own_block(self, detector):
        block = to_dual_flipflop(detector).circuit.network
        gray = gray_encoding(detector.states)
        assert to_dual_flipflop(detector, gray).circuit.network is not block
        nand = to_dual_flipflop(detector, style="nand-nand").circuit.network
        assert nand is not block
        assert to_code_conversion(detector, style="nand-nand").network is nand

    def test_equal_fresh_machine_synthesizes_again(self):
        first = random_machine(random.Random(5), 4)
        again = random_machine(random.Random(5), 4)
        block = self_dual_machine_network(first)[0]
        fresh = self_dual_machine_network(again)[0]
        assert fresh is not block
        assert [g.name for g in fresh.gates] == [g.name for g in block.gates]

    def test_entry_released_with_the_machine(self):
        gc.collect()
        before = len(dualff._blocks)
        machine = random_machine(random.Random(6), 3)
        to_dual_flipflop(machine)
        to_code_conversion(machine)
        assert len(dualff._blocks) == before + 1
        del machine
        gc.collect()
        assert len(dualff._blocks) == before
