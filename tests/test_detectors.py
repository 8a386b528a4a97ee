"""Tests for the 0101 detector workload (repro.workloads.detectors)."""

import random

from repro.workloads.detectors import (
    THESIS_COSTS,
    kohavi_0101,
    kohavi_circuit,
    pattern_positions,
    reference_outputs,
    reynolds_0101,
    translator_0101,
)


class TestStateTable:
    def test_matches_pattern_oracle(self):
        rnd = random.Random(17)
        for _ in range(20):
            bits = [rnd.randint(0, 1) for _ in range(30)]
            z = reference_outputs(bits)
            assert [i for i, v in enumerate(z) if v] == pattern_positions(bits)

    def test_overlapping_detection(self):
        bits = [0, 1, 0, 1, 0, 1]
        assert reference_outputs(bits) == [0, 0, 0, 1, 0, 1]


class TestThreeImplementations:
    def test_all_equivalent(self):
        rnd = random.Random(23)
        machine = kohavi_0101()
        kohavi = kohavi_circuit()
        reynolds = reynolds_0101()
        translator = translator_0101()
        for _ in range(3):
            bits = [rnd.randint(0, 1) for _ in range(40)]
            vectors = [(b,) for b in bits]
            reference = machine.run(vectors)
            assert kohavi.run_symbols(vectors) == reference
            rr = reynolds.run(vectors)
            assert not rr.detected
            assert reynolds.decoded_outputs(rr) == reference
            tr = translator.run(vectors)
            assert not tr.detected
            assert translator.decoded_outputs(tr) == reference

    def test_flip_flop_counts_match_table_4_1(self):
        assert kohavi_circuit().circuit.flip_flop_count() == THESIS_COSTS["kohavi"][0]
        assert reynolds_0101().flip_flop_count() == THESIS_COSTS["reynolds"][0]
        assert translator_0101().flip_flop_count() == THESIS_COSTS["translator"][0]

    def test_scal_variants_cost_more_gates_than_plain(self):
        m = kohavi_circuit().circuit.gate_count()
        assert reynolds_0101().gate_count() > m
        assert translator_0101().gate_count() > m


class TestFaultInjectionEndToEnd:
    def test_reynolds_detects_comb_faults(self):
        from repro.logic.faults import enumerate_stem_faults

        rnd = random.Random(31)
        machine = kohavi_0101()
        reynolds = reynolds_0101()
        vectors = [(rnd.randint(0, 1),) for _ in range(40)]
        reference = machine.run(vectors)
        for fault in enumerate_stem_faults(
            reynolds.circuit.network, include_inputs=False
        ):
            run = reynolds.run(vectors, [fault])
            if reynolds.decoded_outputs(run) != reference:
                assert run.detected, fault.describe()
