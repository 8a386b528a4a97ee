"""Tests for the sequential substrate (repro.seq)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.gates import GateKind
from repro.logic.network import NetworkBuilder
from repro.seq.dff import DFlipFlop, Register
from repro.seq.encoding import (
    binary_encoding,
    gray_encoding,
    minimum_width,
    one_hot_encoding,
)
from repro.seq.machine import StateTable, StateTableError, single_input_table
from repro.seq.simulator import FlipFlopFault, SequentialCircuit
from repro.seq.synthesis import machine_tables, synthesize_machine
from repro.workloads.randomlogic import random_machine, random_input_vectors


class TestDFlipFlop:
    def test_latches_on_rising_edge_only(self):
        ff = DFlipFlop()
        ff.clock_edge(1, 0)
        assert ff.output == 0
        ff.clock_edge(1, 1)
        assert ff.output == 1
        ff.clock_edge(0, 1)  # clock stays high: no latch
        assert ff.output == 1
        ff.clock_edge(0, 0)
        assert ff.output == 1
        ff.clock_edge(0, 1)
        assert ff.output == 0

    def test_stuck_pins(self):
        ff = DFlipFlop()
        ff.stuck_d = 1
        ff.clock_edge(0, 1)
        assert ff.output == 1
        ff.stuck_d = None
        ff.stuck_q = 0
        assert ff.output == 0
        ff.stuck_q = None
        ff.stuck_clock = 0
        ff.clock_edge(1, 1)
        assert ff.q == 1  # the pre-fault latched value persists

    def test_reset(self):
        ff = DFlipFlop(1)
        ff.reset()
        assert ff.output == 0


def _delay_line(depth):
    """A feedback chain of ``depth`` flip-flops closed round a buffer:
    ``Y = d`` is fed back into the present-state line ``y``."""
    builder = NetworkBuilder(["d", "y"], name="delay")
    builder.add("Y", GateKind.BUF, ["d"])
    return SequentialCircuit(builder.build(["Y"]), {"Y": "y"}, depth=depth)


class TestDelayChain:
    def test_two_stage_delay_pre_edge_view(self):
        """The combinational block reads the chain *before* the clock
        edge (as SequentialCircuit.run does): the value seen in period t
        entered the chain in period t-2 — the Figure 4.2a timing."""
        circuit = _delay_line(2)
        seen = [v["y"] for v in circuit.run({"d": d} for d in (1, 0, 1, 1, 0))]
        assert seen == [0, 0, 1, 0, 1]

    def test_two_stage_delay_post_edge_view(self):
        """The present state after each edge: the final state of the
        run up to it, whose last stage drives ``y``."""
        circuit = _delay_line(2)
        stream = [[d] for d in (1, 0, 1, 1, 0)]
        outputs = []
        for t in range(len(stream)):
            _trace, (stages, _word) = circuit.clock_rows(
                stream[: t + 1], circuit.one_row([])
            )
            outputs.append(stages[-1])
        assert outputs == [0, 1, 0, 1, 1]

    def test_runs_share_no_state(self):
        """A run starts from the initial state or the state passed in,
        never from where another run stopped."""
        circuit = _delay_line(2)
        forcing = circuit.one_row([])
        first, final = circuit.clock_rows([[1], [1]], forcing)
        assert final == ((1, 1), ())
        assert circuit.clock_rows([[0]], forcing)[0] == [[0, 0, 0]]
        resumed, _final = circuit.clock_rows([[0]], forcing, final)
        assert resumed[0][1] == 1  # y: the last stage of the passed state

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            _delay_line(0)

    def test_register(self):
        reg = Register(3)
        reg.clock_edge([1, 0, 1], 1)
        assert reg.outputs == [1, 0, 1]
        with pytest.raises(ValueError):
            reg.clock_edge([1], 1)


class TestEncodings:
    def test_minimum_width(self):
        assert minimum_width(1) == 1
        assert minimum_width(2) == 1
        assert minimum_width(4) == 2
        assert minimum_width(5) == 3

    def test_binary_codes_distinct(self):
        enc = binary_encoding(["a", "b", "c"])
        codes = set(enc.codes.values())
        assert len(codes) == 3

    def test_gray_adjacent_differ_by_one_bit(self):
        enc = gray_encoding([f"s{i}" for i in range(8)])
        states = [f"s{i}" for i in range(8)]
        for a, b in zip(states, states[1:]):
            diff = sum(
                x != y for x, y in zip(enc.code(a), enc.code(b))
            )
            assert diff == 1

    def test_one_hot(self):
        enc = one_hot_encoding(["a", "b"])
        assert enc.code("a") == (1, 0)
        assert enc.code("b") == (0, 1)

    def test_decode_roundtrip(self):
        enc = binary_encoding(["a", "b", "c"])
        for state in ("a", "b", "c"):
            assert enc.decode(enc.code(state)) == state

    def test_unused_points(self):
        enc = binary_encoding(["a", "b", "c"])
        assert len(enc.unused_points()) == 1

    def test_width_too_small(self):
        with pytest.raises(ValueError):
            binary_encoding(["a", "b", "c"], width=1)


class TestStateTable:
    def test_incomplete_rejected(self):
        with pytest.raises(StateTableError):
            StateTable(
                ["s"],
                1,
                1,
                {"s": {(0,): ("s", (0,))}},  # missing input (1,)
                "s",
            )

    def test_unknown_next_state_rejected(self):
        with pytest.raises(StateTableError):
            single_input_table(
                "m", {"s": {0: ("zz", 0), 1: ("s", 0)}}, "s"
            )

    def test_run_and_reachability(self, detector):
        outs = detector.run([(0,), (1,), (0,), (1,)])
        assert outs == [(0,), (0,), (0,), (1,)]
        assert detector.reachable_states() == ("S0", "S1", "S2", "S3")

    def test_bad_initial_state(self):
        with pytest.raises(StateTableError):
            single_input_table("m", {"s": {0: ("s", 0), 1: ("s", 0)}}, "zz")


class TestSynthesis:
    def test_kohavi_equivalence(self, detector, rng):
        synth = synthesize_machine(detector)
        stream = random_input_vectors(rng, 1, 60)
        assert synth.run_symbols(stream) == detector.run(stream)

    @settings(max_examples=12, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_machine_equivalence(self, rnd):
        machine = random_machine(rnd, rnd.randint(2, 5))
        synth = synthesize_machine(machine)
        stream = [(rnd.randint(0, 1),) for _ in range(50)]
        assert synth.run_symbols(stream) == machine.run(stream)

    @settings(max_examples=8, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_all_encodings_equivalent(self, rnd):
        machine = random_machine(rnd, 4)
        stream = [(rnd.randint(0, 1),) for _ in range(30)]
        reference = machine.run(stream)
        for enc_fn in (binary_encoding, gray_encoding, one_hot_encoding):
            synth = synthesize_machine(machine, enc_fn(machine.states))
            assert synth.run_symbols(stream) == reference

    def test_machine_tables_dont_cares(self, detector):
        enc = binary_encoding(detector.states)
        tables, dont_care, names = machine_tables(detector, enc)
        assert dont_care.is_zero()  # 4 states fill the 2-bit code space
        assert names == ("x0", "y0", "y1")

    def test_unused_codes_become_dont_cares(self):
        machine = single_input_table(
            "m3",
            {
                "a": {0: ("b", 0), 1: ("a", 0)},
                "b": {0: ("c", 1), 1: ("a", 0)},
                "c": {0: ("a", 0), 1: ("b", 1)},
            },
            "a",
        )
        enc = binary_encoding(machine.states)
        _tables, dont_care, _names = machine_tables(machine, enc)
        assert dont_care.count_ones() == 2  # code 11 for both inputs


class TestSequentialCircuit:
    def test_feedback_validation(self, detector):
        synth = synthesize_machine(detector)
        net = synth.circuit.network
        with pytest.raises(ValueError):
            SequentialCircuit(net, {"Y0": "nonexistent"})
        with pytest.raises(ValueError):
            SequentialCircuit(net, {"nonexistent": "y0"})

    def test_ff_fault_final_stage(self, detector, rng):
        synth = synthesize_machine(detector)
        stream = [
            {"x0": v} for (v,) in random_input_vectors(rng, 1, 40)
        ]
        healthy = synth.circuit.output_trace(stream)
        fault = FlipFlopFault("y0", 0, 1)
        faulty = synth.circuit.output_trace(stream, [fault])
        assert healthy != faulty  # the stuck state bit corrupts outputs

    def test_every_run_starts_from_initial_state(self, detector):
        synth = synthesize_machine(detector)
        stream = [(0,), (1,), (0,), (1,)]
        assert synth.run_symbols(stream) == synth.run_symbols(stream)
        _trace, final = synth.circuit.clock_rows([], synth.circuit.one_row([]))
        assert final == ((0, 0), ())

    def test_counts(self, detector):
        synth = synthesize_machine(detector)
        assert synth.circuit.flip_flop_count() == 2
        assert synth.circuit.gate_count() > 0
