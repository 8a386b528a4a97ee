"""Tests for the gate-level ALPT and PALT translators (Theorems 4.1, 4.3).

Every translator stem and every ALPT latch output is stuck, one at a
time, over every input word at widths 1-4 (odd and even), each
translator stepped on its own by pointwise evaluation.
"""

import itertools

import pytest

from repro.logic.evaluate import evaluate_with_fault
from repro.logic.faults import StuckAt, enumerate_stem_faults
from repro.scal.codeconv import to_code_conversion
from repro.scal.translators import (
    CODE_LINES,
    COMMON_CLOCK,
    alpt_latches,
    alpt_network,
    palt_network,
)
from repro.seq.simulator import FlipFlopFault
from repro.system.memory import parity
from repro.workloads.detectors import kohavi_0101

WIDTHS = (1, 2, 3, 4)


def words(width):
    return [list(bits) for bits in itertools.product((0, 1), repeat=width)]


def alpt_step(width, previous, bits, fault=None):
    """The (data, parity) word the ALPT holds after the alternating pair
    ``bits``/complement, from latches holding the code word ``previous``:
    each latch loads where its clock line took both values, and a
    :class:`FlipFlopFault` sticks a latch output."""
    stem = None if isinstance(fault, FlipFlopFault) else fault
    periods = [
        evaluate_with_fault(
            alpt_network(width),
            {**{f"Y{k}": b ^ phase for k, b in enumerate(bits)}, "phi": phase},
            stem,
        )
        for phase in (0, 1)
    ]
    state = previous + [parity(previous)]
    for k, (latch, d_line, clock, period) in enumerate(alpt_latches(width)):
        if periods[0][clock] != periods[1][clock]:
            state[k] = periods[period][d_line]
        if stem is None and fault is not None and fault.state_line == latch:
            state[k] = fault.value
    return state[:-1], state[-1]


def palt_periods(width, stored, stored_parity, fault=None):
    """PALT line values in both periods of one step."""
    inputs = {f"t{k}": b for k, b in enumerate(stored)}
    inputs["tp"] = stored_parity
    return [
        evaluate_with_fault(palt_network(width), {**inputs, "phi": phase}, fault)
        for phase in (0, 1)
    ]


def alpt_faults(width):
    """Every ALPT stem but the common clock, and every latch output."""
    stems = [
        f
        for f in enumerate_stem_faults(alpt_network(width), include_inputs=False)
        if f.line != COMMON_CLOCK
    ]
    latches = [
        FlipFlopFault(latch, 0, value)
        for latch, *_rest in alpt_latches(width)
        for value in (0, 1)
    ]
    return stems + latches


class TestStructure:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_one_gate_per_lettered_line(self, width):
        """ALPT a, b, d, e per bit and f, g, h, j; PALT a, b (= y), c,
        d, e per bit and f, g, h; the latch outputs c and i are state."""
        alpt = {g.name for g in alpt_network(width).gates}
        palt = {g.name for g in palt_network(width).gates}
        bits = range(width)
        assert alpt == {f"alpt_{s}{k}" for s in "abde" for k in bits} | {
            "alpt_f", COMMON_CLOCK, "alpt_h", "alpt_j"
        }
        assert palt == {f"palt_{s}{k}" for s in "acde" for k in bits} | {
            f"y{k}" for k in bits
        } | {"palt_f", *CODE_LINES}

    def test_loop_network_composes_the_block(self):
        """The PALT feeds the block's ``y*``, and the loop adds no line
        the figures do not letter."""
        cc = to_code_conversion(kohavi_0101())
        loop, block, width = cc.loop, cc.network, cc.encoding.width
        assert loop.inputs == ("x0", "phi", "t0", "t1", "tp")
        assert loop.outputs[:3] == block.outputs
        assert set(loop.outputs[3:]) == {
            line for latch in alpt_latches(width) for line in latch[1:3]
        } | set(CODE_LINES)
        assert loop.gate_count() == block.gate_count() + 9 * width + 7
        for k in range(width):
            assert loop.gate(f"y{k}").inputs == (f"palt_a{k}", f"palt_d{k}")

    def test_unknown_latch_fault_rejected(self):
        cc = to_code_conversion(kohavi_0101())
        for fault in (FlipFlopFault("alpt_c2", 0, 1), FlipFlopFault("alpt_i", 1, 1)):
            with pytest.raises(ValueError, match="no ALPT latch"):
                cc.run([(0,)], [fault])


class TestAlptHealthy:
    @pytest.mark.parametrize("width", WIDTHS + (6,))
    def test_data_and_parity(self, width):
        previous = [0] * width
        for bits in words(width):
            assert alpt_step(width, previous, bits) == (bits, parity(bits))
            previous = bits

    def test_odd_width_parity_normalized(self):
        """For odd widths parity(Ȳ) = ¬parity(Y); the parity tree's
        clock input restores the true-period parity (the Section 4.3
        odd-word remark)."""
        assert alpt_network(3).gate("alpt_f").inputs[-1] == COMMON_CLOCK
        assert alpt_step(3, [0, 0, 0], [1, 0, 0]) == ([1, 0, 0], 1)


class TestAlptFaults:
    """Theorem 4.1: with the output parity checked, every single fault
    gives the correct word or a noncode one, and some word exposes it."""

    def test_every_fault_secure_and_testable(self):
        for width in WIDTHS:
            for fault in alpt_faults(width):
                exposed = False
                for previous, bits in itertools.product(words(width), repeat=2):
                    data, par = alpt_step(width, previous, bits, fault)
                    noncode = parity(data) != par
                    exposed |= noncode
                    assert noncode or (data, par) == (bits, parity(bits)), (
                        fault.describe(),
                        previous,
                        bits,
                    )
                assert exposed, (width, fault.describe())

    def test_common_clock_failure_freezes_output(self):
        """Line g stuck: nothing latches — 'the system will stop and no
        output, correct or incorrect, will be generated'."""
        for width, value in itertools.product(WIDTHS, (0, 1)):
            fault = StuckAt(COMMON_CLOCK, value)
            for previous, bits in itertools.product(words(width), repeat=2):
                assert alpt_step(width, previous, bits, fault) == (
                    previous,
                    parity(previous),
                )

    @pytest.mark.parametrize("line", ["alpt_d0", "alpt_h", "alpt_j"])
    @pytest.mark.parametrize("value", (0, 1))
    def test_stuck_clock_holds_its_latch(self, line, value):
        """Edge-triggered latches: a clock line stuck at either value
        never rises, so its latch keeps the previous value."""
        held = 0 if line == "alpt_d0" else 2
        data, par = alpt_step(2, [1, 0], [0, 0], StuckAt(line, value))
        assert data + [par] == [1 if k == held else 0 for k in range(3)]


class TestSingleLineSites:
    """The single-line sites (ALPT f, g, h, i, j; PALT f, g, h) are one
    line for the whole word: a fault on a per-bit copy names no line of
    the machine and is refused, where it once forced a key nothing read
    and vanished."""

    WIDTH = 4

    @pytest.mark.parametrize("site", "fghij")
    @pytest.mark.parametrize("value", (0, 1))
    def test_alpt_index_ignored(self, site, value):
        cc = to_code_conversion(kohavi_0101())
        line, copy = f"alpt_{site}", f"alpt_{site}2"
        if site == "i":
            line, copy = FlipFlopFault(line, 0, value), FlipFlopFault(copy, 0, value)
        else:
            line, copy = StuckAt(line, value), StuckAt(copy, value)
        cc.run([(0,)], [line])
        with pytest.raises(ValueError, match="no "):
            cc.run([(0,)], [copy])

    @pytest.mark.parametrize("site", "fgh")
    @pytest.mark.parametrize("value", (0, 1))
    def test_palt_index_ignored(self, site, value):
        cc = to_code_conversion(kohavi_0101())
        cc.run([(0,)], [StuckAt(f"palt_{site}", value)])
        with pytest.raises(ValueError, match="no loop network line"):
            cc.run([(0,)], [StuckAt(f"palt_{site}2", value)])

    def test_stuck_parity_lines_force_the_parity_bit(self):
        # Word 0 has parity 0; the stuck line reads 1.
        for fault in (StuckAt("alpt_f", 1), FlipFlopFault("alpt_i", 0, 1)):
            zero = [0] * self.WIDTH
            assert alpt_step(self.WIDTH, zero, zero, fault)[1] == 1

    def test_stuck_code_lines_break_the_code(self):
        stored = [1, 0, 0, 0]  # parity 1: the healthy code is (1, 0)
        for fault, code in ((None, (1, 0)), (StuckAt("palt_g", 0), (0, 0)),
                            (StuckAt("palt_f", 1), (1, 1))):
            first, _ = palt_periods(self.WIDTH, stored, 1, fault)
            assert tuple(first[line] for line in CODE_LINES) == code


class TestPaltHealthy:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_outputs_alternate(self, width):
        for stored in words(width):
            first, second = palt_periods(width, stored, parity(stored))
            assert [first[f"y{k}"] for k in range(width)] == stored
            assert [second[f"y{k}"] for k in range(width)] == [
                1 - b for b in stored
            ]

    def test_code_output_valid(self):
        for width in WIDTHS:
            for stored in words(width):
                first, _ = palt_periods(width, stored, parity(stored))
                assert first["palt_g"] != first["palt_h"]

    def test_code_output_detects_bad_parity(self):
        for width in WIDTHS:
            for stored in words(width):
                first, _ = palt_periods(width, stored, 1 - parity(stored))
                assert first["palt_g"] == first["palt_h"]


class TestPaltFaults:
    """Theorem 4.3: with the 1-out-of-2 code checked (and downstream
    alternation monitoring for the data outputs), every single fault
    gives the correct pair or a detected one, and some word exposes it."""

    def test_every_fault_exposed(self):
        for width in WIDTHS:
            palt = palt_network(width)
            for fault in enumerate_stem_faults(palt, include_inputs=False):
                exposed = False
                for stored in words(width):
                    first, second = palt_periods(
                        width, stored, parity(stored), fault
                    )
                    ys = [(first[f"y{k}"], second[f"y{k}"]) for k in range(width)]
                    detected = first["palt_g"] == first["palt_h"] or any(
                        a == b for a, b in ys
                    )
                    exposed |= detected
                    assert detected or [a for a, _ in ys] == stored, (
                        fault.describe(),
                        stored,
                    )
                assert exposed, (width, fault.describe())


class TestRoundTrip:
    """ALPT -> (memory word) -> PALT reproduces the alternating pair —
    the Theorem 4.4 feedback loop at translator level."""

    @pytest.mark.parametrize("width", WIDTHS + (5,))
    def test_roundtrip(self, width):
        previous = [0] * width
        for bits in words(width):
            data, par = alpt_step(width, previous, bits)
            first, second = palt_periods(width, data, par)
            assert first["palt_g"] != first["palt_h"]
            assert [first[f"y{k}"] for k in range(width)] == bits
            assert [second[f"y{k}"] for k in range(width)] == [
                1 - b for b in bits
            ]
            previous = bits
