"""Tests for the ALPT and PALT translators (Theorems 4.1 and 4.3)."""

import itertools

import pytest

from repro.checkers.tworail import code_valid
from repro.engine.compiled import RowForcing
from repro.scal.translators import ALPT, PALT, TranslatorFault
from repro.system.memory import parity

HEALTHY = RowForcing()


def one_row(unit, fault):
    """The one-row forcing of one translator fault."""
    forcing = RowForcing()
    unit.force(forcing, 0, fault)
    return forcing


def pairs_for(width, words):
    """(true, complement) value pairs for a list of words."""
    for word in words:
        bits = [(word >> i) & 1 for i in range(width)]
        yield bits, [1 - b for b in bits]


class TestAlptHealthy:
    @pytest.mark.parametrize("width", [2, 3, 4, 6])
    def test_data_and_parity(self, width):
        alpt = ALPT(width)
        for word in range(1 << width):
            bits = [(word >> i) & 1 for i in range(width)]
            comp = [1 - b for b in bits]
            data, par = alpt.feed_pair(HEALTHY, bits, comp)
            assert data == bits
            assert par == parity(bits)

    def test_address_parity_folding(self):
        alpt = ALPT(4)
        bits = [1, 0, 1, 0]
        comp = [0, 1, 0, 1]
        _data, p0 = alpt.feed_pair(HEALTHY, bits, comp, address_parity=0)
        _data, p1 = alpt.feed_pair(HEALTHY, bits, comp, address_parity=1)
        assert p1 == 1 - p0

    def test_odd_width_parity_normalized(self):
        """For odd widths parity(Ȳ) = ¬parity(Y); the φ fold restores
        the true-period parity (the Section 4.3 odd-word remark)."""
        alpt = ALPT(3)
        bits = [1, 0, 0]
        data, par = alpt.feed_pair(HEALTHY, bits, [0, 1, 1])
        assert data == bits
        assert par == parity(bits)


class TestAlptFaults:
    """Theorem 4.1: with the output parity checked, every internal line
    fault is eventually detected and no undetected wrong word escapes."""

    WIDTH = 4

    def run_with_fault(self, fault, words):
        alpt = ALPT(self.WIDTH)
        forcing = one_row(alpt, fault)
        outcomes = []
        for bits, comp in pairs_for(self.WIDTH, words):
            data, par = alpt.feed_pair(forcing, bits, comp)
            code_ok = parity(data) == par
            correct = data == bits and par == parity(bits)
            outcomes.append((code_ok, correct))
        return outcomes

    def all_fault_sites(self):
        sites = []
        for k in range(self.WIDTH):
            for site in ("a", "b", "c", "d", "e"):
                sites.append((site, k))
        sites += [("f", 0), ("i", 0), ("h", 0), ("j", 0)]
        return sites

    def test_every_fault_secure_and_testable(self):
        words = list(range(16))
        for site, index in self.all_fault_sites():
            for value in (0, 1):
                fault = TranslatorFault(site, index, value)
                outcomes = self.run_with_fault(fault, words)
                # Fault-secure: a wrong word always has bad parity.
                for code_ok, correct in outcomes:
                    if not correct:
                        assert not code_ok, (site, index, value)
                # Self-testing: some word exposes the fault.
                assert any(not code_ok for code_ok, _ in outcomes), (
                    site,
                    index,
                    value,
                )

    def test_common_clock_failure_freezes_output(self):
        """Line g stuck: nothing latches — 'the system will stop and no
        output, correct or incorrect, will be generated'."""
        alpt = ALPT(self.WIDTH)
        bits = [1, 1, 0, 0]
        alpt.feed_pair(HEALTHY, bits, [1 - b for b in bits])
        stopped = one_row(alpt, TranslatorFault("g", 0, 0))
        new_bits = [0, 1, 1, 0]
        new_comp = [1 - b for b in new_bits]
        data, par = alpt.feed_pair(stopped, new_bits, new_comp)
        assert data == bits  # previous word retained


class TestSingleLineSites:
    """A single-line site ignores the fault's index, as
    :class:`TranslatorFault` documents: ``f[2] s/1`` is ``f[0] s/1``."""

    WIDTH = 4

    def alpt_words(self, forcing):
        alpt = ALPT(self.WIDTH)
        return [
            alpt.feed_pair(forcing, bits, comp)
            for bits, comp in pairs_for(self.WIDTH, range(16))
        ]

    def palt_codes(self, forcing):
        palt = PALT(self.WIDTH)
        codes = []
        for word in range(16):
            stored = [(word >> i) & 1 for i in range(self.WIDTH)]
            codes.append(palt.code_output(forcing, stored, parity(stored)))
        return codes

    @pytest.mark.parametrize("site", "fghij")
    @pytest.mark.parametrize("value", (0, 1))
    def test_alpt_index_ignored(self, site, value):
        alpt = ALPT(self.WIDTH)
        at = {
            k: self.alpt_words(one_row(alpt, TranslatorFault(site, k, value)))
            for k in (0, 2)
        }
        assert at[2] == at[0]

    @pytest.mark.parametrize("site", "fgh")
    @pytest.mark.parametrize("value", (0, 1))
    def test_palt_index_ignored(self, site, value):
        palt = PALT(self.WIDTH)
        at = {
            k: self.palt_codes(one_row(palt, TranslatorFault(site, k, value)))
            for k in (0, 2)
        }
        assert at[2] == at[0]

    def test_stuck_parity_lines_force_the_parity_bit(self):
        alpt = ALPT(self.WIDTH)
        for site in "fi":
            forcing = one_row(alpt, TranslatorFault(site, 2, 1))
            # Word 0 has parity 0; the stuck line reads 1.
            assert alpt.feed_pair(forcing, [0] * 4, [1] * 4)[1] == 1

    def test_stuck_code_lines_break_the_code(self):
        palt = PALT(self.WIDTH)
        stored = [1, 0, 0, 0]  # parity 1: the healthy code is (1, 0)
        assert palt.code_output(HEALTHY, stored, 1) == (1, 0)
        for site, value, code in (("g", 0, (0, 0)), ("f", 1, (1, 1))):
            forcing = one_row(palt, TranslatorFault(site, 2, value))
            assert palt.code_output(forcing, stored, 1) == code


class TestPaltHealthy:
    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_outputs_alternate(self, width):
        palt = PALT(width)
        for word in range(1 << width):
            stored = [(word >> i) & 1 for i in range(width)]
            first = palt.outputs_for_period(HEALTHY, stored, 0)
            second = palt.outputs_for_period(HEALTHY, stored, 1)
            assert first == stored
            assert second == [1 - b for b in stored]

    def test_code_output_valid(self):
        palt = PALT(4)
        stored = [1, 0, 1, 1]
        code = palt.code_output(HEALTHY, stored, parity(stored))
        assert code_valid(code)

    def test_code_output_detects_bad_parity(self):
        palt = PALT(4)
        stored = [1, 0, 1, 1]
        code = palt.code_output(HEALTHY, stored, 1 - parity(stored))
        assert not code_valid(code)

    def test_address_parity_symmetric(self):
        palt = PALT(4)
        stored = [1, 1, 0, 0]
        stored_par = parity(stored) ^ 1  # written with address parity 1
        code = palt.code_output(HEALTHY, stored, stored_par, 1)
        assert code_valid(code)


class TestPaltFaults:
    """Theorem 4.3: with the 1-out-of-2 code checked (and downstream
    alternation monitoring for the data outputs), the PALT is
    self-checking."""

    WIDTH = 4

    def exercise(self, fault):
        palt = PALT(self.WIDTH)
        forcing = one_row(palt, fault)
        any_exposed = False
        for word in range(1 << self.WIDTH):
            stored = [(word >> i) & 1 for i in range(self.WIDTH)]
            code = palt.code_output(forcing, stored, parity(stored))
            first = palt.outputs_for_period(forcing, stored, 0)
            second = palt.outputs_for_period(forcing, stored, 1)
            alternates = all(b == 1 - a for a, b in zip(first, second))
            wrong = first != stored
            detected = (not code_valid(code)) or (not alternates)
            if wrong or not alternates or not code_valid(code):
                any_exposed = True
            # Fault-secure: wrong data must come with a detection.
            if wrong:
                assert detected, fault
        return any_exposed

    def test_every_fault_exposed(self):
        sites = [(s, k) for s in ("a", "b", "c", "d", "e") for k in range(self.WIDTH)]
        sites += [("f", 0), ("g", 0), ("h", 0)]
        for site, index in sites:
            for value in (0, 1):
                assert self.exercise(TranslatorFault(site, index, value)), (
                    site,
                    index,
                    value,
                )


class TestRoundTrip:
    """ALPT -> (memory word) -> PALT reproduces the alternating pair —
    the Theorem 4.4 feedback loop at translator level."""

    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    def test_roundtrip(self, width):
        alpt, palt = ALPT(width), PALT(width)
        for word in range(1 << width):
            bits = [(word >> i) & 1 for i in range(width)]
            comp = [1 - b for b in bits]
            data, par = alpt.feed_pair(HEALTHY, bits, comp)
            assert code_valid(palt.code_output(HEALTHY, data, par))
            assert palt.outputs_for_period(HEALTHY, data, 0) == bits
            assert palt.outputs_for_period(HEALTHY, data, 1) == comp
