"""Unit and property tests for truth tables (repro.logic.truthtable)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.truthtable import (
    TruthTable,
    all_functions,
    assignment_of_point,
    point_of_assignment,
)

tables = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.builds(
        TruthTable,
        st.just(n),
        st.integers(min_value=0, max_value=(1 << (1 << n)) - 1),
    )
)


class TestConstructors:
    def test_variable(self):
        x0 = TruthTable.variable(0, 2)
        assert [x0.value(p) for p in range(4)] == [0, 1, 0, 1]
        x1 = TruthTable.variable(1, 2)
        assert [x1.value(p) for p in range(4)] == [0, 0, 1, 1]

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable.variable(2, 2)

    def test_constant(self):
        assert TruthTable.constant(1, 2).is_one()
        assert TruthTable.constant(0, 2).is_zero()

    def test_from_function(self):
        t = TruthTable.from_function(lambda a, b: a & b, 2)
        assert t.minterms() == [3]

    def test_from_values(self):
        t = TruthTable.from_values([0, 1, 1, 0])
        assert t.bits == 0b0110

    def test_from_values_bad_length(self):
        with pytest.raises(ValueError):
            TruthTable.from_values([0, 1, 1])

    def test_from_minterms(self):
        t = TruthTable.from_minterms([0, 3], 2)
        assert t.value(0) == 1 and t.value(3) == 1 and t.value(1) == 0

    def test_from_minterms_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable.from_minterms([4], 2)

    def test_bits_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TruthTable(1, 0b10000)

    def test_names_length_checked(self):
        with pytest.raises(ValueError):
            TruthTable(2, 0, names=("a",))


class TestAlgebra:
    @settings(max_examples=100)
    @given(tables, st.randoms(use_true_random=False))
    def test_de_morgan(self, t, rnd):
        u = TruthTable(t.n, rnd.getrandbits(1 << t.n))
        assert (~(t & u)).bits == ((~t) | (~u)).bits

    @settings(max_examples=100)
    @given(tables)
    def test_double_complement(self, t):
        assert (~~t).bits == t.bits

    @settings(max_examples=100)
    @given(tables)
    def test_xor_self_is_zero(self, t):
        assert (t ^ t).is_zero()

    def test_incompatible_sizes(self):
        with pytest.raises(ValueError):
            TruthTable(1, 0) & TruthTable(2, 0)


class TestCoReflect:
    @settings(max_examples=100)
    @given(tables)
    def test_co_reflect_involution(self, t):
        assert t.co_reflect().co_reflect().bits == t.bits

    @settings(max_examples=100)
    @given(tables)
    def test_co_reflect_counts_preserved(self, t):
        assert t.co_reflect().count_ones() == t.count_ones()

    def test_co_reflect_example(self):
        # f = x0 over 1 var: f(0)=0, f(1)=1; co_reflect swaps points.
        t = TruthTable.variable(0, 1)
        assert t.co_reflect().bits == 0b01

    @pytest.mark.parametrize("n", range(13))
    def test_co_reflect_is_index_complement(self, n):
        # The definition, bit i -> bit i ^ (2**n - 1), across the
        # sub-byte loop (n < 3) and the byte path (n >= 3).
        rnd = random.Random(n)
        top = (1 << n) - 1
        for _ in range(4):
            bits = rnd.getrandbits(1 << n)
            expected = 0
            for i in range(1 << n):
                if bits >> i & 1:
                    expected |= 1 << (i ^ top)
            assert TruthTable(n, bits).co_reflect().bits == expected

    @settings(max_examples=100)
    @given(tables)
    def test_dual_of_dual(self, t):
        assert t.dual().dual().bits == t.bits

    def test_self_dual_known_functions(self):
        maj = TruthTable.from_function(lambda a, b, c: int(a + b + c > 1), 3)
        assert maj.is_self_dual()
        xor3 = TruthTable.from_function(lambda a, b, c: a ^ b ^ c, 3)
        assert xor3.is_self_dual()
        and2 = TruthTable.from_function(lambda a, b: a & b, 2)
        assert not and2.is_self_dual()

    def test_projection_is_self_dual(self):
        for n in (1, 2, 3):
            for i in range(n):
                assert TruthTable.variable(i, n).is_self_dual()

    def test_self_dual_count_two_vars(self):
        # Self-dual functions of n vars number 2^(2^(n-1)): 4 for n=2.
        count = sum(1 for t in all_functions(2) if t.is_self_dual())
        assert count == 4


class TestStructure:
    def test_cofactor(self):
        t = TruthTable.from_function(lambda a, b: a & b, 2)
        assert t.cofactor(0, 1).bits == TruthTable.variable(1, 2).bits
        assert t.cofactor(0, 0).is_zero()

    def test_depends_on_and_support(self):
        t = TruthTable.from_function(lambda a, b, c: a ^ c, 3)
        assert t.support() == (0, 2)
        assert not t.depends_on(1)

    def test_unateness(self):
        t_and = TruthTable.from_function(lambda a, b: a & b, 2)
        assert t_and.unateness(0) == 1
        t_nand = ~t_and
        assert t_nand.unateness(0) == -1
        t_xor = TruthTable.from_function(lambda a, b: a ^ b, 2)
        assert t_xor.unateness(0) is None
        t_const = TruthTable.constant(1, 2)
        assert t_const.unateness(0) == 0

    def test_points_iteration(self):
        t = TruthTable.from_values([1, 0, 0, 1])
        assert list(t.points()) == [(0, 1), (1, 0), (2, 0), (3, 1)]


class TestCodecs:
    def test_assignment_roundtrip(self):
        names = ("x", "y", "z")
        for point in range(8):
            assign = assignment_of_point(point, names)
            assert point_of_assignment(assign, names) == point

    def test_str_render(self):
        t = TruthTable.from_values([1, 0])
        assert "0:1" in str(t) and "1:0" in str(t)
