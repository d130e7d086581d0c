"""Unit and property tests for GF(2^32) arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wsc.gf32 import (
    ALPHA,
    ORDER,
    POLY,
    alpha_pow,
    gf_add,
    gf_inv,
    gf_mul,
    gf_pow,
    mul_alpha,
)

elements = st.integers(0, 2**32 - 1)
nonzero = st.integers(1, 2**32 - 1)


class TestBasics:
    def test_add_is_xor(self):
        assert gf_add(0b1010, 0b0110) == 0b1100

    def test_mul_identity(self):
        assert gf_mul(0x12345678, 1) == 0x12345678

    def test_mul_zero(self):
        assert gf_mul(0xDEADBEEF, 0) == 0

    def test_mul_alpha_matches_general_mul(self):
        for value in (1, 2, 0x80000000, 0xFFFFFFFF, 0x12345678):
            assert mul_alpha(value) == gf_mul(value, ALPHA)

    def test_alpha_squared(self):
        assert gf_mul(ALPHA, ALPHA) == 4  # x * x = x^2, no reduction yet

    def test_reduction_happens(self):
        # x^31 * x = x^32 ≡ POLY without the top bit.
        assert gf_mul(1 << 31, ALPHA) == POLY & 0xFFFFFFFF


class TestFieldAxioms:
    @given(elements, elements)
    def test_commutativity(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(elements, elements, elements)
    @settings(max_examples=50)
    def test_associativity(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(elements, elements, elements)
    @settings(max_examples=50)
    def test_distributivity(self, a, b, c):
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    @given(nonzero)
    @settings(max_examples=30)
    def test_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    @given(nonzero, nonzero)
    @settings(max_examples=30)
    def test_no_zero_divisors(self, a, b):
        assert gf_mul(a, b) != 0


class TestPow:
    def test_pow_zero(self):
        assert gf_pow(0x1234, 0) == 1

    def test_pow_one(self):
        assert gf_pow(0x1234, 1) == 0x1234

    def test_pow_matches_repeated_mul(self):
        value = 1
        for exponent in range(1, 20):
            value = gf_mul(value, 0xABCD)
            assert gf_pow(0xABCD, exponent) == value

    def test_negative_exponent(self):
        a = 0x55AA55AA
        assert gf_mul(gf_pow(a, -3), gf_pow(a, 3)) == 1

    def test_fermat(self):
        # a^(2^32 - 1) = 1 for nonzero a.
        assert gf_pow(0xDEADBEEF, ORDER) == 1


class TestPrimitivity:
    def test_alpha_is_primitive(self):
        """alpha must generate the full multiplicative group so every
        WSC-2 position weight 0 <= i < 2^29-2 is distinct."""
        assert gf_pow(ALPHA, ORDER) == 1
        # 2^32 - 1 = 3 * 5 * 17 * 257 * 65537
        for prime in (3, 5, 17, 257, 65537):
            assert gf_pow(ALPHA, ORDER // prime) != 1

    def test_alpha_pow_matches_gf_pow(self):
        for i in (0, 1, 2, 31, 32, 1000, 16384, (1 << 29) - 3):
            assert alpha_pow(i) == gf_pow(ALPHA, i)

    def test_low_alpha_powers_are_shifts(self):
        for i in range(31):
            assert alpha_pow(i) == 1 << i
