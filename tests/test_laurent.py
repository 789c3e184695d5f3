"""Laurent polynomial arithmetic, its packed-int form, and the balanced
q-analogues of the oracles."""

import math
import random

import pytest

from ariki._oracles import gauss_factorial, gauss_number
from ariki.laurent import (LaurentPoly, digit_width, low_mask, pack, packed_at_one, unpack,
                           width_for)


def _gauss_binomial(l, j):
    """Balanced q-binomial [l choose j], by the q-Pascal recurrence
    [l choose j] = q^(l-j) [l-1 choose j-1] + q^(-j) [l-1 choose j]."""
    if j < 0 or j > l:
        return LaurentPoly.zero()
    if l == 0:
        return LaurentPoly.one()
    return (LaurentPoly({l - j: 1}) * _gauss_binomial(l - 1, j - 1)
            + LaurentPoly({-j: 1}) * _gauss_binomial(l - 1, j))


def test_gauss_examples():
    assert gauss_number(2) == LaurentPoly({1: 1, -1: 1})
    assert gauss_factorial(1) == LaurentPoly.one()
    assert _gauss_binomial(3, 1) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert gauss_number(0) == LaurentPoly.zero()
    assert gauss_factorial(0) == LaurentPoly.one()


def test_gauss_errors():
    with pytest.raises(ValueError):
        gauss_number(-1)
    with pytest.raises(ValueError):
        gauss_factorial(-1)


def test_gauss_binomial_symmetry_and_bar_invariance():
    # [j]! [l-j]! times the q-binomial is [l]!, and the q-binomial is
    # bar-invariant
    for l in range(7):
        for j in range(l + 1):
            b = _gauss_binomial(l, j)
            assert gauss_factorial(j) * gauss_factorial(l - j) * b == gauss_factorial(l)
            assert b == _gauss_binomial(l, l - j)
            assert b == b.bar()
            # value at q=1 is the ordinary binomial
            assert b.at_one() == math.comb(l, j)


def _random_poly(rng):
    return LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(4)})


def test_ring_axioms_spot():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = _random_poly(rng), _random_poly(rng), _random_poly(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert a - a == LaurentPoly.zero()


def test_bar_is_an_involution():
    rng = random.Random(13)
    for _ in range(30):
        a = _random_poly(rng)
        assert a.bar().bar() == a
        b = _random_poly(rng)
        assert (a * b).bar() == a.bar() * b.bar()


def _in_q_zq(poly, width, offset):
    return not pack(poly.coeffs, width, offset) & low_mask(width, offset)


def test_in_q_zq():
    # read off a packed int with one mask, at any offset, negative digits too
    for width, offset in ((8, 0), (8, 3), (35, 1)):
        assert _in_q_zq(LaurentPoly({1: 2, 3: 1}), width, offset)
        assert not _in_q_zq(LaurentPoly({0: 1, 2: 1}), width, offset)
        assert _in_q_zq(LaurentPoly.zero(), width, offset)
        assert _in_q_zq(LaurentPoly({1: -1, 2: 1}), width, offset)
        assert not _in_q_zq(LaurentPoly({0: -1, 2: 1}), width, offset)
    assert not _in_q_zq(LaurentPoly({-3: 1, 1: -1}), 8, 3)


def _random_wide_poly(rng, bound):
    return LaurentPoly({rng.randint(-6, 6): rng.randint(-bound, bound) for _ in range(5)})


def test_pack_round_trip():
    # every coefficient below 2^(width-1) in absolute value comes back, at
    # every offset that lifts the least exponent to 0 or more, the extreme
    # digits -2^(width-1) and 2^(width-1) - 1 included
    rng = random.Random(17)
    for width in (2, 8, 35, 64):
        half = 1 << (width - 1)
        for _ in range(40):
            poly = _random_wide_poly(rng, half - 1)
            least = min(poly.coeffs, default=0)
            for offset in {max(0, -least), 6, 9}:
                assert LaurentPoly(unpack(pack(poly.coeffs, width, offset), width, offset)) == poly
        for extreme in ({-6: -half, 0: half - 1, 6: -half}, {-1: half - 1, 1: half - 1}):
            assert unpack(pack(extreme, width, 6), width, 6) == extreme
    assert unpack(0, 8, 3) == {}


def test_packed_at_one_is_the_balanced_value_at_one():
    rng = random.Random(19)
    for width in (8, 35):
        for _ in range(60):
            poly = _random_wide_poly(rng, 20)
            for offset in (6, 7):
                x = pack(poly.coeffs, width, offset)
                assert packed_at_one(x, width) == poly.at_one()
    assert packed_at_one(pack({-2: -3, 1: -4}, 8, 2), 8) == -7
    assert packed_at_one(pack({0: 127}, 8, 0), 8) == 127
    assert packed_at_one(0, 8) == 0


def test_digit_width_bound():
    # every coefficient of the walk to rank n lies in 0..n!; the width
    # leaves a factor 2 over it, and is the least such width
    for n in range(31):
        width = digit_width(n)
        assert 2 ** (width - 1) > 2 * math.factorial(n) >= 2 ** (width - 2), n
    assert [width_for(b) for b in (0, 1, 2, 127, 128)] == [2, 2, 3, 8, 9]


def test_str():
    poly = LaurentPoly({2: 1, 0: -3, -1: 2})
    assert str(poly) == "q^2 - 3 + 2q^-1"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.one()) == "1"
    assert str(LaurentPoly({1: 1})) == "q"


def test_immutability():
    with pytest.raises(AttributeError):
        LaurentPoly.one().coeffs = {}
