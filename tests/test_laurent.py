"""Laurent polynomial arithmetic and the balanced q-analogues of the oracles."""

import math
import random

import pytest

from ariki._oracles import gauss_factorial, gauss_number
from ariki.laurent import LaurentPoly


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


def test_in_q_zq():
    assert LaurentPoly({1: 2, 3: 1}).in_q_zq()
    assert not LaurentPoly({0: 1, 2: 1}).in_q_zq()
    assert LaurentPoly.zero().in_q_zq()


def test_str():
    poly = LaurentPoly({2: 1, 0: -3, -1: 2})
    assert str(poly) == "q^2 - 3 + 2q^-1"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.one()) == "1"
    assert str(LaurentPoly({1: 1})) == "q"


def test_immutability():
    with pytest.raises(AttributeError):
        LaurentPoly.one().coeffs = {}
