"""Fock vectors and divided powers, against the one-node action f_i."""

import copy
import pickle
import random
from functools import reduce
from itertools import combinations

import pytest

import ariki
from ariki._oracles import below_key, f_action, f_power_divided_oracle, gauss_factorial
from ariki.charge import ChargeParams, i_signature
from ariki.crystal import crystal_graph, good_addable_node, good_removable_node
from ariki.fock import FockVector, _add_nodes, _f_divided, f_divided
from ariki.laurent import LaurentPoly
from ariki.partitions import add_node, enumerate_multipartitions

P24 = ChargeParams(2, 4, (0, 1))
GRID = (P24, ChargeParams(2, 2, (0, 1)), ChargeParams(3, 3, (0, 1, 2)),
        ChargeParams(2, 4, (1, 2)))
EMPTY2 = FockVector.unit(((), ()))


def test_f_action_on_empty():
    out = f_action(EMPTY2, 0, "flotw", P24)
    assert out == FockVector.unit(((1,), ()))
    out = f_action(EMPTY2, 1, "flotw", P24)
    assert out == FockVector.unit(((), (1,)))
    assert f_action(FockVector.zero(), 2, "flotw", P24).is_zero()


def test_action_coefficients_are_monomials():
    for p in GRID:
        for n in range(4):
            for mp in enumerate_multipartitions(p.d, n):
                vec = FockVector.unit(mp)
                for order in ("am", "flotw"):
                    for i in range(p.e):
                        out = f_action(vec, i, order, p)
                        for nu in out.support():
                            assert len(out.coefficient(nu).coeffs) == 1


def test_add_nodes_matches_one_node_at_a_time():
    # every subset of the addable i-nodes, listed in either direction, gives
    # what add_node gives one node at a time
    grew_both = False
    for p in GRID:
        for n in range(6):
            for lam in enumerate_multipartitions(p.d, n):
                for order in ("am", "flotw"):
                    for i in range(p.e):
                        add = [g for *_, is_addable, g in i_signature(lam, i, order, p)
                               if is_addable]
                        for j in range(1, len(add) + 1):
                            for chosen in combinations(add, j):
                                mu = reduce(add_node, chosen, lam)
                                assert _add_nodes(lam, chosen) == mu, (lam, chosen)
                                assert _add_nodes(lam, chosen[::-1]) == mu, (lam, chosen)
                                new_row = {c for a, _, c in chosen if a > len(lam[c])}
                                longer = {c for a, _, c in chosen if a <= len(lam[c])}
                                grew_both |= bool(new_row & longer)
    # some component gained a new row and a longer row at once
    assert grew_both


def test_vectors_and_polynomials_pickle_and_copy():
    poly = LaurentPoly({-2: 3, 0: 1, 5: -4})
    vec = FockVector({((2,), (1,)): poly, ((1, 1), (1,)): LaurentPoly.one()})
    for value in (poly, LaurentPoly.zero(), vec, FockVector.zero()):
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                      copy.deepcopy(value)):
            assert type(clone) is type(value) and clone == value
            assert hash(clone) == hash(value)
    with pytest.raises(AttributeError):
        copy.copy(vec).terms = {}


def test_f_divided_trivial_cases():
    vec = FockVector.unit(((1,), (1,)))
    assert f_divided(vec, 0, 0, "flotw", P24) == vec
    for i in range(4):
        assert f_divided(vec, i, 1, "flotw", P24) == f_action(vec, i, "flotw", P24)
    with pytest.raises(ValueError):
        f_divided(vec, 0, -1, "flotw", P24)


def test_divided_power_oracle_small():
    for p in GRID:
        for n in range(4):
            for mp in enumerate_multipartitions(p.d, n):
                vec = FockVector.unit(mp)
                for order in ("am", "flotw"):
                    for i in range(p.e):
                        for j in range(4):
                            assert f_divided(vec, i, j, order, p) == \
                                f_power_divided_oracle(vec, i, j, order, p)


def _random_poly(rng):
    return LaurentPoly({rng.randint(-3, 3): rng.choice((-3, -2, -1, 1, 2, 3))
                        for _ in range(rng.randint(1, 3))})


def _assert_normalized(vec):
    for poly in vec.terms.values():
        assert poly.coeffs and all(poly.coeffs.values())


def test_divided_power_oracle_multi_term():
    # sums of several basis vectors with signed Laurent coefficients, so
    # terms from different multipartitions accumulate on a common target
    rng = random.Random(20260)
    for p in GRID:
        for n in range(4):
            mps = enumerate_multipartitions(p.d, n)
            for _ in range(3):
                chosen = rng.sample(mps, min(len(mps), rng.randint(2, 5)))
                vec = FockVector({mp: _random_poly(rng) for mp in chosen})
                for order in ("am", "flotw"):
                    for i in range(p.e):
                        for j in range(1, 5):
                            out = f_divided(vec, i, j, order, p)
                            assert out == f_power_divided_oracle(vec, i, j, order, p)
                            _assert_normalized(out)


def test_shared_move_table_matches_fresh_calls():
    # one table serves every divided power of one order and one target rank,
    # for every residue: two vectors with overlapping support, applied one
    # after the other, give what two fresh f_divided calls give
    rng = random.Random(20261)
    for p in GRID:
        mps = enumerate_multipartitions(p.d, 3)
        shared = rng.sample(mps, 3)
        vecs = [FockVector({mp: _random_poly(rng) for mp in shared + rng.sample(mps, 2)})
                for _ in range(2)]
        for order in ("am", "flotw"):
            for j in (1, 2, 3):
                table = {}
                for i in range(p.e):
                    for vec in vecs:
                        out = _f_divided(vec, i, j, order, p, table)
                        assert out == f_divided(vec, i, j, order, p), (p, order, i, j)
                assert {key[0] for key in table} >= set(shared)


def test_divided_power_cancelling_terms_dropped():
    # at e = 2 both (2) and (1,1) reach (2,1) by adding one 1-node
    p = GRID[1]
    lam1, lam2, mu = ((2,), ()), ((1, 1), ()), ((2, 1), ())
    for order in ("am", "flotw"):
        x1 = f_divided(FockVector.unit(lam1), 1, 1, order, p).coefficient(mu)
        x2 = f_divided(FockVector.unit(lam2), 1, 1, order, p).coefficient(mu)
        assert not x1.is_zero() and not x2.is_zero()
        vec = FockVector({lam1: x2, lam2: -x1})
        for j in (1, 2):
            out = f_divided(vec, 1, j, order, p)
            assert out == f_power_divided_oracle(vec, 1, j, order, p)
            assert mu not in out.terms
            _assert_normalized(out)
        assert not f_divided(vec, 1, 1, order, p).is_zero()


def test_distant_residues_commute():
    # residues at distance > 1 mod e commute as operators
    p = P24
    pairs = [(0, 2), (1, 3)]
    for n in range(4):
        for mp in enumerate_multipartitions(2, n):
            vec = FockVector.unit(mp)
            for order in ("am", "flotw"):
                for i, j in pairs:
                    ab = f_action(f_action(vec, i, order, p), j, order, p)
                    ba = f_action(f_action(vec, j, order, p), i, order, p)
                    assert ab == ba


def test_vector_arithmetic_and_division():
    a = FockVector({((2,), ()): gauss_factorial(2)})
    b = a.exact_div(gauss_factorial(2))
    assert b == FockVector.unit(((2,), ()))
    with pytest.raises(ArithmeticError):
        FockVector.unit(((2,), ())).exact_div(gauss_factorial(2))
    assert (a - a).is_zero()


def test_mixed_rank_rejected():
    with pytest.raises(ValueError):
        FockVector({((1,), ()): LaurentPoly.one(), ((), ()): LaurentPoly.one()})


def test_arithmetic_rejects_mixed_ranks():
    a = FockVector.unit(((1,), ()))
    b = FockVector.unit(((1,), (1,)))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b
    assert (a + FockVector.zero()) == a and (FockVector.zero() - a) == -a


def test_float_coefficient_rejected():
    with pytest.raises(TypeError):
        FockVector({((1,), ()): 1.5})
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.5})


def test_unchecked_constructors_are_private():
    assert not any(name.startswith("_of") for name in dir(ariki))
    assert not hasattr(ariki, "_of")


@pytest.mark.parametrize("call", [
    lambda order: f_action(EMPTY2, 0, order, P24),
    lambda order: f_divided(EMPTY2, 0, 1, order, P24),
    lambda order: good_addable_node(((), ()), 0, order, P24),
    lambda order: good_removable_node(((1,), ()), 0, order, P24),
    lambda order: crystal_graph(P24, 2, order),
    lambda order: below_key(order, P24),
], ids=["f_action", "f_divided", "good_addable_node",
        "good_removable_node", "crystal_graph", "below_key"])
def test_unknown_order_rejected(call):
    with pytest.raises(ValueError, match=r"order must be one of \('am', 'flotw'\)"):
        call("sideways")
