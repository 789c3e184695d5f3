"""Fock vectors and divided powers, against the one-node action f_i."""

import copy
import pickle
import random
from functools import reduce
from itertools import combinations

import pytest

import ariki
from ariki.canonical import DecompositionMatrix
from ariki._oracles import asymptotic_charge, below_key, divided_power_holds, f_action
from ariki.charge import ChargeParams, i_signature
from ariki.crystal import crystal_graph, good_addable_node, good_removable_node
from ariki.fock import FockVector, _f_divided, _Ids, _moves, f_divided
from ariki.laurent import LaurentPoly, pack, unpack
from ariki.partitions import add_node, enumerate_multipartitions

P24 = ChargeParams(2, 4, (0, 1))
GRID = (P24, ChargeParams(2, 2, (0, 1)), ChargeParams(3, 3, (0, 1, 2)),
        ChargeParams(2, 4, (1, 2)))
EMPTY2 = FockVector.unit(((), ()))


def test_f_action_on_empty():
    out = f_action(EMPTY2, 0, P24.v, P24)
    assert out == FockVector.unit(((1,), ()))
    out = f_action(EMPTY2, 1, P24.v, P24)
    assert out == FockVector.unit(((), (1,)))
    assert f_action(FockVector.zero(), 2, P24.v, P24).is_zero()


def test_action_coefficients_are_monomials():
    for p in GRID:
        for n in range(4):
            for mp in enumerate_multipartitions(p.d, n):
                vec = FockVector.unit(mp)
                for s in (asymptotic_charge(p, n), p.v):
                    for i in range(p.e):
                        out = f_action(vec, i, s, p)
                        for nu in out.support():
                            assert len(out.coefficient(nu).coeffs) == 1


def test_add_nodes_matches_one_node_at_a_time():
    # the targets of _moves, one per subset of the addable i-nodes in the
    # scan's order, are what add_node gives one node at a time
    grew_both = False
    for p in GRID:
        for n in range(6):
            for lam in enumerate_multipartitions(p.d, n):
                for order in ("am", "flotw"):
                    for i in range(p.e):
                        add = [g for *_, is_addable, g in i_signature(lam, i, order, p)
                               if is_addable]
                        for j in range(1, len(add) + 1):
                            ids = _Ids()
                            mus = _moves(lam, i, j, order, p, {}, ids, 1)[1]
                            targets = [ids.tuples[mu] for mu in mus]
                            subsets = list(combinations(add, j))
                            assert targets == [reduce(add_node, chosen, lam)
                                               for chosen in subsets], (lam, i, j)
                            for chosen in subsets:
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


def test_equal_values_hash_equal():
    # the same values stored in dicts filled in opposite orders
    items = [(-2, 3), (0, 1), (5, -4)]
    polys = [LaurentPoly(dict(items)), LaurentPoly(dict(reversed(items)))]
    terms = [(((2,), (1,)), polys[0]), (((1, 1), (1,)), LaurentPoly.one())]
    vecs = [FockVector(dict(terms)), FockVector(dict(reversed(terms)))]
    labels = (((2,),), ((1, 1),))
    fields = dict(rows=labels, columns=labels[:1], kleshchev_labels=labels[:1],
                  row_a_values=(0, 1), column_a_values=(0,))
    matrices = [DecompositionMatrix(**fields, entries=((1,), (1,))),
                DecompositionMatrix(**fields, nonzero=(((0, 1),), ((0, 1),)))]
    for a, b in (polys, vecs, matrices):
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    # a polynomial is not an int, so it need not hash like one
    assert LaurentPoly.one() != 1 and 1 != LaurentPoly.one()


def test_f_divided_trivial_cases():
    vec = FockVector.unit(((1,), (1,)))
    assert f_divided(vec, 0, 0, "flotw", P24) == vec
    for i in range(4):
        assert f_divided(vec, i, 1, "flotw", P24) == f_action(vec, i, P24.v, P24)
    with pytest.raises(ValueError):
        f_divided(vec, 0, -1, "flotw", P24)


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
        # the component-major order as the diagonal order of a charge
        # asymptotic for every rank reached, 3 + 4
        charges = (("am", asymptotic_charge(p, 7)), ("flotw", p.v))
        for n in range(4):
            mps = enumerate_multipartitions(p.d, n)
            for _ in range(3):
                chosen = rng.sample(mps, min(len(mps), rng.randint(2, 5)))
                vec = FockVector({mp: _random_poly(rng) for mp in chosen})
                for order, s in charges:
                    for i in range(p.e):
                        for j in range(1, 5):
                            out = f_divided(vec, i, j, order, p)
                            assert divided_power_holds(out, vec, i, j, s, p)
                            _assert_normalized(out)


def test_f_divided_packs_coefficients_of_any_size():
    # public f_divided packs at a width derived from its input, so huge and
    # cancelling coefficients at negative exponents come back exact
    p = GRID[1]
    big = 10 ** 40
    lam1, lam2 = ((2,), ()), ((1, 1), ())
    vecs = [FockVector({lam1: LaurentPoly({-5: big, 3: -big - 1}),
                        lam2: LaurentPoly({-1: big, 0: -(2 ** 200)})}),
            FockVector({lam1: LaurentPoly({-9: 1}), lam2: LaurentPoly({7: -big})})]
    for vec in vecs:
        for order, s in (("am", asymptotic_charge(p, 4)), ("flotw", p.v)):
            for i in range(p.e):
                for j in (1, 2):
                    out = f_divided(vec, i, j, order, p)
                    assert divided_power_holds(out, vec, i, j, s, p), (vec, order, i, j)
                    _assert_normalized(out)


def test_shared_move_table_matches_fresh_calls():
    # one table serves every divided power of one order, one target rank and
    # one digit width, for every residue, and one table of component i-nodes
    # serves both orders, every residue and every j: two vectors with
    # overlapping support, packed and applied one after the other, give what
    # two fresh f_divided calls give.  Each vector's coefficients sum to at
    # most 45 in absolute value, so 8-bit digits fit, at input offsets 3 and 5
    width = 8
    rng = random.Random(20261)
    for p in GRID:
        mps = enumerate_multipartitions(p.d, 3)
        shared = rng.sample(mps, 3)
        vecs = [FockVector({mp: _random_poly(rng) for mp in shared + rng.sample(mps, 2)})
                for _ in range(2)]
        scans = {}
        for order in ("am", "flotw"):
            for j in (1, 2, 3):
                table, ids = {}, _Ids()
                for i in range(p.e):
                    for vec, offset in zip(vecs, (3, 5)):
                        packed = {ids[lam]: pack(c.coeffs, width, offset)
                                  for lam, c in vec.terms.items()}
                        raw, shift = _f_divided(packed, i, j, order, p, scans, table, ids,
                                                width)
                        out = FockVector({ids.tuples[mu]:
                                          LaurentPoly(unpack(x, width, offset + shift))
                                          for mu, x in raw.items()})
                        assert out == f_divided(vec, i, j, order, p), (p, order, i, j)
                assert {ids.tuples[key[0]] for key in table} >= set(shared)


def test_divided_power_cancelling_terms_dropped():
    # at e = 2 both (2) and (1,1) reach (2,1) by adding one 1-node
    p = GRID[1]
    lam1, lam2, mu = ((2,), ()), ((1, 1), ()), ((2, 1), ())
    for order, s in (("am", asymptotic_charge(p, 4)), ("flotw", p.v)):
        x1 = f_divided(FockVector.unit(lam1), 1, 1, order, p).coefficient(mu)
        x2 = f_divided(FockVector.unit(lam2), 1, 1, order, p).coefficient(mu)
        assert not x1.is_zero() and not x2.is_zero()
        vec = FockVector({lam1: x2, lam2: -x1})
        for j in (1, 2):
            out = f_divided(vec, 1, j, order, p)
            assert divided_power_holds(out, vec, 1, j, s, p)
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
            for s in (asymptotic_charge(p, n + 1), p.v):
                for i, j in pairs:
                    ab = f_action(f_action(vec, i, s, p), j, s, p)
                    ba = f_action(f_action(vec, j, s, p), i, s, p)
                    assert ab == ba


def test_mixed_rank_rejected():
    with pytest.raises(ValueError):
        FockVector({((1,), ()): LaurentPoly.one(), ((), ()): LaurentPoly.one()})


def test_float_coefficient_rejected():
    with pytest.raises(TypeError):
        FockVector({((1,), ()): 1.5})
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.5})
    # exponents too: int() would read 1.5 as 1 and "2" as 2
    for exponent in (1.5, "2", 2.0):
        with pytest.raises(TypeError, match="exponents must be integers"):
            LaurentPoly({exponent: 1})


def test_unchecked_constructors_are_private():
    assert not any(name.startswith("_of") for name in dir(ariki))
    assert not hasattr(ariki, "_of")


ORDER_NAMES = r"order must be one of \('am', 'flotw'\)"
NOT_A_CHARGE = r"is not 2 integers congruent to \(0, 1\) mod 4"


@pytest.mark.parametrize("call, order, message", [
    (lambda order: f_divided(EMPTY2, 0, 1, order, P24), "sideways", ORDER_NAMES),
    (lambda order: good_addable_node(((), ()), 0, order, P24), "sideways", ORDER_NAMES),
    (lambda order: good_removable_node(((1,), ()), 0, order, P24), "sideways", ORDER_NAMES),
    (lambda order: crystal_graph(P24, 2, order), "sideways", ORDER_NAMES),
    # the oracles take their order as an integer charge: an order name,
    # even one of length d, is not one
    (lambda order: below_key(order, P24), "am", NOT_A_CHARGE),
    (lambda order: f_action(EMPTY2, 0, order, P24), "flotw", NOT_A_CHARGE),
], ids=["f_divided", "good_addable_node", "good_removable_node", "crystal_graph",
        "below_key", "f_action"])
def test_unknown_order_rejected(call, order, message):
    with pytest.raises(ValueError, match=message):
        call(order)


def test_charge_not_congruent_to_v_rejected():
    # the oracles' order is that of a charge s: d integers with s_j = v_j mod e
    for s in ((0,), (0, 1, 2), (), (0, 2), (1, 1)):
        for call in (lambda: below_key(s, P24), lambda: f_action(EMPTY2, 0, s, P24)):
            with pytest.raises(ValueError, match=r"not 2 integers congruent to \(0, 1\) mod 4"):
                call()
    # any representatives of v mod e
    assert f_action(EMPTY2, 0, (-4, 9), P24) == f_action(EMPTY2, 0, P24.v, P24)


@pytest.mark.parametrize("call", [
    lambda i, p: f_divided(FockVector.unit(((1,),)), i, 1, "flotw", p),
    lambda i, p: f_action(FockVector.unit(((1,),)), i, p.v, p),
    lambda i, p: good_addable_node(((1,),), i, "flotw", p),
    lambda i, p: good_removable_node(((1,),), i, "am", p),
], ids=["f_divided", "f_action", "good_addable_node", "good_removable_node"])
def test_residue_outside_zero_to_e_rejected(call):
    # i = -1 and i = 3 are congruent to 1 mod e = 2, but the row scan
    # compares residues in 0..e-1, so it would miss the new-row 1-node
    p = ChargeParams(1, 2, (0,))
    for i in (-1, 3, 2, 1.0, None):
        with pytest.raises(ValueError, match=r"residue must be an integer in 0\.\.1"):
            call(i, p)
    assert str(f_divided(FockVector.unit(((1,),)), 1, 1, "flotw", p)) == "(q)*[1.1] + (1)*[2]"
