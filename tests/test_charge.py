"""Charge bookkeeping, node orders, and the semisimplicity criterion."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest

from ariki._oracles import (Weights, addable_i_nodes, asymptotic_charge, below_key,
                            bumped_weights, diagram_nodes, removable_i_nodes)
from ariki.charge import (ChargeParams, _weighted_min_sum, border_signatures,
                          component_signature, i_signature, is_semisimple, residue)
from ariki.crystal import flotw_multipartitions
from ariki.partitions import Node, add_node, enumerate_multipartitions
from ariki.render import render_a_value
from ariki.verification import GRID


def test_residue_examples():
    p = ChargeParams(2, 4, (0, 2))
    assert residue(Node(1, 4, 0), p) == 3
    assert residue(Node(2, 5, 1), p) == 1
    assert residue(Node(1, 1, 0), ChargeParams(2, 4, (0, 1))) == 0


def test_residue_component_out_of_range():
    with pytest.raises(ValueError):
        residue(Node(1, 1, 2), ChargeParams(2, 4, (0, 1)))


def test_residue_constant_on_diagonals():
    p = ChargeParams(3, 5, (0, 2, 4))
    for a in range(1, 5):
        for b in range(1, 5):
            for c in range(3):
                assert residue(Node(a, b, c), p) == residue(Node(a + 1, b + 1, c), p)


def test_i_signature_matches_generic_filters():
    # the one-pass scan equals the residue filters sorted lowest first, the
    # component-major order as the diagonal order of an asymptotic charge
    for p in (*GRID, ChargeParams(3, 4, (0, 1, 3))):
        for n in range(7):
            charges = (("am", asymptotic_charge(p, n)), ("flotw", p.v))
            for mp in enumerate_multipartitions(p.d, n):
                for order, s in charges:
                    key = below_key(s, p)
                    for i in range(p.e):
                        tagged = ([(g, True) for g in addable_i_nodes(mp, i, p)]
                                  + [(g, False) for g in removable_i_nodes(mp, i, p)])
                        tagged.sort(key=lambda item: key(item[0]))
                        expected = [(g.row - g.col - p.v[g.comp], g.comp, is_addable, g)
                                    for g, is_addable in tagged]
                        assert i_signature(mp, i, order, p) == expected, (p, mp, i, order)
    with pytest.raises(ValueError):
        i_signature(((1,), (), ()), 0, "am", ChargeParams(2, 4, (0, 1)))


def test_border_signatures_equal_i_signature():
    # one pass for every residue lists each residue's i_signature items in
    # the component-major order; sorted, they are the diagonal order's, and
    # a residue with no i-node is no key
    for p in GRID:
        for n in range(7):
            for mp in enumerate_multipartitions(p.d, n):
                scan = border_signatures(mp, p)
                assert all(scan.values()) and set(scan) <= set(range(p.e)), (p, mp)
                for i in range(p.e):
                    items = scan.get(i, [])
                    assert items == i_signature(mp, i, "am", p), (p, mp, i)
                    assert sorted(items) == i_signature(mp, i, "flotw", p), (p, mp, i)
    with pytest.raises(ValueError):
        border_signatures(((1,), (), ()), ChargeParams(2, 4, (0, 1)))


def test_component_signature_equals_i_signature():
    # the one-component scans, each item written with its node, are
    # i_signature's items in the component-major order when concatenated
    # over the components, and sorted by (-content, comp) its diagonal
    # order; each addable item carries the component that adding its node
    # makes.  Equal charges make equal contents in two components, where
    # the sort breaks ties by component
    for p in (*GRID, ChargeParams(2, 3, (0, 0)), ChargeParams(3, 2, (0, 0, 1))):
        for n in range(7):
            for mp in enumerate_multipartitions(p.d, n):
                for i in range(p.e):
                    items = []
                    for c, comp in enumerate(mp):
                        for key, comp_index, a, new in component_signature(comp, c, i, p):
                            assert comp_index == c, (p, mp, i)
                            if new is None:
                                items.append((key, c, False, (a, comp[a - 1], c)))
                                continue
                            g = (a, new[a - 1], c)
                            assert new == add_node(mp, Node(*g))[c], (p, mp, i, g)
                            items.append((key, c, True, g))
                    assert items == i_signature(mp, i, "am", p), (p, mp, i)
                    assert sorted(items) == i_signature(mp, i, "flotw", p), (p, mp, i)


def test_am_below_examples():
    # component-major, an asymptotic charge: the smaller (component, row) is lower
    p = ChargeParams(2, 4, (0, 1))
    key = below_key(asymptotic_charge(p, 5), p)
    assert key(Node(1, 1, 0)) < key(Node(1, 1, 1))
    assert key(Node(1, 2, 0)) < key(Node(2, 1, 0))
    assert not key(Node(2, 1, 1)) < key(Node(1, 5, 1))


def test_flotw_above_examples():
    # diagonal: the smaller charged content b - a + v_c is higher, and at
    # equal content the larger component is higher
    key = below_key((0, 1), ChargeParams(2, 4, (0, 1)))
    assert key(Node(1, 1, 1)) < key(Node(1, 1, 0))
    g = Node(2, 3, 1)
    assert not key(g) < key(g)
    key0 = below_key((0, 0), ChargeParams(2, 4, (0, 0)))
    assert key0(Node(1, 1, 0)) < key0(Node(1, 1, 1))


def test_orders_are_strict_and_total_on_distinct_keys():
    # the key of a charge s tells apart exactly the nodes of distinct
    # (content b - a + s_c, component), at s = v and at asymptotic charges
    p = ChargeParams(2, 3, (0, 1))
    nodes = [Node(a, b, c) for a in (1, 2, 3) for b in (1, 2, 3) for c in (0, 1)]
    for s in (p.v, asymptotic_charge(p, 0), asymptotic_charge(p, 4)):
        key = below_key(s, p)
        for g in nodes:
            for h in nodes:
                below, above = key(g) < key(h), key(h) < key(g)
                assert not (below and above)
                assert (below or above) == ((g.col - g.row + s[g.comp], g.comp)
                                            != (h.col - h.row + s[h.comp], h.comp)), (s, g, h)


def test_asymptotic_charge_orders_like_component_major():
    # the i-nodes, addable and removable, of every multipartition of rank
    # n <= 6 and residue i sort like (component, row) at asymptotic_charge(p, n):
    # 4,802 (multipartition, residue) cases, 4,487 with an i-node
    cases = with_nodes = 0
    for p in (*GRID, ChargeParams(2, 3, (0, 0)), ChargeParams(3, 4, (0, 1, 3)),
              ChargeParams(1, 3, (0,))):
        for n in range(7):
            key = below_key(asymptotic_charge(p, n), p)
            for mp in enumerate_multipartitions(p.d, n):
                for i in range(p.e):
                    nodes = addable_i_nodes(mp, i, p) + removable_i_nodes(mp, i, p)
                    assert (sorted(nodes, key=key)
                            == sorted(nodes, key=lambda g: (g.comp, g.row))), (p, mp, i)
                    cases += 1
                    with_nodes += bool(nodes)
    assert (cases, with_nodes) == (4802, 4487)


def test_is_semisimple_examples():
    assert not is_semisimple(ChargeParams(2, 4, (0, 1)), 2)
    assert is_semisimple(ChargeParams(1, 5, (0,)), 2)
    assert is_semisimple(ChargeParams(2, 4, (0, 1)), 0)


def test_is_semisimple_needs_large_e():
    assert not is_semisimple(ChargeParams(1, 3, (0,)), 3)
    assert is_semisimple(ChargeParams(1, 4, (0,)), 3)


def test_default_shift_is_minimal():
    # the least shift: every scaled weight is nonnegative, and one shift by
    # e less (d*e off every scaled weight) would make one negative
    cases = [(ChargeParams(2, 4, (0, 1)), (8, 6)), (ChargeParams(2, 4, (1, 2)), (2, 0)),
             (ChargeParams(3, 3, (0, 1, 2)), (0, 0, 0))]
    for p, scaled in cases:
        assert p.scaled_m == scaled
        assert min(scaled) - p.d * p.e < 0


def test_shift_bump_adds_de_everywhere():
    for p in (ChargeParams(2, 4, (0, 1)), ChargeParams(3, 3, (0, 1, 2))):
        bumped = bumped_weights(p)
        assert (bumped.d, bumped.e, bumped.v) == (p.d, p.e, p.v)
        for j in range(p.d):
            assert bumped.scaled_m[j] - p.scaled_m[j] == p.d * p.e
        diffs = {(i, j): p.scaled_m[i] - p.scaled_m[j]
                 for i in range(p.d) for j in range(p.d)}
        diffs_b = {(i, j): bumped.scaled_m[i] - bumped.scaled_m[j]
                   for i in range(p.d) for j in range(p.d)}
        assert diffs == diffs_b


def test_m_values_are_exact():
    p = ChargeParams(2, 4, (0, 1))
    assert p.m == (Fraction(4), Fraction(3))


def test_validation_errors():
    with pytest.raises(ValueError):
        ChargeParams(2, 4, (1, 0))     # not weakly increasing
    with pytest.raises(ValueError):
        ChargeParams(2, 4, (0, 4))     # charge >= e
    with pytest.raises(ValueError):
        ChargeParams(2, 1, (0, 0))     # e too small
    with pytest.raises(ValueError):
        ChargeParams(2, 4, (0,))       # wrong charge count
    # a float d or e would compare and hash equal to the int and then fail
    # deep inside a computation
    for d, e in ((2, 4.0), (2.0, 4), (2, "4"), (None, 4)):
        with pytest.raises(ValueError, match="d and e must be integers"):
            ChargeParams(d, e, (0, 1))


def test_params_are_immutable_values():
    p = ChargeParams(d=2, e=4, v=(0, 1))
    q = ChargeParams(2, 4, (0, 1))
    assert p == q and hash(p) == hash(q)
    assert p == ChargeParams(2, 4, [0, 1]) and p != ChargeParams(2, 4, (0, 2))
    assert repr(p) == "ChargeParams(d=2, e=4, v=(0, 1))"
    for name in ("d", "v", "scaled_m", "_a_weights", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0)
    assert p == q and p.scaled_m == (8, 6)
    # row 1 of this a-value reads the weight 8 = 6 + d, the edge of its low sum
    mp = ((2, 2), (2, 2, 1))
    for copied in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert copied == p and copied._a_weights == p._a_weights
        assert render_a_value(copied, mp) == render_a_value(p, mp) == "17 = 17.0\n"


def _weight_data_cases():
    # random charges repeat (d up to 60, e at most 7); the raw weights are
    # (2, 5, (0, 2)) two shifts above its least, which no ChargeParams carries
    rng = random.Random(21)
    cases = list(GRID) + [bumped_weights(p) for p in GRID] + [Weights(2, 5, (0, 2), (30, 29))]
    for _ in range(40):
        d, e = rng.randint(1, 60), rng.randint(2, 7)
        cases.append(ChargeParams(d, e, sorted(rng.randrange(e) for _ in range(d))))
    return cases


def test_a_weights_match_the_pairwise_split():
    # row i reads every weight sm_j <= sm_i + d, for which every
    # min(d*k + sm_i, sm_j) with k >= 1 is sm_j, through low[i], and the
    # rest, its high weights, as ascending[start[i]:]
    for p in _weight_data_cases():
        d, sm = p.d, p.scaled_m
        total, pairs, low, start, ascending = p._a_weights
        assert total == sum(sm) and ascending == tuple(sorted(sm)), p
        assert pairs == _weighted_min_sum(list(sm)) == sum(map(min, combinations(sm, 2))), p
        for i, sm_i in enumerate(sm):
            below = [x for x in sm if x <= sm_i + d]
            assert low[i] == sum(below), (p, i)
            # the low weights are those with (sm_j - sm_i) // d <= 0 and the
            # weights sm_i + d, whose every min is sm_j too
            assert len(below) == sum((x - sm_i) // d <= 0 or x == sm_i + d for x in sm)
            high = sorted(x for x in sm if x > sm_i + d)
            assert list(ascending[start[i]:]) == high, (p, i)


def test_a_weights_take_linear_memory():
    # sm_j = 40000 - 2j, so row i > 10000 has i - 10000 high weights: the
    # high ranges total about d^2/8, but the data holds d-tuples of ints
    d = 20000
    p = ChargeParams(d, 2, (0,) * d)
    data = p._a_weights
    assert sum(d - start for start in data[3]) > d * d // 9
    for field in data:
        assert isinstance(field, int) or (len(field) == d and
                                          all(type(x) is int for x in field))


@pytest.mark.parametrize("d,e,v", [(2, 4, (0, 1)), (3, 3, (0, 1, 2))])
def test_flotw_order_matches_scaled_diagonals_on_vertices(d, e, v):
    # on same-residue nodes of a diagonal-crystal vertex, the scaled-weight
    # diagonal comparison agrees with the order relation
    p = ChargeParams(d, e, v)
    key = below_key(p.v, p)
    for n in range(6):
        for mp in flotw_multipartitions(p, n):
            nodes = diagram_nodes(mp)
            for g in nodes:
                for h in nodes:
                    if g == h or residue(g, p) != residue(h, p):
                        continue
                    lhs = d * (g.col - g.row) + p.scaled_m[g.comp]
                    rhs = d * (h.col - h.row) + p.scaled_m[h.comp]
                    if lhs > rhs:
                        assert key(g) < key(h)


def test_below_key_sorts_lowest_first():
    # contents 1, 1 and -1: the tie at 1 puts the smaller component lower
    p = ChargeParams(2, 4, (0, 1))
    nodes = [Node(1, 1, 1), Node(1, 2, 0), Node(2, 1, 0)]
    assert sorted(nodes, key=below_key(p.v, p)) == [
        Node(1, 2, 0), Node(1, 1, 1), Node(2, 1, 0)]
    assert sorted(nodes, key=below_key(asymptotic_charge(p, 2), p)) == [
        Node(1, 2, 0), Node(2, 1, 0), Node(1, 1, 1)]
