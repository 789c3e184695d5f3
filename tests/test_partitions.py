"""Shape combinatorics: examples plus exhaustive small-rank properties."""

import json
import random
from collections import Counter

import pytest

from ariki._oracles import count_multipartitions, dominates, multipartition_from_json
from ariki.partitions import (Node, add_node, addable_nodes, check_multipartition,
                              enumerate_multipartitions, format_multipartition,
                              is_e_regular, multipartition_to_json,
                              parse_multipartition, partitions_of, rank,
                              remove_node, removable_nodes)


def test_rank_examples():
    assert rank(((4, 2), (), (5, 2, 1))) == 14
    assert rank(((), (), ())) == 0
    assert rank(((2, 2), (2, 2, 1))) == 9


def test_removable_addable_examples():
    assert set(removable_nodes(((2, 2), (2, 2, 1)))) == {
        Node(2, 2, 0), Node(2, 2, 1), Node(3, 1, 1)}
    assert set(addable_nodes(((), ()))) == {Node(1, 1, 0), Node(1, 1, 1)}
    assert removable_nodes(((), ())) == []


def test_remove_then_add_round_trip():
    for n in range(7):
        for mp in enumerate_multipartitions(2, n):
            for g in removable_nodes(mp):
                assert add_node(remove_node(mp, g), g) == mp


def test_dominates_examples():
    assert dominates(((2,),), ((1, 1),))
    assert not dominates(((1, 1),), ((2,),))
    mp = ((2, 1), (1,))
    assert dominates(mp, mp)


def test_dominates_errors():
    with pytest.raises(ValueError):
        dominates(((1,),), ((1,), ()))
    with pytest.raises(ValueError):
        dominates(((2,),), ((1,),))


@pytest.mark.parametrize("d,cap", [(1, 6), (2, 6)])
def test_dominates_partial_order(d, cap):
    for n in range(cap + 1):
        mps = enumerate_multipartitions(d, n)
        for a in mps:
            assert dominates(a, a)
            for b in mps:
                if dominates(a, b) and dominates(b, a):
                    assert a == b
        # transitivity over nontrivial pairs only, to keep the loop tight
        rel = {(a, b) for a in mps for b in mps if a != b and dominates(a, b)}
        for a, b in rel:
            for c in mps:
                if (b, c) in rel:
                    assert (a, c) in rel or a == c


def test_e_regular_examples():
    assert not is_e_regular((1, 1), 2)
    assert is_e_regular((2,), 2)
    assert is_e_regular((3, 3, 1), 3)


def test_e_regular_matches_definition():
    for n in range(11):
        for p in partitions_of(n):
            for e in (2, 3, 4):
                expect = all(p.count(x) < e for x in set(p))
                assert is_e_regular(p, e) == expect


def test_enumerate_examples():
    assert enumerate_multipartitions(1, 2) == [((1, 1),), ((2,),)]
    assert enumerate_multipartitions(2, 0) == [((), ())]
    assert len(enumerate_multipartitions(2, 2)) == 5


def test_enumeration_count_against_generating_function():
    # independent oracle: Euler's pentagonal-free recurrence p(n) = sum over
    # smaller ranks via the "parts of size <= k" table, then convolve
    cap = 10
    table = [[0] * (cap + 1) for _ in range(cap + 1)]
    for k in range(cap + 1):
        table[0][k] = 1
    for n in range(1, cap + 1):
        for k in range(1, cap + 1):
            table[n][k] = table[n][k - 1] + (table[n - k][min(n - k, k)] if k <= n else 0)
    p_count = [table[n][n] for n in range(cap + 1)]

    for d in (1, 2, 3):
        for n in range(cap + 1):
            expect = 0
            if d == 1:
                expect = p_count[n]
            elif d == 2:
                expect = sum(p_count[a] * p_count[n - a] for a in range(n + 1))
            else:
                expect = sum(p_count[a] * p_count[b] * p_count[n - a - b]
                             for a in range(n + 1) for b in range(n - a + 1))
            assert count_multipartitions(d, n) == expect
            if n <= 6:
                assert len(enumerate_multipartitions(d, n)) == expect


def test_count_multipartitions_many_components():
    # one table, not one recursion level per component
    assert count_multipartitions(1100, 0) == 1
    assert count_multipartitions(1100, 1) == 1100
    assert count_multipartitions(1100, 2) == 1100 * 2 + 1100 * 1099 // 2


def test_enumeration_sorted_and_unique():
    mps = enumerate_multipartitions(3, 5)
    assert mps == sorted(mps)
    assert len(mps) == len(set(mps))


def test_text_form_round_trip():
    mp = ((2, 2), (2, 2, 1))
    assert format_multipartition(mp) == "2.2,2.2.1"
    assert parse_multipartition("2.2,2.2.1") == mp
    assert format_multipartition(((), (1,))) == "-,1"
    assert parse_multipartition("-,1") == ((), (1,))
    with pytest.raises(ValueError):
        parse_multipartition("1.2,-")  # not weakly decreasing
    assert parse_multipartition("1.2,-", require_partitions=False) == ((1, 2), ())


def test_json_form_round_trip():
    mp = ((2, 2), (2, 2, 1))
    blob = json.dumps(multipartition_to_json(mp))
    assert blob == "[[2, 2], [2, 2, 1]]"
    assert multipartition_from_json(json.loads(blob)) == mp


def _reference_check(mp):
    """The documented rule: the tuple form, or the message of the first bad component."""
    mp = tuple(tuple(comp) for comp in mp)
    for comp in mp:
        if not (all(isinstance(x, int) and x >= 1 for x in comp)
                and list(comp) == sorted(comp, reverse=True)):
            return f"component {comp} is not a partition"
    return mp


def test_check_multipartition_rejects_bad_shapes():
    with pytest.raises(ValueError):
        check_multipartition(((1, 2),))
    with pytest.raises(ValueError):
        check_multipartition(((0,),))
    fixed = [((0,),), ((2, -1),), ((-3,),), ((1, 2),), ((3, 1, 2),), ((1.0,),),
             ((2, 1.0),), (("a",),), ((2, "a"),), ((True,),), ((2, True),),
             ((True, 2),), ((False,),), ([2, 1], [1]), [[3, 3], []], ((), ()),
             ((),), ()]
    rng = random.Random(16)
    values = (0, -1, -2, 1, 2, 3, 5, 1.0, 2.5, "a", True, False, None)
    drawn = []
    for _ in range(400):
        comps = []
        for _ in range(rng.randint(1, 3)):
            comp = sorted((rng.choice(values[3:7]) for _ in range(rng.randint(0, 4))),
                          reverse=rng.random() < 0.8)
            if comp and rng.random() < 0.2:
                comp[rng.randrange(len(comp))] = rng.choice(values)
            comps.append(comp if rng.random() < 0.5 else tuple(comp))
        drawn.append(tuple(comps))
    outcomes = Counter()
    for mp in fixed + drawn:
        want = _reference_check(mp)
        if isinstance(want, str):
            with pytest.raises(ValueError) as info:
                check_multipartition(mp)
            assert str(info.value) == want, mp
        else:
            got = check_multipartition(mp)
            assert got == want and all(type(comp) is tuple for comp in got), mp
        outcomes[isinstance(want, str)] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100, outcomes
