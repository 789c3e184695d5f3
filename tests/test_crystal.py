"""Good nodes, crystal membership, graph generation, and the bijection."""

from collections import Counter

import pytest

from ariki._oracles import addable_i_nodes, below_key, removable_i_nodes
from ariki.aseq import a_graph, a_sequence, peel_step
from ariki.charge import ChargeParams
from ariki.crystal import (_reduced_signature, bijection_j, bijection_j_inverse, crystal_bijection,
                           crystal_graph, flotw_multipartitions,
                           good_addable_node, good_removable_node, is_flotw,
                           is_kleshchev, kleshchev_multipartitions)
from ariki.partitions import (Node, add_node, enumerate_multipartitions,
                              is_e_regular, remove_node)
from ariki.render import render_typeb
from ariki.symbols import a_value
from ariki.typeb import decomposition_matrix_b
from ariki.verification import GRID as VERIFY_GRID

P24 = ChargeParams(2, 4, (0, 1))
GRID = (P24, ChargeParams(2, 2, (0, 1)), ChargeParams(3, 3, (0, 1, 2)),
        ChargeParams(2, 4, (1, 2)))
D1E2 = ChargeParams(1, 2, (0,), 0)


def test_good_addable_examples():
    # row extension wins over the new-row node
    assert good_addable_node(((1,),), 1, "am", D1E2) == Node(1, 2, 0)
    assert good_addable_node(((1,),), 1, "flotw", D1E2) == Node(1, 2, 0)
    assert good_addable_node(((), ()), 0, "flotw", P24) == Node(1, 1, 0)
    assert good_addable_node(((), ()), 2, "flotw", P24) is None


def test_good_removable_examples():
    assert good_removable_node(((), ()), 0, "am", P24) is None
    assert good_removable_node(((2,),), 1, "am", D1E2) == Node(1, 2, 0)


def test_good_nodes_round_trip():
    for p in GRID:
        for n in range(5):
            for mp in enumerate_multipartitions(p.d, n):
                for order in ("am", "flotw"):
                    for i in range(p.e):
                        g = good_addable_node(mp, i, order, p)
                        if g is not None:
                            bigger = add_node(mp, g)
                            assert good_removable_node(bigger, i, order, p) == g
                        h = good_removable_node(mp, i, order, p)
                        if h is not None:
                            smaller = remove_node(mp, h)
                            assert good_addable_node(smaller, i, order, p) == h


def test_is_kleshchev_examples():
    assert is_kleshchev(((),), D1E2)
    assert not is_kleshchev(((1, 1),), D1E2)
    assert is_kleshchev(((2,),), D1E2)


def test_is_flotw_examples():
    assert is_flotw(((2, 2), (2, 2, 1)), P24)
    assert is_flotw(((), ()), P24)
    assert not is_flotw(((), (1, 1)), P24)


def test_crystal_graph_rank_zero():
    g = crystal_graph(P24, 0, "flotw")
    assert g.levels == ((((), ()),),)
    assert g.edges == ()


def test_d1_crystal_is_e_regular_set():
    for e in (2, 3):
        p = ChargeParams(1, e, (0,), 0)
        for order in ("am", "flotw"):
            g = crystal_graph(p, 8, order)
            for n in range(9):
                regular = [mp for mp in enumerate_multipartitions(1, n)
                           if is_e_regular(mp[0], e)]
                assert list(g.vertices(n)) == regular
    g = crystal_graph(ChargeParams(1, 2, (0,), 0), 3, "am")
    assert set(g.vertices(3)) == {((2, 1),), ((3,),)}


def test_crystal_regenerates_membership_sets():
    # brute-force reachability on the right: the multipartitions whose greedy
    # raising path reaches empty are exactly the vertices of the walk
    cases = [(p, 5) for p in GRID] + [(ChargeParams(1, e, (0,), 0), 8) for e in (2, 3)]
    for p, cap in cases:
        gf = crystal_graph(p, cap, "flotw")
        ga = crystal_graph(p, cap, "am")
        for n in range(cap + 1):
            assert list(gf.vertices(n)) == flotw_multipartitions(p, n)
            assert list(ga.vertices(n)) == [mp for mp in enumerate_multipartitions(p.d, n)
                                            if is_kleshchev(mp, p)]


def test_counting_identity():
    for p in GRID:
        for n in range(6):
            assert len(kleshchev_multipartitions(p, n)) == \
                len(flotw_multipartitions(p, n))


def test_crystal_connectivity():
    for p in GRID:
        for order in ("am", "flotw"):
            g = crystal_graph(p, 5, order)
            for r in range(5):
                targets = {t for (_, _, _, t) in g.edges[r]}
                assert targets == set(g.vertices(r + 1))


def test_multi_parent_vertices_exist():
    # these crystals are connected but not trees: ((1),(2)) is reached both
    # from ((),(2)) by residue 0 and from ((1),(1)) by residue 2, and even
    # at d = 1 the vertex (4,2,1) for e = 2 has two parents
    g = crystal_graph(P24, 3, "flotw")
    parents = [(src, i) for (src, i, _, t) in g.edges[2] if t == ((1,), (2,))]
    assert parents == [(((), (2,)), 0), (((1,), (1,)), 2)]
    g = crystal_graph(D1E2, 7, "am")
    counts = Counter(t for (_, _, _, t) in g.edges[6])
    assert counts[((4, 2, 1),)] == 2


def test_bijection_examples():
    assert bijection_j(((), ()), P24) == ((), ())
    for e in (2, 3):
        p = ChargeParams(1, e, (0,), 0)
        for n in range(7):
            for mp in kleshchev_multipartitions(p, n):
                assert bijection_j(mp, p) == mp


def test_bijection_round_trip():
    for p in GRID:
        for n in range(6):
            kle = kleshchev_multipartitions(p, n)
            images = set()
            for mp in kle:
                nu = bijection_j(mp, p)
                assert is_flotw(nu, p)
                assert bijection_j_inverse(nu, p) == mp
                images.add(nu)
            assert images == set(flotw_multipartitions(p, n))


def test_crystal_bijection_matches_single_vertex_replay():
    cases = [(p, 5) for p in GRID] + [(ChargeParams(3, 4, (0, 1, 3)), 6)]
    for p, cap in cases:
        for n in range(cap + 1):
            dual = crystal_bijection(p, n)
            labels = flotw_multipartitions(p, n)
            assert sorted(dual) == labels
            for nu in labels:
                assert dual[nu] == bijection_j_inverse(nu, p)


def test_wrong_component_count_rejected():
    for mp in (((2,),), ((2,), (), ())):
        for fn in (is_kleshchev, is_flotw, bijection_j, bijection_j_inverse):
            with pytest.raises(ValueError, match="expected 2 components"):
                fn(mp, P24)


def test_bijection_rejects_non_members():
    with pytest.raises(ValueError):
        bijection_j(((1, 1),), D1E2)
    with pytest.raises(ValueError):
        bijection_j_inverse(((), (1, 1)), P24)


def test_signature_count_does_not_grow_with_e(monkeypatch):
    # only the residues of a vertex's addable or removable nodes are tried,
    # so a huge e costs no more signatures than a small one
    import ariki.crystal as crystal
    calls = Counter()
    real = crystal._reduced_signature

    def counted(mp, i, order, p):
        calls[p.e] += 1
        return real(mp, i, order, p)

    monkeypatch.setattr(crystal, "_reduced_signature", counted)
    for e in (5, 10**6):
        p = ChargeParams(1, e, (0,), 0)
        assert is_kleshchev(((2, 1),), p)
        bijection_j_inverse(((2, 1),), p)
        for order in ("am", "flotw"):
            crystal_graph(p, 3, order)
    assert calls[5] == calls[10**6] > 0


def test_kleshchev_differs_from_flotw_in_general():
    # the two vertex sets agree in cardinality but not elementwise
    found = False
    for n in range(6):
        if set(kleshchev_multipartitions(P24, n)) != set(flotw_multipartitions(P24, n)):
            found = True
    assert found


def _reduced_signature_oracle(mp, i, order, p):
    """The generic addable/removable filters, sorted lowest first and cancelled by hand."""
    key = below_key(order, p)
    items = sorted([(g, True) for g in addable_i_nodes(mp, i, p)]
                   + [(g, False) for g in removable_i_nodes(mp, i, p)],
                   key=lambda item: key(item[0]))
    if len({key(g) for g, _ in items}) != len(items):
        raise RuntimeError(f"two {i}-nodes of {mp} tie in the {order} order")
    addable, removable = [], []
    for g, is_addable in items:
        if is_addable:
            addable.append(g)
        elif addable:
            addable.pop()  # the nearest uncancelled addable node below g
        else:
            removable.append(g)
    return addable, removable


def test_reduced_signature_matches_generic_filters():
    for p in VERIFY_GRID:
        for n in range(7):
            for mp in enumerate_multipartitions(p.d, n):
                for order in ("am", "flotw"):
                    for i in range(p.e):
                        assert _reduced_signature(mp, i, order, p) == \
                            _reduced_signature_oracle(mp, i, order, p), (mp, i, order)


def test_validation_stays_at_the_boundary(monkeypatch):
    # each public single-vertex entry point validates its input once; the
    # kernels under it (signatures, raising, peeling) never re-validate
    import ariki
    import ariki.partitions as partitions
    calls = {"check_multipartition": [], "check_multicomposition": []}

    def counted(name, real):
        def counting(mp, *args):
            calls[name].append(mp)
            return real(mp, *args)
        return counting

    for name in calls:
        real = getattr(partitions, name)
        for module in vars(ariki).values():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))
    p = ChargeParams(3, 4, (0, 1, 3))
    diagonal = flotw_multipartitions(p, 10)[300]
    kleshchev = kleshchev_multipartitions(p, 10)[300]
    for fn, mp in ((a_value, diagonal), (a_sequence, diagonal), (a_graph, diagonal),
                   (bijection_j_inverse, diagonal), (bijection_j, kleshchev)):
        for seen in calls.values():
            seen.clear()
        fn(mp, p)
        assert len(calls["check_multipartition"]) <= 1, (fn.__name__, calls)
        # the replay's stages are built from validated input
        assert not calls["check_multicomposition"], (fn.__name__, calls)
    # the type B matrix and a-value table read all 185 bipartitions of 8;
    # they enumerate them, so none is checked again
    for fn, args in ((decomposition_matrix_b, (8, 3)),
                     (render_typeb, (8, 3, "a-values"))):
        for seen in calls.values():
            seen.clear()
        fn(*args)
        assert len(calls["check_multipartition"]) <= 1, (fn.__name__, calls)
        assert not calls["check_multicomposition"], (fn.__name__, calls)


def test_boundary_rejects_bad_input():
    for fn in (a_value, a_sequence, a_graph, bijection_j, bijection_j_inverse, peel_step):
        with pytest.raises(ValueError, match="not a partition"):
            fn(((1, 2), ()), P24)
        for mp in (((2,),), ((2,), (), ())):
            with pytest.raises(ValueError, match="expected 2 components"):
                fn(mp, P24)
