"""Good nodes, crystal membership, graph generation, and the bijection."""

import ast
import inspect
import tracemalloc
from collections import Counter

import pytest

from ariki import aseq, charge, fock
from ariki._oracles import addable_i_nodes, asymptotic_charge, below_key, removable_i_nodes
from ariki.aseq import a_graph, a_sequence, peel_step
from ariki.charge import ChargeParams
from ariki.crystal import (_reduced_signature, bijection_j, bijection_j_inverse, crystal_bijection,
                           crystal_graph, flotw_multipartitions,
                           good_addable_node, good_removable_node, is_flotw,
                           is_kleshchev, kleshchev_multipartitions)
from ariki.fock import FockVector, f_divided
from ariki.partitions import Node, _moved, add_node, enumerate_multipartitions, remove_node
from ariki.render import render_typeb
from ariki.symbols import a_value
from ariki.typeb import decomposition_matrix_b
from ariki.verification import GRID as VERIFY_GRID

P24 = ChargeParams(2, 4, (0, 1))
GRID = (P24, ChargeParams(2, 2, (0, 1)), ChargeParams(3, 3, (0, 1, 2)),
        ChargeParams(2, 4, (1, 2)))
D1E2 = ChargeParams(1, 2, (0,))


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


def test_is_flotw_cost_does_not_grow_with_e():
    # a part length whose row ends carry all e residues needs e rows, so
    # with fewer rows than e no residue bitmask is made: e = 10**12 would
    # otherwise ask for an integer of 10**12 bits.  Above n + 1 neither
    # condition can bind, so the vertices at e = 10**12 are those at e = 7
    huge = ChargeParams(2, 10**12, (0, 1))
    tracemalloc.start()
    try:
        vertices = flotw_multipartitions(huge, 5)
        sequence = a_sequence(((2, 1), (1,)), huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    assert vertices == flotw_multipartitions(ChargeParams(2, 7, (0, 1)), 5)
    assert sequence == (0, 10**12 - 1, 1, 1)
    assert not is_flotw(((1, 1, 1),), ChargeParams(1, 3, (0,)))
    assert is_flotw(((1, 1),), ChargeParams(1, 3, (0,)))


def test_crystal_graph_rank_zero():
    g = crystal_graph(P24, 0, "flotw")
    assert g.levels == ((((), ()),),)
    assert g.edges == ()


def test_crystal_regenerates_membership_sets():
    # brute-force reachability on the right: the multipartitions whose greedy
    # raising path reaches empty are exactly the vertices of the walk
    cases = [(p, 5) for p in GRID] + [(ChargeParams(1, e, (0,)), 8) for e in (2, 3)]
    # equal charges, gapped charges and d = 4
    cases += [(ChargeParams(2, 3, (0, 0)), 6), (ChargeParams(2, 5, (1, 3)), 6),
              (ChargeParams(3, 4, (0, 1, 3)), 5), (ChargeParams(4, 2, (0, 0, 1, 1)), 4)]
    for p, cap in cases:
        gf = crystal_graph(p, cap, "flotw")
        ga = crystal_graph(p, cap, "am")
        for n in range(cap + 1):
            assert list(gf.vertices(n)) == flotw_multipartitions(p, n)
            assert list(ga.vertices(n)) == [mp for mp in enumerate_multipartitions(p.d, n)
                                            if is_kleshchev(mp, p)]


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
        p = ChargeParams(1, e, (0,))
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
    calls = (is_kleshchev, is_flotw, bijection_j, bijection_j_inverse,
             lambda mp, p: good_addable_node(mp, 0, "am", p),
             lambda mp, p: good_removable_node(mp, 0, "am", p),
             lambda mp, p: f_divided(FockVector.unit(mp), 1, 1, "am", p))
    for mp in (((1,),), ((2,),), ((2,), (), ())):
        for fn in calls:
            with pytest.raises(ValueError, match="expected 2 components"):
                fn(mp, P24)


def test_public_functions_return_node_records():
    # Node == tuple holds, so only the type shows a bare tuple escaping
    for p in GRID:
        for order in ("am", "flotw"):
            graph = crystal_graph(p, 4, order)
            for level_edges in graph.edges:
                assert all(type(g) is Node for _, _, g, _ in level_edges)
            for r in range(4):
                for mp in graph.vertices(r):
                    for i in range(p.e):
                        for g in (good_addable_node(mp, i, order, p),
                                  good_removable_node(mp, i, order, p)):
                            assert g is None or type(g) is Node
        for mp in crystal_graph(p, 4, "flotw").vertices(4):
            assert all(type(g) is Node for g in peel_step(mp, p).removed)
            assert all(type(g) is Node for _, g, _ in a_graph(mp, p).steps)


def test_hot_scans_build_no_node_records():
    # the row scans carry plain (row, col, comp) tuples
    scans = {charge: ["i_signature", "border_signatures", "am_reduced_signature",
                      "am_reduced_signatures"],
             fock: ["_moves"], aseq: ["_peel"]}
    for module, names in scans.items():
        tree = ast.parse(inspect.getsource(module))
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in names:
                names.remove(fn.name)
                assert not any(getattr(node, "id", getattr(node, "attr", None)) == "Node"
                               for node in ast.walk(fn)), fn.name
        assert names == [], f"{module.__name__} lost {names}"


def test_string_moves_equal_one_node_moves():
    # the walks' unchecked i-string moves equal the checked one-node moves,
    # on every lowering f_i^k and every raising e_i^k of every vertex
    def one_by_one(mp, nodes, move):
        for g in nodes:
            mp = move(mp, g)
        return mp

    appended = emptied = 0
    for p in (ChargeParams(3, 4, (0, 1, 3)), ChargeParams(2, 3, (0, 0))):
        for order in ("am", "flotw"):
            graph = crystal_graph(p, 7, order)
            for level in graph.levels:
                for mp in level:
                    for i in range(p.e):
                        addable, removable = _reduced_signature(mp, i, order, p)
                        for k in range(1, len(addable) + 1):
                            assert _moved(mp, addable[:k], 1) == \
                                one_by_one(mp, addable[:k], add_node), (mp, i, k)
                        if removable:
                            assert _moved(mp, removable, -1) == \
                                one_by_one(mp, removable, remove_node), (mp, i)
                        appended += any(a > len(mp[c]) for a, _, c in addable)
                        emptied += any(b == 1 for _, b, _ in removable)
            for level_edges in graph.edges:
                for src, _, g, dst in level_edges:
                    assert _moved(src, (g,), 1) == dst and _moved(dst, (g,), -1) == src
    assert appended and emptied


def test_bijection_rejects_non_members():
    with pytest.raises(ValueError):
        bijection_j(((1, 1),), D1E2)
    with pytest.raises(ValueError):
        bijection_j_inverse(((), (1, 1)), P24)


def _count_scans(monkeypatch):
    """{order: a Counter by multipartition of the all-residue passes that
    order's walks read}, through the names crystal calls."""
    import ariki.crystal as crystal
    passes = {"am": "am_reduced_signatures", "flotw": "border_signatures"}
    calls = {order: Counter() for order in passes}

    def counted(seen, real):
        def counting(mp, p):
            seen[mp] += 1
            return real(mp, p)
        return counting

    for order, name in passes.items():
        monkeypatch.setattr(crystal, name, counted(calls[order], getattr(crystal, name)))
    return calls


def test_signature_count_does_not_grow_with_e(monkeypatch):
    # the all-residue passes key only the residues that occur, and the walks
    # try only those, so a huge e costs no more scans and no more cancellations
    # than a small one (a list of e residues would take tens of seconds at
    # e = 10**6, and a walk that cancelled every residue would cost e)
    import ariki.crystal as crystal
    signatures, cancelled = Counter(), Counter()
    real_signature, real_cancelled = crystal._reduced_signature, crystal._cancelled

    def counted_signature(mp, i, order, p):
        signatures[p.e] += 1
        return real_signature(mp, i, order, p)

    def counted_cancelled(items):
        cancelled[e] += 1
        return real_cancelled(items)

    monkeypatch.setattr(crystal, "_reduced_signature", counted_signature)
    monkeypatch.setattr(crystal, "_cancelled", counted_cancelled)
    calls, scans = _count_scans(monkeypatch), {}
    for e in (5, 10**6):
        p = ChargeParams(1, e, (0,))
        for seen in calls.values():
            seen.clear()
        assert is_kleshchev(((2, 1),), p)
        bijection_j_inverse(((2, 1),), p)
        for order in ("am", "flotw"):
            crystal_graph(p, 3, order)
        crystal_bijection(ChargeParams(2, e, (0, 1)), 3)
        scans[e] = {order: sum(seen.values()) for order, seen in calls.items()}
    assert scans[5] == scans[10**6] and all(scans[5].values())
    assert signatures[5] == signatures[10**6] > 0
    assert cancelled[5] == cancelled[10**6] > 0


def test_crystal_graph_scans_each_vertex_once(monkeypatch):
    # one all-residue pass of the order per vertex of ranks 0..n-1, which
    # grow the edges, and none of the other order's
    calls = _count_scans(monkeypatch)
    for p in GRID:
        for order in ("am", "flotw"):
            for seen in calls.values():
                seen.clear()
            graph = crystal_graph(p, 6, order)
            below = [mp for level in graph.levels[:-1] for mp in level]
            other = "flotw" if order == "am" else "am"
            assert calls[order] == Counter(below) and not calls[other], (p, order)


def test_graph_bijection_scans_each_source_once(monkeypatch):
    # one component-major pass of each source's image, whatever its number
    # of edges
    from ariki.crystal import _graph_bijection
    calls = _count_scans(monkeypatch)
    for p in (*GRID, ChargeParams(3, 4, (0, 1, 3))):
        graph = crystal_graph(p, 6, "flotw")
        for seen in calls.values():
            seen.clear()
        _graph_bijection(graph, p)
        sources = {src for level_edges in graph.edges for src, _, _, _ in level_edges}
        assert sum(calls["am"].values()) == len(sources) < sum(map(len, graph.edges)), p
        assert not calls["flotw"], p


def test_raising_path_scans_once_per_step(monkeypatch):
    # a raising path makes one all-residue pass of its order per (residue, k)
    # step, and a multipartition that gets stuck one per step until it does
    from ariki.crystal import _raising_path
    calls, stuck = _count_scans(monkeypatch), 0
    for p in GRID:
        for order in ("am", "flotw"):
            other = "flotw" if order == "am" else "am"
            for n in range(7):
                for mp in enumerate_multipartitions(p.d, n):
                    for seen in calls.values():
                        seen.clear()
                    path = _raising_path(mp, order, p)
                    scans = calls[order]
                    assert not calls[other], (p, order, mp)
                    if path is None:
                        stuck += 1
                        assert 0 < sum(scans.values()) <= n, (p, order, mp)
                    else:
                        assert sum(scans.values()) == len(path), (p, order, mp)
                        assert all(count == 1 for count in scans.values())
    assert stuck


def test_kleshchev_differs_from_flotw_in_general():
    # the two vertex sets agree in cardinality but not elementwise
    found = False
    for n in range(6):
        if set(kleshchev_multipartitions(P24, n)) != set(flotw_multipartitions(P24, n)):
            found = True
    assert found


def _reduced_signature_oracle(mp, i, s, p):
    """The generic addable/removable filters, sorted lowest first in the
    order of the charge s and cancelled by hand."""
    key = below_key(s, p)
    items = sorted([(g, True) for g in addable_i_nodes(mp, i, p)]
                   + [(g, False) for g in removable_i_nodes(mp, i, p)],
                   key=lambda item: key(item[0]))
    if len({key(g) for g, _ in items}) != len(items):
        raise RuntimeError(f"two {i}-nodes of {mp} tie in the order of {s}")
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
            charges = (("am", asymptotic_charge(p, n)), ("flotw", p.v))
            for mp in enumerate_multipartitions(p.d, n):
                for order, s in charges:
                    for i in range(p.e):
                        assert _reduced_signature(mp, i, order, p) == \
                            _reduced_signature_oracle(mp, i, s, p), (mp, i, order)


def test_all_residue_pass_matches_generic_filters():
    # the pass that cancels every residue as it scans keys only the residues
    # that occur; a residue it leaves out has no i-node at all
    for p in VERIFY_GRID:
        for n in range(7):
            s = asymptotic_charge(p, n)
            for mp in enumerate_multipartitions(p.d, n):
                scan = charge.am_reduced_signatures(mp, p)
                assert set(scan) <= set(range(p.e)), mp
                for i in range(p.e):
                    assert scan.get(i, ([], [])) == \
                        _reduced_signature_oracle(mp, i, s, p), (mp, i)
                    assert (i in scan) == bool(addable_i_nodes(mp, i, p)
                                               or removable_i_nodes(mp, i, p)), (mp, i)
    with pytest.raises(ValueError, match="out of range"):
        charge.am_reduced_signatures(((1,), (), ()), P24)
    with pytest.raises(ValueError, match="out of range"):
        charge.am_reduced_signature(((1,), (), ()), 0, P24)


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
