"""Straightened basis vectors, decomposition matrices, and their shape."""

from fractions import Fraction

import pytest

from ariki._oracles import compute_A, diagram_residues, replayed_basis
from ariki.aseq import peel_step
from ariki.canonical import (DecompositionMatrix, _bar_symmetric_completion,
                             _bases_by_rank, _elements, canonical_basis, decomposition_matrix,
                             simple_module_a_values)
from ariki.charge import ChargeParams, is_semisimple
from ariki.crystal import crystal_graph, flotw_multipartitions
from ariki.fock import FockVector
from ariki.laurent import LaurentPoly
from ariki.partitions import enumerate_multipartitions, rank
from ariki.symbols import a_value
from ariki.typeb import decomposition_matrix_b, even_charge_params
from ariki.verification import GRID

P24 = ChargeParams(2, 4, (0, 1))
D1E2 = ChargeParams(1, 2, (0,), 0)


def test_compute_A_examples():
    vec = compute_A(((2,),), D1E2)
    assert vec.coefficient(((2,),)) == LaurentPoly.one()
    assert vec.coefficient(((1, 1),)) == LaurentPoly.q_power(1)
    assert len(vec.support()) == 2

    assert compute_A(((), ()), P24) == FockVector.unit(((), ()))

    lam = ((2, 2), (2, 2, 1))
    vec = compute_A(lam, P24)
    assert vec.coefficient(lam) == LaurentPoly.one()
    a_lam = a_value(lam, P24)
    for mu in vec.support():
        if mu != lam:
            assert a_value(mu, P24) > a_lam


def test_compute_A_support_triangular_small():
    for n in range(5):
        for lam in flotw_multipartitions(P24, n):
            vec = compute_A(lam, P24)
            assert vec.coefficient(lam) == LaurentPoly.one()
            a_lam = a_value(lam, P24)
            for mu in vec.support():
                if mu != lam:
                    assert a_value(mu, P24) > a_lam


def test_bar_symmetric_completion():
    c = LaurentPoly({-2: 3, 0: 1, 1: 5})
    gamma = _bar_symmetric_completion(c)
    assert gamma == LaurentPoly({-2: 3, 0: 1, 2: 3})
    assert gamma == gamma.bar()
    assert (c - gamma).in_q_zq()


def test_canonical_basis_small_known():
    basis = canonical_basis(D1E2, 2)
    assert [el.label for el in basis] == [((2,),)]
    vec = basis[0].vector
    assert vec.coefficient(((2,),)) == LaurentPoly.one()
    assert vec.coefficient(((1, 1),)) == LaurentPoly.q_power(1)


def test_canonical_basis_counts_match_crystal():
    for n in range(5):
        assert len(canonical_basis(P24, n)) == len(flotw_multipartitions(P24, n))


def test_canonical_basis_structure():
    for p, cap in ((P24, 5), (ChargeParams(2, 2, (0, 1)), 4)):
        for n in range(cap + 1):
            avals = {mp: a_value(mp, p) for mp in enumerate_multipartitions(p.d, n)}
            for el in canonical_basis(p, n):
                assert el.vector.coefficient(el.label) == LaurentPoly.one()
                for nu in el.vector.support():
                    if nu == el.label:
                        continue
                    c = el.vector.coefficient(nu)
                    assert c.in_q_zq()
                    assert c.at_one() >= 0
                    assert avals[nu] > avals[el.label]


def test_rank_recursion_matches_compute_A_replay():
    # f_k^(c) G(peel rest), straightened, against compute_A straightened:
    # the paper's A-vectors replayed from the empty vector are the oracle
    cases = [(p, 5 if p.d == 3 else 6) for p in GRID]
    cases += [(ChargeParams(1, e, (0,), 0), 9) for e in (2, 3)]
    for p, cap in cases:
        for n in range(cap + 1):
            assert canonical_basis(p, n) == replayed_basis(p, n), (p, n)


def test_every_yielded_rank_is_that_rank_canonical_basis():
    # one walk to rank 5 yields ranks 0..5; each must be the basis a walk
    # stopping at that rank builds
    top = 5
    for p in GRID:
        levels = crystal_graph(p, top, "flotw").levels
        avals = {mp: a_value(mp, p) for level in levels for mp in level}
        ranks = list(_bases_by_rank(p, levels, avals))
        assert len(ranks) == top + 1
        for r, basis in enumerate(ranks):
            assert _elements(basis, avals) == canonical_basis(p, r), (p, r)


def test_one_crystal_walk_per_matrix(monkeypatch):
    # the diagonal walk labels the columns, gives their Kleshchev duals and
    # builds the basis; odd-e type B reads every factor off one type-A walk
    import ariki.canonical as canonical
    import ariki.typeb as typeb
    calls = []

    def counted(real):
        def counting(p, n, order):
            calls.append(order)
            return real(p, n, order)
        return counting

    for module in (canonical, typeb):
        monkeypatch.setattr(module, "crystal_graph", counted(module.crystal_graph))
    for p, n in ((P24, 5), (ChargeParams(3, 3, (0, 1, 2)), 4), (D1E2, 6)):
        calls.clear()
        decomposition_matrix(p, n)
        assert calls == ["flotw"], (p, n)
    for n, e in ((6, 3), (5, 5), (0, 3)):
        calls.clear()
        decomposition_matrix_b(n, e)
        assert calls == ["flotw"], (n, e)


def test_one_move_table_per_rank(monkeypatch):
    # the lifts of one rank share one table of divided-power moves, so no
    # (lam, residue) is scanned twice for the same target rank
    import ariki.fock as fock
    computed = []
    real = fock._moves

    def counting(lam, i, j, order, p):
        computed.append((rank(lam) + j, lam, i))
        return real(lam, i, j, order, p)

    monkeypatch.setattr(fock, "_moves", counting)
    for p, n in ((ChargeParams(2, 2, (0, 1)), 9), (P24, 8)):
        computed.clear()
        canonical_basis(p, n)
        assert computed and len(set(computed)) == len(computed), p


def test_peel_rest_must_be_a_finished_label(monkeypatch):
    import ariki.canonical as canonical
    real = canonical._peel
    monkeypatch.setattr(canonical, "_peel",
                        lambda mp, p: real(mp, p)._replace(rest=mp))
    with pytest.raises(RuntimeError, match="not a finished label"):
        canonical_basis(P24, 2)


def test_records_are_immutable_values():
    m = decomposition_matrix(P24, 3)
    fields = {f: getattr(m, f) for f in ("rows", "columns", "kleshchev_labels",
                                         "row_a_values", "column_a_values")}
    dense = DecompositionMatrix(**fields, entries=m.entries)
    sparse = DecompositionMatrix(**fields, nonzero=m.nonzero)
    assert dense == sparse == m and hash(dense) == hash(sparse)
    step = peel_step(((2,), (1,)), P24)
    graph = crystal_graph(P24, 2, "flotw")
    for record, name in ((m, "rows"), (m, "entries"), (m, "other"), (step, "rest"),
                         (step, "other"), (graph, "levels"), (graph, "other")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_decomposition_matrix_d1e2():
    m = decomposition_matrix(D1E2, 2)
    assert m.rows == (((2,),), ((1, 1),))
    assert m.columns == (((2,),),)
    assert m.entries == ((1,), (1,))
    assert m.kleshchev_labels == (((2,),),)


def test_decomposition_matrix_d1e3():
    m = decomposition_matrix(ChargeParams(1, 3, (0,), 0), 3)
    assert m.columns == (((3,),), ((2, 1),))
    assert m.entry(((3,),), ((3,),)) == 1
    assert m.entry(((2, 1),), ((3,),)) == 1
    assert m.entry(((1, 1, 1),), ((2, 1),)) == 1
    assert m.entry(((1, 1, 1),), ((3,),)) == 0


def test_matrix_stores_only_nonzeros():
    # the pipeline's matrices hold one (column, entry) pair per nonzero cell,
    # by ascending column, and agree with their dense view
    matrices = [decomposition_matrix(p, n) for p in GRID for n in range(6)]
    matrices += [decomposition_matrix_b(n, e) for e in (2, 3, 4, 5) for n in range(7)]
    for m in matrices:
        dense = m.entries
        assert len(dense) == len(m.rows) and all(len(row) == len(m.columns) for row in dense)
        assert (sum(len(pairs) for pairs in m.nonzero)
                == sum(1 for row in dense for x in row if x))
        for pairs in m.nonzero:
            columns = [j for j, _ in pairs]
            assert all(x for _, x in pairs) and columns == sorted(set(columns))
        identity = tuple(tuple(int(i == j) for j in range(len(m.columns)))
                         for i in range(len(m.rows)))
        assert m.is_identity() == (len(m.rows) == len(m.columns) and dense == identity)
        fields = {f: getattr(m, f) for f in ("rows", "columns", "kleshchev_labels",
                                             "row_a_values", "column_a_values")}
        assert DecompositionMatrix(**fields, entries=dense) == m
        with pytest.raises(TypeError):
            DecompositionMatrix(**fields)
        with pytest.raises(TypeError):
            DecompositionMatrix(**fields, entries=dense, nonzero=m.nonzero)
    # square and unitriangular is not enough for the identity
    labels = (((2,),), ((1, 1),))
    for dense, identity in ((((1, 0), (0, 1)), True), (((1, 1), (0, 1)), False),
                            (((1, 0), (1, 1)), False)):
        m = DecompositionMatrix(rows=labels, columns=labels, kleshchev_labels=labels,
                                row_a_values=(0, 1), column_a_values=(0, 1),
                                entries=dense)
        assert m.is_identity() == identity and m.entries == dense


def test_semisimple_matrix_is_identity():
    cases = [(ChargeParams(1, 5, (0,), 0), 2), (ChargeParams(2, 5, (0, 2)), 2)]
    for p, n in cases:
        assert is_semisimple(p, n)
        m = decomposition_matrix(p, n)
        assert m.is_identity()
        assert m.rows == m.columns
        # every basis element degenerates to a bare unit vector
        for el in canonical_basis(p, n):
            assert el.vector == FockVector.unit(el.label)


def test_matrix_unitriangular_shape():
    for n in range(6):
        m = decomposition_matrix(P24, n)
        col_index = {mp: j for j, mp in enumerate(m.columns)}
        for i, row in enumerate(m.rows):
            for j, col in enumerate(m.columns):
                entry = m.entries[i][j]
                assert entry >= 0
                if entry and row != col:
                    assert m.row_a_values[i] > m.column_a_values[j]
            # a crystal-labeled row has a single 1 at its own column beyond
            # the strictly-smaller-a region
            if row in col_index:
                assert m.entries[i][col_index[row]] == 1


def test_crystal_rows_only_reference_smaller_a_columns():
    for n in range(6):
        m = decomposition_matrix(P24, n)
        for i, row in enumerate(m.rows):
            if row not in m.columns:
                continue
            for j, col in enumerate(m.columns):
                if m.entries[i][j] and col != row:
                    assert m.column_a_values[j] < m.row_a_values[i]


def test_matrix_a_values_are_fractions():
    # the pipeline sorts on the integers d*a; the matrix reports a itself
    for p in GRID:
        matrix = decomposition_matrix(p, 5)
        for labels, values in ((matrix.rows, matrix.row_a_values),
                               (matrix.columns, matrix.column_a_values)):
            assert len(labels) == len(values)
            for mp, a in zip(labels, values):
                assert type(a) is Fraction and a == a_value(mp, p), (p, mp, a)


def test_simple_module_a_values():
    values = simple_module_a_values(D1E2, 2)
    assert values == {((2,),): 0}
    p5 = ChargeParams(1, 5, (0,), 0)
    values = simple_module_a_values(p5, 2)
    for mp, a in values.items():
        assert a == a_value(mp, p5)
    for p in (P24, ChargeParams(2, 2, (0, 1)), ChargeParams(2, 4, (1, 2))):
        for n in range(5):
            simple_module_a_values(p, n)  # raises on any min-identity failure


def test_decomposition_matrix_agrees_with_canonical_basis():
    # decomposition_matrix straightens with the a-values of every row,
    # canonical_basis with those of its labels only
    for p in GRID:
        for n in range(6):
            m = decomposition_matrix(p, n)
            basis = canonical_basis(p, n)
            assert m.columns == tuple(el.label for el in basis)
            assert m.column_a_values == tuple(a_value(el.label, p) for el in basis)
            for j, el in enumerate(basis):
                spec = el.vector.at_one()
                assert [row[j] for row in m.entries] == [spec.get(mp, 0) for mp in m.rows]


def test_nonzero_entries_share_residue_content():
    # block structure: f_i preserves residue content, and the blocks of the
    # algebra are its content classes (Lyle-Mathas 2007), so a nonzero
    # entry joins a row and a column of equal content
    cases = [(p, decomposition_matrix(p, n)) for p in GRID for n in range(7)]
    cases += [(even_charge_params(e), decomposition_matrix_b(n, e))
              for e in (2, 4) for n in range(7)]
    checked = 0
    for p, m in cases:
        content = {mp: diagram_residues(mp, p) for mp in m.rows}
        for mp, row in zip(m.rows, m.entries):
            for col, x in zip(m.columns, row):
                if x:
                    assert content[mp] == content[col], (p, mp, col)
                    checked += 1
    assert checked > len(cases)


def _hook_dimension(p):
    from math import factorial
    if not p:
        return 1
    col_heights = [sum(1 for x in p if x >= j) for j in range(1, p[0] + 1)]
    dim = factorial(sum(p))
    for i, row in enumerate(p):
        for j in range(row):
            dim //= (row - j) + (col_heights[j] - i) - 1
    return dim


def test_d1_matrices_admit_consistent_simple_dimensions():
    # hook-length dimensions give an oracle fully independent of the basis
    # computation: the matrix must map some positive integer dimension
    # vector for the simples onto every Specht dimension exactly
    for e, n in ((2, 4), (3, 4), (2, 5), (3, 5), (4, 5)):
        m = decomposition_matrix(ChargeParams(1, e, (0,), 0), n)
        rows, cols = list(m.rows), list(m.columns)
        specht = {mp: _hook_dimension(mp[0]) for mp in rows}
        simple = {}
        for j, col in enumerate(cols):
            i = rows.index(col)
            simple[col] = specht[col] - sum(
                m.entries[i][k] * simple[cols[k]]
                for k in range(len(cols)) if k != j and m.entries[i][k])
        assert all(v > 0 for v in simple.values())
        for i, row in enumerate(rows):
            assert specht[row] == sum(m.entries[i][j] * simple[cols[j]]
                                      for j in range(len(cols)))


def test_d1_e2_n4_matches_classical_matrix():
    m = decomposition_matrix(ChargeParams(1, 2, (0,), 0), 4)
    got = {m.rows[i]: m.entries[i] for i in range(len(m.rows))}
    assert got == {((4,),): (1, 0), ((3, 1),): (1, 1), ((2, 2),): (0, 1),
                   ((2, 1, 1),): (1, 1), ((1, 1, 1, 1),): (1, 0)}
