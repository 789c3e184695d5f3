"""Straightened basis vectors, decomposition matrices, and their shape."""

from fractions import Fraction

import pytest

from ariki._oracles import compute_A, diagram_residues, replayed_basis, straighten_by_scan
from ariki.aseq import peel_step
from ariki.canonical import (DecompositionMatrix, _bar_symmetric_completion,
                             _bases_by_rank, _elements, _packed_basis, _straighten,
                             _top_basis, _unpacked, canonical_basis, decomposition_matrix,
                             simple_module_a_values)
from ariki.charge import ChargeParams
from ariki.crystal import crystal_graph, flotw_multipartitions
from ariki.fock import FockVector, _Ids
from ariki.laurent import LaurentPoly, digit_width, low_mask, pack, unpack
from ariki.partitions import enumerate_multipartitions, rank
from ariki.symbols import _ScaledAValues, a_value
from ariki.typeb import decomposition_matrix_b
from ariki.verification import GRID

P24 = ChargeParams(2, 4, (0, 1))
D1E2 = ChargeParams(1, 2, (0,))


def q(k):
    """The monomial q^k."""
    return LaurentPoly({k: 1})


# the digit width of the hand-built ranks, whose coefficients are small
W = 16


def _straightened(starts, avals, offset):
    """_straighten of a hand-built rank, its start vectors packed at offset:
    the packed elements, and the same unpacked into FockVectors."""
    ids = _Ids()

    def start(key):
        return {ids[mu]: pack(c.coeffs, W, offset)
                for mu, c in starts[ids.tuples[key]].items()}, offset
    packed = _straighten(list(starts), set(starts), avals, start, W, {}, ids)
    return packed, _unpacked(packed, W, ids.tuples)


def test_compute_A_examples():
    vec = compute_A(((2,),), D1E2)
    assert vec.coefficient(((2,),)) == LaurentPoly.one()
    assert vec.coefficient(((1, 1),)) == LaurentPoly({1: 1})
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
    # on packed coefficients, at several offsets that fit, with a negative
    # digit below exponent 0 and one above it
    for coeffs, expect in (({-2: 3, 0: 1, 1: 5}, {-2: 3, 0: 1, 2: 3}),
                           ({-1: -2, 0: 1, 2: -7}, {-1: -2, 0: 1, 1: -2})):
        c = LaurentPoly(coeffs)
        for offset in (2, 3, 6):
            x = pack(c.coeffs, W, offset)
            packed = _bar_symmetric_completion(x, W, offset)
            gamma = LaurentPoly(unpack(packed, W, offset))
            assert gamma == LaurentPoly(expect)
            assert gamma == gamma.bar()
            assert not (x - packed) & low_mask(W, offset)


def test_subtraction_that_makes_an_offending_coefficient_queues_it():
    # a hand-built rank A < B < C by a-value.  A's coefficient at B is
    # q^-1, at C q^3, which is in q*Z[q], so only B is queued at first.
    # Correcting B subtracts (q^-1 + q)(B - q C), which leaves q^3 + q^2 + 1
    # at C: C must be queued then and corrected after B, as a scan would.
    # No grid point reaches this path.
    A, B, C = ((2,), ()), ((1,), (1,)), ((), (2,))
    starts = {C: {C: q(0)}, B: {B: q(0), C: -q(1)},
              A: {A: q(0), B: q(-1), C: q(3)}}
    avals = {A: 0, B: 1, C: 2}
    for offset in (1, 4):
        _, basis = _straightened(starts, avals, offset)
        assert basis[A] == FockVector({A: 1, B: LaurentPoly({1: -1}),
                                       C: LaurentPoly({3: 1, 2: 1})})
        assert basis == straighten_by_scan(list(starts), avals, lambda mp: starts[mp])


def test_negative_correction_coefficient_raises():
    # by positivity every correction coefficient lies in N[q, q^-1]; a start
    # vector with -q^-1 at a label of larger a-value asks for -(q^-1 + q)
    A, B = ((2,), ()), ((1,), (1,))
    starts = {B: {B: q(0)}, A: {A: q(0), B: -q(-1)}}
    with pytest.raises(RuntimeError, match=r"is not in N\[q, q\^-1\]"):
        _straightened(starts, {A: 0, B: 1}, 1)


_A, _B, _C, _D = ((2,), ()), ((1, 1), ()), ((1,), (1,)), ((), (2,))


@pytest.mark.parametrize("a_start,gone", [
    # B's element has D, which A's start lacks: the subtraction makes the term
    ({_A: LaurentPoly.one(), _B: LaurentPoly({-1: 1}), _C: LaurentPoly({5: 1})}, None),
    # (q^-1 + q) q^2 cancels A's coefficient q + q^3 at C to zero
    ({_A: LaurentPoly.one(), _B: LaurentPoly({-1: 1}), _C: LaurentPoly({1: 1, 3: 1})}, _C),
], ids=["new-term", "cancel-to-zero"])
def test_in_place_subtraction_edge_terms(a_start, gone):
    # a hand-built rank A < B < C < D by a-value; A is corrected once, at B,
    # by gamma = q^-1 + q, and the result must be that subtraction done in
    # LaurentPoly arithmetic, with no zero coefficient left in any vector
    starts = {_D: {_D: q(0)}, _C: {_C: q(0)},
              _B: {_B: q(0), _C: q(2), _D: q(2)}, _A: a_start}
    avals = {_A: 0, _B: 1, _C: 2, _D: 3}
    packed, basis = _straightened(starts, avals, 1)
    gamma = LaurentPoly({-1: 1, 1: 1})
    expect = {mu: starts[_A].get(mu, LaurentPoly()) - gamma * basis[_B].coefficient(mu)
              for mu in set(starts[_A]) | set(basis[_B].terms)}
    assert basis[_A].terms == {mu: c for mu, c in expect.items() if c}
    assert _D in basis[_A].terms and gone not in basis[_A].terms
    assert all(x for element in packed.values() for x in element.values())
    assert basis == straighten_by_scan(list(starts), avals, lambda mp: starts[mp])


def test_canonical_basis_small_known():
    basis = canonical_basis(D1E2, 2)
    assert [el.label for el in basis] == [((2,),)]
    vec = basis[0].vector
    assert vec.coefficient(((2,),)) == LaurentPoly.one()
    assert vec.coefficient(((1, 1),)) == LaurentPoly({1: 1})


def test_canonical_basis_counts_match_crystal():
    for n in range(5):
        assert len(canonical_basis(P24, n)) == len(flotw_multipartitions(P24, n))


def test_rank_recursion_matches_compute_A_replay():
    # f_k^(c) G(peel rest), straightened, against compute_A straightened:
    # the paper's A-vectors replayed from the empty vector are the oracle
    cases = [(p, 5 if p.d == 3 else 6) for p in GRID]
    cases += [(ChargeParams(1, e, (0,)), 9) for e in (2, 3)]
    for p, cap in cases:
        for n in range(cap + 1):
            assert canonical_basis(p, n) == replayed_basis(p, n), (p, n)


def test_digit_width_is_load_bearing(monkeypatch):
    # at the derived width the walk to (2,2,(0,1)) n=9 gives the replay's
    # basis; at 2-bit digits its coefficients overflow, and the walk must
    # then raise or give another basis
    import ariki.canonical as canonical
    p, n = ChargeParams(2, 2, (0, 1)), 9
    replayed = replayed_basis(p, n)
    assert canonical_basis(p, n) == replayed
    monkeypatch.setattr(canonical, "digit_width", lambda n: 2)
    try:
        narrow = canonical_basis(p, n)
    except RuntimeError:
        return
    assert narrow != replayed


def test_every_yielded_rank_is_that_rank_canonical_basis():
    # one walk to rank 5 that wants every label yields ranks 0..5 whole; each
    # must be the basis a walk stopping at that rank builds.  A walk that
    # wants only the top level yields at each rank some of those elements
    top = 5
    for p in GRID:
        levels = crystal_graph(p, top, "flotw").levels
        every = {mp for level in levels for mp in level}
        avals = {mp: a_value(mp, p) for mp in every}
        width = digit_width(top)
        ids, demand_ids = _Ids(), _Ids()
        ranks = [_unpacked(basis, width, ids.tuples)
                 for basis in _bases_by_rank(p, every, every, avals, width, ids)]
        assert len(ranks) == top + 1
        for r, basis in enumerate(ranks):
            assert _elements(basis, avals) == canonical_basis(p, r), (p, r)
        demanded = [_unpacked(basis, width, demand_ids.tuples) for basis
                    in _bases_by_rank(p, levels[top], every, avals, width, demand_ids)]
        assert demanded[top] == ranks[top], p
        for r, basis in enumerate(demanded):
            assert basis and all(ranks[r][mp] == vec for mp, vec in basis.items()), (p, r)


def _peel_closure(p, levels):
    """The top level's labels with every rest their peels reach."""
    closure = set(levels[-1])
    for level in reversed(levels[1:]):
        for mp in level:
            if mp in closure:
                closure.add(peel_step(mp, p).rest)
    return closure


def test_walk_to_the_top_lifts_the_peel_closure_and_what_corrections_reach(monkeypatch):
    # canonical_basis lifts each label of the top level's peel closure once,
    # and the few labels outside it that a correction reaches; at
    # (2,2,(0,1)) n=10 that is 102 + 4 of the walk's 142 labels.  It peels
    # those labels once each and no other vertex of the walk
    import ariki.canonical as canonical
    p, n = ChargeParams(2, 2, (0, 1)), 10
    levels = crystal_graph(p, n, "flotw").levels
    lifted, peeled = [], []
    real_leading, real_peel = canonical._leading_one, canonical._peel
    monkeypatch.setattr(canonical, "_leading_one",
                        lambda mp, *rest: (lifted.append(mp), real_leading(mp, *rest))[1])
    monkeypatch.setattr(canonical, "_peel",
                        lambda mp, p: (peeled.append(mp), real_peel(mp, p))[1])
    canonical_basis(p, n)
    closure = _peel_closure(p, levels) - set(levels[0])
    on_demand = set(lifted) - closure
    assert len(lifted) == len(set(lifted)) and closure <= set(lifted)
    assert sorted(peeled) == sorted(lifted)
    assert (len(closure), len(on_demand), sum(map(len, levels[1:]))) == (102, 4, 142)
    assert on_demand <= set().union(*levels[1:])


def test_one_block_at_a_time():
    # a block is the top level's labels of one residue content; at its own
    # rank one block's basis reads no element of another block, so a walk
    # that wants one block alone builds each of its elements as the whole
    # walk does
    cases = [(p, 6 if p.d == 3 else 8) for p in GRID] + [(P24, 14)]
    for p, n in cases:
        levels = crystal_graph(p, n, "flotw").levels
        every = {mp for level in levels for mp in level}
        avals = _ScaledAValues(p)
        width = digit_width(n)
        full = _top(p, levels, avals, width)
        blocks = {}
        for mp in levels[n]:
            blocks.setdefault(tuple(diagram_residues(mp, p).items()), []).append(mp)
        assert len(blocks) > 1, (p, n)
        for block in blocks.values():
            basis = _last_rank(p, block, every, avals, width)
            assert set(block) <= set(basis), (p, n, block)
            assert all(full[mp] == vec for mp, vec in basis.items()), (p, n, block)


def _top(p, levels, avals, width):
    """_top_basis unpacked: the top level's {label: FockVector}."""
    ids = _Ids()
    return _unpacked(_top_basis(p, levels, avals, width, ids), width, ids.tuples)


def _last_rank(p, wanted, vertices, avals, width):
    """The last rank _bases_by_rank yields, unpacked into {label: FockVector}."""
    ids = _Ids()
    *_, basis = _bases_by_rank(p, wanted, vertices, avals, width, ids)
    return _unpacked(basis, width, ids.tuples)


def test_label_built_on_demand_without_its_rest_replays_the_rest(monkeypatch):
    # wanting one top label at (2,2,(0,1)) n=9: its corrections reach labels
    # outside its own peel chain, whose rests the walk did not build or no
    # longer holds, so each starts from its rest's replayed A-vector; every
    # element built must be the full walk's
    import ariki.canonical as canonical
    p, n = ChargeParams(2, 2, (0, 1)), 9
    levels = crystal_graph(p, n, "flotw").levels
    avals = _ScaledAValues(p)  # d*a of every label the walks read
    width = digit_width(n)
    full = _top(p, levels, avals, width)
    assert len(full) == len(levels[n])
    every = {mp for level in levels for mp in level}
    replayed = []
    real = canonical._blocks
    monkeypatch.setattr(canonical, "_blocks",
                        lambda mp, p: (replayed.append(mp), real(mp, p))[1])
    for label in levels[n]:
        basis = _last_rank(p, [label], every, avals, width)
        assert label in basis and all(full[mp] == vec for mp, vec in basis.items()), label
    assert len(replayed) == 48


def test_one_symbol_row_computation_per_call(monkeypatch):
    # each call reads every a-value, of its rows and of every rank of its
    # walk, from one table, so no symbol row is computed twice
    import ariki.symbols as symbols
    rows = []
    real = symbols._scaled_row

    def counting(entries, i, comp, h, p):
        rows.append((p, i, comp, h))
        return real(entries, i, comp, h, p)

    monkeypatch.setattr(symbols, "_scaled_row", counting)
    for call in (lambda: decomposition_matrix(P24, 8),
                 lambda: canonical_basis(ChargeParams(2, 2, (0, 1)), 9),
                 lambda: decomposition_matrix_b(8, 3)):
        rows.clear()
        call()
        assert rows and len(set(rows)) == len(rows), len(rows) - len(set(rows))


def test_one_crystal_walk_per_matrix(monkeypatch):
    # the diagonal walk labels the columns, gives their Kleshchev duals and
    # builds the basis; odd-e type B reads its type-A labels off the basic
    # set and walks no crystal, even-e type B walks the one of its charges
    import ariki.canonical as canonical
    import ariki.crystal as crystal
    calls = []

    def counted(real):
        def counting(p, n, order):
            calls.append(order)
            return real(p, n, order)
        return counting

    for module in (canonical, crystal):
        monkeypatch.setattr(module, "crystal_graph", counted(module.crystal_graph))
    for p, n in ((P24, 5), (ChargeParams(3, 3, (0, 1, 2)), 4), (D1E2, 6)):
        calls.clear()
        decomposition_matrix(p, n)
        assert calls == ["flotw"], (p, n)
    for n, e, walks in ((6, 3, []), (5, 5, []), (0, 3, []), (5, 4, ["flotw"])):
        calls.clear()
        decomposition_matrix_b(n, e)
        assert calls == walks, (n, e)


def test_one_move_table_per_rank(monkeypatch):
    # the lifts of one rank share one table of divided-power moves, so no
    # (lam, residue) is scanned twice for the same target rank, whether the
    # walk wants every label or the top level only
    import ariki.fock as fock
    computed = []
    real = fock._moves

    def counting(lam, i, j, order, p, scans, ids, width):
        computed.append((rank(lam) + j, lam, i))
        return real(lam, i, j, order, p, scans, ids, width)

    monkeypatch.setattr(fock, "_moves", counting)
    for p, n in ((ChargeParams(2, 2, (0, 1)), 9), (P24, 8)):
        for wanted in (None, "top"):
            computed.clear()
            for _ in _ranks(p, n, wanted):
                pass
            assert computed and len(set(computed)) == len(computed), (p, wanted)


def test_one_component_scan_per_walk(monkeypatch):
    # the divided powers of one walk share one table of component i-nodes,
    # so each (component, index, residue) is scanned at most once per walk,
    # across its ranks and its on-demand replays
    import ariki.fock as fock
    scanned = []
    real = fock.component_signature

    def counting(comp, c, i, p):
        scanned.append((comp, c, i))
        return real(comp, c, i, p)

    monkeypatch.setattr(fock, "component_signature", counting)
    for p, n in SHARING_CASES:
        for wanted in (None, "top"):
            scanned.clear()
            for _ in _ranks(p, n, wanted):
                pass
            assert scanned and len(set(scanned)) == len(scanned), (p, wanted)
    scanned.clear()
    canonical_basis(ChargeParams(2, 2, (0, 1)), 13)
    assert len(scanned) == len(set(scanned)) == 790


# GRID where straightening acts, and the canonical_e2 point at a smaller rank
SHARING_CASES = [(p, 7 if p.d == 3 else 8) for p in GRID] + [(ChargeParams(2, 2, (0, 1)), 10)]


def _ranks(p, n, wanted=None, ids=None):
    """Each rank's {label's id: packed element} of one walk to rank n that
    wants every label (wanted=None) or the top level ("top"), keyed by the
    ids of ids (a fresh id table if None)."""
    levels = crystal_graph(p, n, "flotw").levels
    every = {mp for level in levels for mp in level}
    return _bases_by_rank(p, levels[n] if wanted == "top" else every, every,
                          _ScaledAValues(p), digit_width(n), _Ids() if ids is None else ids)


def test_one_coefficient_object_per_value_in_a_rank():
    # _straighten replaces each finished coefficient by the first equal int
    # of its rank, so a rank holds one int object per distinct value
    for p, n in SHARING_CASES:
        for wanted in (None, "top"):
            for r, basis in enumerate(_ranks(p, n, wanted)):
                coeffs = [x for element in basis.values() for x in element.values()]
                assert len({id(c) for c in coeffs}) == len(set(coeffs)), (p, r, wanted)


def test_one_id_and_one_tuple_per_multipartition_of_a_table(monkeypatch):
    # a walk's id table gives each distinct multipartition one id and keeps
    # one tuple of it; every id the moves return, every label and every
    # support term of every rank is an id of that table, and the
    # multipartitions canonical_basis returns are the table's tuples, one per
    # distinct multipartition
    import ariki.fock as fock
    real = fock._moves
    made = {}  # target rank -> every move target returned for it

    def recording(lam, i, j, *rest):
        out = real(lam, i, j, *rest)
        made.setdefault(rank(lam) + j, []).extend(out[1])
        return out

    monkeypatch.setattr(fock, "_moves", recording)
    for p, n in SHARING_CASES:
        for wanted in (None, "top"):
            made.clear()
            ids = _Ids()
            for r, basis in enumerate(_ranks(p, n, wanted, ids)):
                for key, element in basis.items():
                    terms = {rank(ids.tuples[mu]) for mu in element}
                    assert rank(ids.tuples[key]) == r and terms == {r}, (p, r, wanted)
            assert len(ids) == len(ids.tuples) == len(set(ids.tuples)), (p, wanted)
            assert all(ids[mp] == key for key, mp in enumerate(ids.tuples)), (p, wanted)
            assert sorted(made) == list(range(1, n + 1)), (p, wanted)
            for r, targets in made.items():
                assert {rank(ids.tuples[mu]) for mu in targets} == {r}, (p, r, wanted)
        support = [mu for el in canonical_basis(p, n) for mu in el.vector.terms]
        assert len({id(mu) for mu in support}) == len(set(support)), (p, n)
    # the walk to (2,2,(0,1)) n=13 meets 4,575 distinct multipartitions
    tuples = _packed_basis(ChargeParams(2, 2, (0, 1)), 13)[1]
    assert len(tuples) == len(set(tuples)) == 4575


def test_one_tuple_per_distinct_matrix_cell():
    # a matrix holds one (column, entry) tuple per distinct pair, not one
    # per nonzero cell
    matrices = [decomposition_matrix(P24, 9), decomposition_matrix(ChargeParams(2, 2, (0, 1)), 9),
                decomposition_matrix_b(9, 3), decomposition_matrix_b(8, 4)]
    for m in matrices:
        cells = [cell for pairs in m.nonzero for cell in pairs]
        assert len(set(cells)) < len(cells), m.columns[-1]
        assert len({id(cell) for cell in cells}) == len(set(cells)), m.columns[-1]


def test_no_sharing_table_outlives_a_call():
    # each call shares its coefficients within itself, but two calls alive
    # at once share no coefficient object and no component of a support
    # multipartition: no table, of coefficients or of the components the
    # divided powers build, is kept between calls.  The empty component, and
    # the (1,) that adding a first row to it gives, which is the code
    # constant of the scan, are one object each in any process, so they are
    # left out
    for p, n in SHARING_CASES:
        first, second = canonical_basis(p, n), canonical_basis(p, n)
        ids, comp_ids, mp_ids = [], [], []
        for basis in (first, second):
            coeffs = [c for el in basis for c in el.vector.terms.values()]
            assert len({id(c) for c in coeffs}) == len(set(coeffs)), (p, n)
            ids.append({id(c) for c in coeffs})
            comp_ids.append({id(comp) for el in basis for mu in el.vector.terms
                             for comp in mu if comp not in ((), (1,))})
            # the tuples of the call's own id table
            mp_ids.append({id(mu) for el in basis for mu in el.vector.terms})
        assert first == second and ids[0].isdisjoint(ids[1]), (p, n)
        assert comp_ids[0] and comp_ids[0].isdisjoint(comp_ids[1]), (p, n)
        assert mp_ids[0].isdisjoint(mp_ids[1]), (p, n)
        # and each call of the walk makes an id table of its own
        tables = [_packed_basis(p, n)[1] for _ in range(2)]
        assert tables[0] == tables[1] and tables[0] is not tables[1], (p, n)
        assert {id(mu) for mu in tables[0]}.isdisjoint(map(id, tables[1])), (p, n)


def test_peel_rest_must_be_a_finished_label(monkeypatch):
    import ariki.canonical as canonical
    real = canonical._peel
    monkeypatch.setattr(canonical, "_peel",
                        lambda mp, p: real(mp, p)[:2] + (mp,))
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


def test_decomposition_matrix_d1e3():
    m = decomposition_matrix(ChargeParams(1, 3, (0,)), 3)
    assert m.rows == (((3,),), ((2, 1),), ((1, 1, 1),))
    assert m.columns == (((3,),), ((2, 1),))
    assert m.entries == ((1, 0), (1, 1), (0, 1))


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
        fields = {f: getattr(m, f) for f in ("rows", "columns", "kleshchev_labels",
                                             "row_a_values", "column_a_values")}
        assert DecompositionMatrix(**fields, entries=dense) == m
        with pytest.raises(TypeError):
            DecompositionMatrix(**fields)
        with pytest.raises(TypeError):
            DecompositionMatrix(**fields, entries=dense, nonzero=m.nonzero)


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


def test_matrix_rows_and_columns_sort_by_a_value_then_label():
    # reference: each label's own a_value, ties broken by the label itself
    cases = [(p, n) for p in GRID for n in range(7)]
    cases.append((ChargeParams(2, 2, (0, 1)), 9))
    for p, n in cases:
        m = decomposition_matrix(p, n)

        def key(mp):
            return a_value(mp, p), mp
        assert m.rows == tuple(sorted(enumerate_multipartitions(p.d, n), key=key)), (p, n)
        assert m.columns == tuple(sorted(flotw_multipartitions(p, n), key=key)), (p, n)


def test_simple_module_a_values():
    values = simple_module_a_values(D1E2, 2)
    assert values == {((2,),): 0}
    p5 = ChargeParams(1, 5, (0,))
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
        m = decomposition_matrix(ChargeParams(1, e, (0,)), n)
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
    m = decomposition_matrix(ChargeParams(1, 2, (0,)), 4)
    got = {m.rows[i]: m.entries[i] for i in range(len(m.rows))}
    assert got == {((4,),): (1, 0), ((3, 1),): (1, 1), ((2, 2),): (0, 1),
                   ((2, 1, 1),): (1, 1), ((1, 1, 1, 1),): (1, 0)}
