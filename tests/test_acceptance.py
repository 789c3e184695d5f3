"""Acceptance suite: every criterion at its stated scale, one line each.

Run as `pytest -v tests/test_acceptance.py` (add -s to see the PASS lines
directly).  All tolerances are exact: every comparison below is integer or
rational equality, never approximate.
"""

from fractions import Fraction

from ariki._oracles import (f_power_divided_oracle, prec, residue_path_terminals,
                            schur_valuation)
from ariki.aseq import a_graph, a_sequence
from ariki.canonical import (canonical_basis, decomposition_matrix,
                             simple_module_a_values)
from ariki.charge import ChargeParams, is_semisimple
from ariki.crystal import flotw_multipartitions, kleshchev_multipartitions
from ariki.fock import FockVector, f_divided
from ariki.laurent import LaurentPoly
from ariki.partitions import enumerate_multipartitions, is_e_regular
from ariki.render import render_canonical, render_decomp, render_typeb
from ariki.symbols import a_value, ordinary_symbol, shifted_symbol
from ariki.typeb import (a_value_typeb, bipartitions_of, decomposition_matrix_b,
                         even_charge_params, type_a_params)
from ariki.verification import hash_seed_outputs

GRID = (ChargeParams(2, 4, (0, 1)), ChargeParams(2, 2, (0, 1)),
        ChargeParams(3, 3, (0, 1, 2)), ChargeParams(2, 4, (1, 2)))


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_symbol_example():
    mp = ((4, 2), (), (5, 2, 1))
    sym = ordinary_symbol(mp, 0)
    assert sym.rows == ((6, 3, 0), (2, 1, 0), (7, 3, 1))
    shifted = shifted_symbol(sym, (1, Fraction(1, 2), 2))
    assert shifted.rows == (
        (Fraction(7), Fraction(4), Fraction(1)),
        (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2)),
        (Fraction(9), Fraction(5), Fraction(3)))
    _report(1, "symbol tables B and B[m]' reproduced exactly")


def test_criterion_02_a_sequence_example():
    p = ChargeParams(2, 4, (0, 1))
    lam = ((2, 2), (2, 2, 1))
    assert a_sequence(lam, p) == (1, 0, 0, 3, 3, 2, 1, 1, 0)
    graph = a_graph(lam, p)
    assert list(graph.stages) == [
        ((), ()), ((), (1,)), ((1,), (1,)), ((1,), (1, 1)), ((1, 1), (1, 1)),
        ((1, 1), (1, 1, 1)), ((1, 1), (2, 1, 1)), ((2, 1), (2, 1, 1)),
        ((2, 1), (2, 2, 1)), ((2, 2), (2, 2, 1))]
    assert [(g.row, g.comp) for _, g, _ in graph.steps] == [
        (1, 1), (1, 0), (2, 1), (2, 0), (3, 1), (1, 1), (1, 0), (2, 1), (2, 0)]
    _report(2, "residue sequence and 10-stage chain with positions")


def test_criterion_03_counting_identity():
    for p in GRID:
        for n in range(7):
            assert len(kleshchev_multipartitions(p, n)) == \
                len(flotw_multipartitions(p, n)), (p.to_dict(), n)
    _report(3, "vertex-set sizes agree at every rank <= 6 on the grid")


def test_criterion_04_d1_oracle():
    for e in (2, 3):
        p = ChargeParams(1, e, (0,), 0)
        for n in range(9):
            regular = [mp for mp in enumerate_multipartitions(1, n)
                       if is_e_regular(mp[0], e)]
            assert kleshchev_multipartitions(p, n) == regular
            assert flotw_multipartitions(p, n) == regular
    _report(4, "d=1 sets equal the e-regular partitions, e in {2,3}, n <= 8")


def test_criterion_05_a_function_oracle():
    count = 0
    for p in GRID:
        for n in range(6):
            for mp in enumerate_multipartitions(p.d, n):
                assert a_value(mp, p) == Fraction(-schur_valuation(mp, p), p.d)
                count += 1
    _report(5, f"a = -valuation/d exactly on {count} multipartitions")


def test_criterion_06_shift_and_scale_invariance():
    from ariki.aseq import composition_addable_positions, k_opt_add
    for p in GRID:
        bumped = ChargeParams(p.d, p.e, p.v, p.s + 1)
        for n in range(5):
            mps = enumerate_multipartitions(p.d, n)
            for mp in mps:
                base = a_value(mp, p)
                assert a_value(mp, p, 1) == base and a_value(mp, p, 2) == base
                for k in range(p.e):
                    if composition_addable_positions(mp, k, p):
                        assert k_opt_add(mp, k, p) == k_opt_add(mp, k, bumped)
            for mu in mps:
                for nu in mps:
                    assert prec(mu, nu, p) == prec(mu, nu, bumped)
            for mp in flotw_multipartitions(p, n):
                assert a_graph(mp, p).steps == a_graph(mp, bumped).steps
    _report(6, "symbol shift k in {0,1,2} and charge shift s -> s+1, rank <= 4")


def test_criterion_07_divided_power_oracle():
    cases = 0
    for p in GRID:
        for n in range(5):
            for mp in enumerate_multipartitions(p.d, n):
                vec = FockVector.unit(mp)
                for order in ("am", "flotw"):
                    for i in range(p.e):
                        for j in range(4):
                            assert f_divided(vec, i, j, order, p) == \
                                f_power_divided_oracle(vec, i, j, order, p)
                            cases += 1
    _report(7, f"f^(j) [j]! = f^j with exact division, {cases} cases")


def test_criterion_08_minimality_brute_force():
    terminals_seen = 0
    for p in (ChargeParams(2, 4, (0, 1)), ChargeParams(2, 2, (0, 1))):
        for n in range(6):
            for lam in flotw_multipartitions(p, n):
                seq = a_sequence(lam, p)
                terminals = residue_path_terminals(seq, p)
                assert lam in terminals
                a_lam = a_value(lam, p)
                for mu in terminals:
                    if mu != lam:
                        assert a_value(mu, p) > a_lam, (lam, mu)
                terminals_seen += len(terminals)
    _report(8, f"all alternative realizations end strictly higher "
               f"({terminals_seen} terminals, rank <= 5)")


def test_criterion_09_canonical_basis_structure():
    for p, cap in ((ChargeParams(2, 4, (0, 1)), 6), (ChargeParams(2, 2, (0, 1)), 5)):
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
            simple_module_a_values(p, n)  # min identity per column
    _report(9, "leading 1, q*Z[q], strict a-triangularity, min identity")


def test_criterion_10_small_known_matrix():
    p = ChargeParams(1, 2, (0,), 0)
    basis = canonical_basis(p, 2)
    assert len(basis) == 1 and basis[0].label == ((2,),)
    vec = basis[0].vector
    assert vec.coefficient(((2,),)) == LaurentPoly.one()
    assert vec.coefficient(((1, 1),)) == LaurentPoly.q_power(1)
    matrix = decomposition_matrix(p, 2)
    assert matrix.rows == (((2,),), ((1, 1),))
    assert matrix.entries == ((1,), (1,))
    _report(10, "d=1 e=2 n=2 gives (2) + q (1,1), entries (1, 1)")


def test_criterion_11_semisimple_degeneration():
    cases = [(ChargeParams(1, 5, (0,), 0), 2), (ChargeParams(1, 7, (0,), 0), 3),
             (ChargeParams(2, 5, (0, 2)), 2), (ChargeParams(3, 7, (0, 2, 4)), 2),
             (ChargeParams(2, 4, (0, 1)), 0)]
    checked = 0
    for p, n in cases:
        if is_semisimple(p, n):
            assert decomposition_matrix(p, n).is_identity()
            checked += 1
    assert checked >= 4
    _report(11, f"{checked} semisimple cases give identity matrices")


def test_criterion_12_type_b():
    for e in (2, 4):
        p = even_charge_params(e)
        for n in range(6):
            for bp in bipartitions_of(n):
                hmax = max(len(bp[0]), len(bp[1]))
                values = {a_value_typeb(bp, r) for r in (hmax, hmax + 1, hmax + 2)}
                assert len(values) == 1
                assert a_value(bp, p) == Fraction(values.pop())
    n, e = 3, 3
    matrix = decomposition_matrix_b(n, e)
    factors = {l: decomposition_matrix(type_a_params(e), l) for l in range(n + 1)}
    pa = type_a_params(e)
    for i, mu in enumerate(matrix.rows):
        for j, lam in enumerate(matrix.columns):
            if sum(mu[0]) != sum(lam[0]):
                expected = 0
            else:
                a = sum(lam[0])
                expected = (factors[a].entry((mu[0],), (lam[0],))
                            * factors[n - a].entry((mu[1],), (lam[1],)))
            assert matrix.entries[i][j] == expected
    for a in range(n + 1):
        semisimple = is_semisimple(pa, a) and is_semisimple(pa, n - a)
        rows = [mu for mu in matrix.rows if sum(mu[0]) == a]
        cols = [lam for lam in matrix.columns if sum(lam[0]) == a]
        identity = (len(rows) == len(cols)
                    and all(matrix.entry(mu, lam) == (1 if mu == lam else 0)
                            for mu in rows for lam in cols))
        assert identity == semisimple
    _report(12, "even-e a-values match at ranks <= 5; odd-e block tensor rule")


def test_criterion_13_determinism_across_threads():
    # keeps its old name; runs under PYTHONHASHSEED 0 and 1 must agree with
    # each other and with this process
    code = ("import sys\n"
            "from ariki.charge import ChargeParams\n"
            "from ariki.render import render_canonical, render_decomp, render_typeb\n"
            "sys.stdout.write(render_canonical(ChargeParams(2, 4, (0, 1)), 6)\n"
            "                 + render_decomp(ChargeParams(2, 4, (0, 1)), 6)\n"
            "                 + render_decomp(ChargeParams(2, 2, (0, 1)), 5)\n"
            "                 + render_typeb(3, 3, 'decomp')\n"
            "                 + render_typeb(2, 2, 'decomp'))\n")
    here = (render_canonical(ChargeParams(2, 4, (0, 1)), 6)
            + render_decomp(ChargeParams(2, 4, (0, 1)), 6)
            + render_decomp(ChargeParams(2, 2, (0, 1)), 5)
            + render_typeb(3, 3, "decomp")
            + render_typeb(2, 2, "decomp")).encode()
    assert hash_seed_outputs(code) == [here, here]
    _report(13, "criteria 9-12 outputs byte-identical for PYTHONHASHSEED 0 and 1")
