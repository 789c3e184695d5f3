"""Symbols, a-values, the valuation oracle, and the comparison statistic."""

import random
from fractions import Fraction

import pytest

from ariki.charge import ChargeParams, _weighted_min_sum
from ariki.partitions import enumerate_multipartitions, rank
from ariki._oracles import Weights, prec, schur_valuation
from ariki.render import render_a_value
from ariki.symbols import (_ScaledAValues, _scaled_a_value, _scaled_row, a_value,
                           format_rational, ordinary_symbol, shifted_symbol)

P24 = ChargeParams(2, 4, (0, 1))
GRID = (P24, ChargeParams(2, 2, (0, 1)), ChargeParams(3, 3, (0, 1, 2)),
        ChargeParams(2, 4, (1, 2)))


def test_ordinary_symbol_examples():
    # the rows of ((4,2), (), (5,2,1)) are pinned by the symbol-example check
    assert ordinary_symbol(((4, 2), (), (5, 2, 1)), 0).height == 3
    empty = ordinary_symbol(((), ()), 1)
    assert empty.rows == ((0,), (0,))
    assert ordinary_symbol(((1,), ()), 0).rows == ((1,), (0,))


def test_shifted_symbol_examples():
    # the fractional shift (1, 1/2, 2) is pinned by the symbol-example check
    sym = ordinary_symbol(((4, 2), (), (5, 2, 1)), 0)
    assert shifted_symbol(sym, (0, 0, 0)).rows == tuple(
        tuple(Fraction(x) for x in row) for row in sym.rows)
    small = ordinary_symbol(((1,), ()), 0)
    p = ChargeParams(2, 4, (0, 1))
    assert shifted_symbol(small, p.m).rows == ((Fraction(5),), (Fraction(3),))


def test_symbol_statistics_pinned():
    assert ordinary_symbol(((1, 1),), 0).tau == 1            # d=1, h=2
    assert ordinary_symbol(((2, 2), (2, 2, 1)), 0).tau == 13  # d=2, h=3
    sym = ordinary_symbol(((2, 2), (2, 2, 1)), 0)
    assert sym.total == 15


def test_a_value_examples():
    assert a_value(((), ()), P24) == 0
    assert a_value(((2, 1),), ChargeParams(1, 5, (0,))) == 1
    # golden value, frozen from the factor-by-factor valuation oracle
    assert a_value(((2, 2), (2, 2, 1)), P24) == 17
    assert schur_valuation(((2, 2), (2, 2, 1)), P24) == -34


def test_schur_valuation_examples():
    assert schur_valuation(((), ()), P24) == 0
    assert schur_valuation(((1, 1),), ChargeParams(1, 5, (0,))) == -1


def test_d1_classical_a_function():
    p = ChargeParams(1, 5, (0,))
    for n in range(9):
        for mp in enumerate_multipartitions(1, n):
            classical = sum(i * x for i, x in enumerate(mp[0]))
            assert a_value(mp, p) == classical


def test_prec_irreflexive_and_matches_a_value():
    for n in range(5):
        mps = enumerate_multipartitions(2, n)
        avals = {mp: a_value(mp, P24) for mp in mps}
        for mu in mps:
            assert not prec(mu, mu, P24)
            for nu in mps:
                assert prec(mu, nu, P24) == (avals[mu] < avals[nu])


def test_prec_rank_mismatch_errors():
    with pytest.raises(ValueError):
        prec(((1,), ()), ((1,), (1,)), P24)


def _add_to_row(mc, comp, row, count):
    comps = [list(c) for c in mc]
    while len(comps[comp]) < row:
        comps[comp].append(0)
    comps[comp][row - 1] += count
    return tuple(tuple(x for x in c if x > 0) for c in comps)


def test_node_block_addition_orders_statistic():
    # adding l nodes at the larger shifted entry gives the strictly smaller
    # statistic; exhaustive over small random compositions
    rng = random.Random(7)
    for p in GRID:
        for _ in range(40):
            mc = tuple(tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
                       for _ in range(p.d))
            sym = ordinary_symbol(mc, 1)
            m = p.m
            entries = [(sym.rows[i][j] + m[i], i, j + 1)
                       for i in range(p.d) for j in range(sym.height)]
            l = rng.randint(1, 3)
            for v1, i1, j1 in entries:
                if j1 > len(mc[i1]) + 1:
                    continue  # the addition must produce a composition
                for v2, i2, j2 in entries:
                    if j2 > len(mc[i2]) + 1 or v1 >= v2:
                        continue
                    mu = _add_to_row(mc, i1, j1, l)
                    nu = _add_to_row(mc, i2, j2, l)
                    if mu != nu:
                        assert prec(nu, mu, p), (mc, (i1, j1), (i2, j2), l)


def _pair_interaction_oracle(rows, scaled_m, d):
    """Sum of min(d*alpha + sm_i, d*beta + sm_j) over unordered entry pairs, pair by pair."""
    total = 0
    for i, row in enumerate(rows):
        for j1 in range(len(row)):
            for j2 in range(j1 + 1, len(row)):
                total += min(d * row[j1], d * row[j2]) + scaled_m[i]
        for j in range(i + 1, len(rows)):
            for alpha in row:
                for beta in rows[j]:
                    total += min(d * alpha + scaled_m[i], d * beta + scaled_m[j])
    return total


def _hook_interaction_oracle(rows, scaled_m, d):
    """Sum of min(d*k + sm_i, sm_j) over rows i, entries alpha, 1 <= k <= alpha, all j."""
    total = 0
    for i, row in enumerate(rows):
        for alpha in row:
            for k in range(1, alpha + 1):
                for sm_j in scaled_m:
                    total += min(d * k + scaled_m[i], sm_j)
    return total


def _stat_oracle(mc, shift, p):
    """(height, d times the statistic) of mc's symbol at this shift, pair by pair."""
    sym = ordinary_symbol(mc, shift)
    return sym.height, (_pair_interaction_oracle(sym.rows, p.scaled_m, p.d)
                        - _hook_interaction_oracle(sym.rows, p.scaled_m, p.d))


def _random_multicomposition(rng, d, n):
    """A d-composition of rank n, cells dropped one at a time into random rows."""
    comps = [[] for _ in range(d)]
    for _ in range(n):
        comp = comps[rng.randrange(d)]
        row = rng.randint(0, len(comp))
        if row == len(comp):
            comp.append(1)
        else:
            comp[row] += 1
    return tuple(tuple(comp) for comp in comps)


# the last entry is (2, 5, (0, 2)) two shifts above its least, s = 3:
# large weights that no ChargeParams carries
ORACLE_PARAMS = GRID + (ChargeParams(1, 5, (0,)), ChargeParams(3, 4, (0, 1, 3)),
                        ChargeParams(4, 3, (0, 0, 1, 2)), Weights(2, 5, (0, 2), (30, 29)))


def test_scaled_stat_matches_pairwise_oracle():
    # the statistic that _oracles.prec reads, from the row formula: the rows'
    # terms, less n*sum(sm), and the pair sum of the rows' entries.  The
    # closed forms against the pair-by-pair sums, on random
    # multicompositions (unsorted rows, repeated entries) at several shifts
    rng = random.Random(11)
    for p in ORACLE_PARAMS:
        for _ in range(150):
            mc = tuple(tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 4)))
                       for _ in range(p.d))
            shift = rng.randint(0, 3)
            h, expect = _stat_oracle(mc, shift, p)
            entries = []
            terms = sum(_scaled_row(entries, i, comp, h, p) for i, comp in enumerate(mc))
            stat = terms - rank(mc) * p._a_weights[0] + _weighted_min_sum(entries)
            assert stat == expect, (p, mc, shift)


def test_prec_matches_pairwise_oracle():
    rng = random.Random(12)
    for p in ORACLE_PARAMS:
        for _ in range(100):
            n = rng.randint(0, 8)
            mu, nu = (_random_multicomposition(rng, p.d, n) for _ in range(2))
            h = max(len(c) for c in mu + nu)
            stat_mu = _stat_oracle(mu, h - max(len(c) for c in mu), p)[1]
            stat_nu = _stat_oracle(nu, h - max(len(c) for c in nu), p)[1]
            assert prec(mu, nu, p) == (stat_mu < stat_nu), (p, mu, nu)


def test_a_value_matches_symbol_formula():
    # the closed-form height statistics against the Symbol's own tau and
    # total, at ranks beyond the valuation oracle's reach; the formula reads
    # the symbol at random extra heights and a_value at the least one, so
    # this is also the test that the a-value does not depend on the height
    rng = random.Random(13)
    for p in ORACLE_PARAMS:
        sm = p.scaled_m
        for _ in range(60):
            mc = _random_multicomposition(rng, p.d, rng.randint(0, 30))
            mp = tuple(tuple(sorted(comp, reverse=True)) for comp in mc)
            shift = rng.randint(0, 4)
            sym = ordinary_symbol(mp, shift)
            n = sym.source_rank
            scaled = n * sum(sm) - p.d * sym.tau + p.d * sym.total - p.d * n
            scaled -= sym.height * sum(min(sm[i], sm[j])
                                       for i in range(p.d) for j in range(i + 1, p.d))
            scaled += _stat_oracle(mp, shift, p)[1]
            assert a_value(mp, p) == Fraction(scaled, p.d), (p, mp, shift)


def test_a_value_table_matches_one_at_a_time_and_valuation():
    # one table read over every rank in turn, against the one-shot d*a and
    # the valuation oracle; it holds what was read.  P24 = (2,4,(0,1)), with
    # scaled weights (8, 6), and (2,4,(1,2)), with (2, 0), are the GRID
    # points where _scaled_row's cut > 0 hook branch runs
    for p in GRID:
        table, read = _ScaledAValues(p), []
        for n in range(6):
            for mp in enumerate_multipartitions(p.d, n):
                read.append(mp)
                assert table[mp] == _scaled_a_value(mp, p) == -schur_valuation(mp, p), (p, mp)
        assert list(table) == read, p


def test_a_value_table_at_large_d_with_most_components_empty():
    # the rows of empty components repeat across multipartitions and
    # heights; up to three components are nonempty
    rng = random.Random(14)
    for _ in range(8):
        d, e = rng.randint(2, 50), rng.randint(2, 6)
        p = ChargeParams(d, e, sorted(rng.randrange(e) for _ in range(d)))
        mps = []
        for _ in range(6):
            comps = [()] * d
            for i in rng.sample(range(d), rng.randint(0, 3)):
                comps[i] = tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 3))),
                                        reverse=True))
            mps.append(tuple(comps))
        table = _ScaledAValues(p)
        for mp in mps:
            assert table[mp] == _scaled_a_value(mp, p) == -schur_valuation(mp, p), (p, mp)


def test_a_single_query_builds_no_table(monkeypatch, capsys):
    # a one-vertex a-value computes its d symbol rows once each, into one
    # entry list, and makes no _ScaledAValues, wherever a query path could
    # reach the table
    import ariki.render as render
    import ariki.symbols as symbols
    import ariki.typeb as typeb
    from ariki.cli import main
    from ariki.typeb import a_value_typeb, even_charge_params

    def no_table(p):
        raise AssertionError("a single query built an a-value table")

    for module in (symbols, render, typeb):
        monkeypatch.setattr(module, "_ScaledAValues", no_table, raising=False)
    rows = []
    real = symbols._scaled_row

    def counting(entries, i, comp, h, p):
        rows.append((i, entries, len(entries)))
        return real(entries, i, comp, h, p)

    monkeypatch.setattr(symbols, "_scaled_row", counting)
    p, mp, bp = ChargeParams(3, 4, (0, 1, 3)), ((2, 1), (1,), ()), ((1,), (2, 1))
    a = Fraction(-schur_valuation(mp, p), 3)
    text = f"{format_rational(a)} = {float(a)}\n"
    queries = [
        (lambda: a_value(mp, p), a, 3),
        (lambda: render_a_value(p, mp), text, 3),
        (lambda: a_value_typeb(bp), -schur_valuation(bp, even_charge_params(2)) // 2, 2),
        (lambda: (main(["a-value", "--d", "3", "--e", "4", "--charges", "0,1,3",
                        "--mp=2.1,1,-"]), capsys.readouterr().out), (0, text), 3),
    ]
    for query, expect, d in queries:
        rows.clear()
        assert query() == expect
        assert [i for i, _, _ in rows] == list(range(d)), rows
        # every mp has height 2: each row appends two entries to the one list
        assert all(entries is rows[0][1] for _, entries, _ in rows)
        assert [size for *_, size in rows] == list(range(0, 2 * d, 2)), rows


def test_a_value_rejects_bad_input():
    with pytest.raises(ValueError):
        a_value(((1, 2), ()), P24)
    with pytest.raises(ValueError, match="expected 2 components"):
        a_value(((1,),), P24)


def test_format_rational():
    assert format_rational(Fraction(17)) == "17"
    assert format_rational(Fraction(5, 2)) == "5/2"
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    # type B matrices report int a-values
    assert format_rational(3) == "3"
    assert format_rational(0) == "0"


def test_render_a_value_matches_the_fraction_formula():
    # render_a_value reads the text off the integer d*a; the Fraction a-value
    # must give the same bytes, also where d*a and d share a factor
    for p in GRID + (ChargeParams(3, 4, (0, 1, 3)), ChargeParams(4, 2, (0, 0, 1, 1))):
        for n in range(7):
            for mp in enumerate_multipartitions(p.d, n):
                a = a_value(mp, p)
                assert render_a_value(p, mp) == f"{format_rational(a)} = {float(a)}\n", (p, mp)
    with pytest.raises(ValueError, match="expected 2 components"):
        render_a_value(P24, ((1,),))
