"""Type B specializations: a-values and both matrix regimes."""

import random
from fractions import Fraction

import pytest

from ariki.canonical import decomposition_matrix
from ariki.charge import ChargeParams, is_semisimple
from ariki.crystal import crystal_graph
from ariki.partitions import enumerate_multipartitions
from ariki.symbols import a_value
from ariki.typeb import (a_value_typeb, canonical_basic_set_b, decomposition_matrix_b,
                         even_charge_params, type_a_params)
from ariki.verification import _cells


def test_a_value_typeb_examples():
    assert a_value_typeb(((1,), ())) == 0
    assert a_value_typeb(((), (1,))) == 1
    assert a_value_typeb(((), ())) == 0


def _closed_form_typeb(bp):
    """The symbol formula for the a-value of a bipartition at the weights
    (1, 0), in closed form: both components padded to r parts, and the sum
    of min over all pairs of shifted parts as the pairs of the merged list
    less those inside each."""
    def pair_min_sum(xs):
        xs = sorted(xs)
        return sum(x * c for x, c in zip(xs, range(len(xs) - 1, -1, -1)))

    r = max(len(bp[0]), len(bp[1]))
    xs, ys = bp[0] + (0,) * (r - len(bp[0])), bp[1] + (0,) * (r - len(bp[1]))
    total = -(r * (r - 1) * (2 * r + 5)) // 6
    total += sum(k * (x + y + 1) for k, (x, y) in enumerate(zip(xs, ys)))
    xs = [x + r - k for k, x in enumerate(xs)]
    ys = [y + r - 1 - k for k, y in enumerate(ys)]
    return total + pair_min_sum(xs + ys) - pair_min_sum(xs) - pair_min_sum(ys)


def test_a_value_typeb_matches_symbol_formula_at_larger_ranks():
    # every even e has the scaled weights of e = 4, so the a-values read no e
    for e in range(2, 21, 2):
        assert even_charge_params(e).scaled_m == (2, 0), e
    rng = random.Random(5)
    p = even_charge_params(4)
    for _ in range(200):
        bp = tuple(tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 6))),
                                reverse=True)) for _ in range(2))
        assert a_value_typeb(bp) == _closed_form_typeb(bp), bp
        assert a_value(bp, p) == Fraction(a_value_typeb(bp)), bp


def test_basic_set_examples():
    # for e = 2 the charges coincide and ((),(1)) drops out: the specialized
    # rank-1 algebra has a single simple module (u_0 = u_1 = -1)
    assert set(canonical_basic_set_b(1, 2)) == {((1,), ())}
    assert not is_semisimple(even_charge_params(2), 1)
    for e in (3, 4, 5):
        assert set(canonical_basic_set_b(1, e)) == {((1,), ()), ((), (1,))}
    # e = 3 keeps doubled parts: multiplicity 2 < 3
    assert len(canonical_basic_set_b(2, 3)) == 5


def test_basic_set_even_matches_crystal():
    for n in range(6):
        expected = crystal_graph(even_charge_params(2), 5, "flotw").vertices(n)
        assert tuple(canonical_basic_set_b(n, 2)) == tuple(expected)


def test_even_matrix_delegates():
    m = decomposition_matrix_b(2, 2)
    direct = decomposition_matrix(ChargeParams(2, 2, (1, 1)), 2)
    assert m.rows == direct.rows
    assert m.columns == direct.columns
    assert m.entries == direct.entries


def _check_entry_formula(n, e, factors, row_sizes):
    # the reference is the per-entry formula: a product of type-A entries
    # where the component sizes match, zero elsewhere
    m = decomposition_matrix_b(n, e)
    assert m.rows == tuple(sorted(enumerate_multipartitions(2, n),
                                  key=lambda bp: (a_value_typeb(bp), bp)))
    assert m.columns == tuple(sorted(canonical_basic_set_b(n, e),
                                     key=lambda bp: (a_value_typeb(bp), bp)))
    for mu, row in zip(m.rows, m.entries):
        if sum(mu[0]) not in row_sizes:
            continue
        for lam, x in zip(m.columns, row):
            if sum(mu[0]) != sum(lam[0]):
                expected = 0
            else:
                expected = factors[(mu[0],), (lam[0],)] * factors[(mu[1],), (lam[1],)]
            assert x == expected, (n, e, mu, lam)


def test_odd_matrix_block_tensor_structure():
    for e in (3, 5):
        top = 12 if e == 3 else 9
        # {(mu, lam): entry} of the type-A factors of ranks 0..top
        factors = {}
        for l in range(top + 1):
            factors.update(_cells(decomposition_matrix(type_a_params(e), l)))
        for n in range(10):
            _check_entry_formula(n, e, factors, range(n + 1))
        if e == 3:
            # every type-A entry is 0 or 1 below rank 12; at rank 12 the rows
            # with an empty component meet the entries 2 of the rank-12 factor
            _check_entry_formula(12, e, factors, (0, 12))


def test_negative_rank_rejected():
    for e in (2, 3, 4, 5):
        for call in (lambda n: canonical_basic_set_b(n, e),
                     lambda n: decomposition_matrix_b(n, e)):
            with pytest.raises(ValueError, match="nonnegative"):
                call(-1)


@pytest.mark.parametrize("n,e", [(3, 3), (4, 3), (3, 2), (4, 2)])
def test_minimal_a_row_is_diagonal(n, e):
    m = decomposition_matrix_b(n, e)
    for j, col in enumerate(m.columns):
        nonzero = [i for i in range(len(m.rows)) if m.entries[i][j]]
        assert min(m.row_a_values[i] for i in nonzero) == m.column_a_values[j]
        assert m.entries[m.rows.index(col)][j] == 1


def test_column_count_is_product_of_regular_counts():
    from ariki.partitions import is_e_regular, partitions_of
    for n, e in ((4, 3), (3, 5)):
        m = decomposition_matrix_b(n, e)
        expected = sum(
            sum(1 for p0 in partitions_of(a) if is_e_regular(p0, e))
            * sum(1 for p1 in partitions_of(n - a) if is_e_regular(p1, e))
            for a in range(n + 1))
        assert len(m.columns) == expected
