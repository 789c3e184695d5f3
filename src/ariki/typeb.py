"""Equal-parameter type B specializations, split by the parity of e.

For odd e the decomposition matrix factors through two type-A computations:
an entry is the product of the component-wise type-A decomposition numbers
when the component sizes match, and zero otherwise; the basic set consists
of the bipartitions with both components e-regular.  Every factor, of
every rank 0..n, is read at q = 1 off the ranks of one type-A canonical
basis recursion over one diagonal-crystal walk to rank n.  For even e the algebra
is the d = 2 case at charges (1, e/2), so everything delegates to the
general machinery.  The closed-form a-value below specializes the symbol
formula to these charges and is independent of the cutoff r.
"""

from .canonical import DecompositionMatrix, _bases_by_rank, decomposition_matrix
from .charge import ChargeParams
from .crystal import crystal_graph, flotw_multipartitions
from .partitions import check_multipartition, enumerate_multipartitions, is_e_regular
from .symbols import _scaled_a_value, _weighted_min_sum


def even_charge_params(e: int) -> ChargeParams:
    """Charges (1, e/2) that realize the one-parameter type B algebra."""
    if e % 2:
        raise ValueError("even-e parameters require e even")
    return ChargeParams(2, e, (1, e // 2), 0)


def a_value_typeb(bp, r: int = None) -> int:
    """Closed-form a-value of a bipartition, independent of the cutoff r."""
    bp = check_multipartition(bp)
    if len(bp) != 2:
        raise ValueError("expected a bipartition")
    hmax = max(len(bp[0]), len(bp[1]))
    if r is None:
        r = hmax
    if r < hmax:
        raise ValueError(f"cutoff r={r} is below the maximal height {hmax}")
    return _a_value_typeb(bp, r)


def _a_value_typeb(bp, r: int = None) -> int:
    """a_value_typeb of a valid bipartition, unchecked; r defaults to its
    largest height and must not be below it."""
    if r is None:
        r = max(len(bp[0]), len(bp[1]))
    # both components padded with zeros to r parts; index k is row k + 1
    xs, ys = bp[0] + (0,) * (r - len(bp[0])), bp[1] + (0,) * (r - len(bp[1]))
    total = -(r * (r - 1) * (2 * r + 5)) // 6
    total += sum(k * (x + y + 1) for k, (x, y) in enumerate(zip(xs, ys)))
    # sum of min(x_i, y_j) over all i, j of the shifted parts: the pairs of
    # the merged list less the pairs inside each list
    xs = [x + r - k for k, x in enumerate(xs)]
    ys = [y + r - 1 - k for k, y in enumerate(ys)]
    total += _weighted_min_sum(xs + ys) - _weighted_min_sum(xs) - _weighted_min_sum(ys)
    return total


def canonical_basic_set_b(n: int, e: int):
    """Labels of the canonical basic set, sorted canonically."""
    if e < 2:
        raise ValueError("e must be at least 2")
    if e % 2:
        return [bp for bp in enumerate_multipartitions(2, n)
                if is_e_regular(bp[0], e) and is_e_regular(bp[1], e)]
    return flotw_multipartitions(even_charge_params(e), n)


def type_a_params(e: int) -> ChargeParams:
    return ChargeParams(1, e, (0,), 0)


def decomposition_matrix_b(n: int, e: int) -> DecompositionMatrix:
    """Type B decomposition matrix for either parity of e."""
    if e < 2:
        raise ValueError("e must be at least 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if e % 2 == 0:
        return decomposition_matrix(even_charge_params(e), n)

    pa = type_a_params(e)
    levels = crystal_graph(pa, n, "flotw").levels
    top = {mp: _scaled_a_value(mp, pa) for mp in levels[n]}
    # per rank and row partition of a type-A factor: its nonzero (column, entry)
    factors = []
    for basis in _bases_by_rank(pa, levels, top):
        pairs = {}
        for (lam,), vec in basis.items():
            for (mu,), x in vec.at_one().items():
                if x:
                    pairs.setdefault(mu, []).append((lam, x))
        factors.append(pairs)

    avals = {bp: _a_value_typeb(bp) for bp in enumerate_multipartitions(2, n)}
    rows = sorted(avals, key=lambda bp: (avals[bp], bp))
    columns = sorted(canonical_basic_set_b(n, e), key=lambda bp: (avals[bp], bp))
    # an entry is the product of the component-wise type-A entries, so only
    # products of two nonzeros are stored; size mismatches stay zero
    column_of = {lam: j for j, lam in enumerate(columns)}
    nonzero = []
    for mu0, mu1 in rows:
        a = sum(mu0)
        nonzero.append(tuple(sorted(
            (column_of[lam0, lam1], x * y)
            for lam0, x in factors[a].get(mu0, ())
            for lam1, y in factors[n - a].get(mu1, ()))))
    return DecompositionMatrix(
        rows=tuple(rows), columns=tuple(columns), kleshchev_labels=None,
        nonzero=tuple(nonzero),
        row_a_values=tuple(avals[bp] for bp in rows),
        column_a_values=tuple(avals[bp] for bp in columns))
