"""Equal-parameter type B specializations, split by the parity of e.

For odd e the decomposition matrix factors through two type-A computations:
an entry is the product of the component-wise type-A decomposition numbers
when the component sizes match, and zero otherwise; the basic set consists
of the bipartitions with both components e-regular, which _both_regular
picks with one is_e_regular test per distinct component.  Every factor, of
every rank 0..n, is read at q = 1 off the ranks of one type-A canonical
basis recursion, one remainder per packed coefficient
(laurent.packed_at_one).  Its labels, the e-regular partitions of sizes 0..n (the
vertices of the d = 1 diagonal crystal), are the components of the basic
set: each such lam is a component of the column (lam, (n - |lam|)), so no
crystal is walked.  For even e the algebra
is the d = 2 case at charges (1, e/2), so everything delegates to the
general machinery.  A type B a-value is the a-value at those charges,
half its d*a: a_value_typeb reads one bipartition's d*a off
symbols._scaled_a_value, with no table, and a call that lists many reads
one symbols._ScaledAValues table, as the odd-e matrix's type-A walk reads
one table too.  Those charges have scaled weights (2, 0) for every even
e, so the a-values read no e.
"""

from .canonical import DecompositionMatrix, _bases_by_rank, decomposition_matrix
from .charge import ChargeParams
from .crystal import flotw_multipartitions
from .fock import _Ids
from .laurent import digit_width, packed_at_one
from .partitions import check_multipartition, enumerate_multipartitions, is_e_regular
from .symbols import _ScaledAValues, _scaled_a_value


def even_charge_params(e: int) -> ChargeParams:
    """Charges (1, e/2) that realize the one-parameter type B algebra."""
    if e % 2:
        raise ValueError("even-e parameters require e even")
    return ChargeParams(2, e, (1, e // 2))


def a_value_typeb(bp) -> int:
    """a-value of a bipartition."""
    bp = check_multipartition(bp)
    if len(bp) != 2:
        raise ValueError("expected a bipartition")
    return _halved(_scaled_a_value(bp, even_charge_params(2)), bp)


def _a_values_typeb(bps) -> dict:
    """{bp: a_value_typeb(bp)} of valid bipartitions, unchecked."""
    table = _ScaledAValues(even_charge_params(2))
    return {bp: _halved(table[bp], bp) for bp in bps}


def _halved(scaled: int, bp) -> int:
    """The type B a-value of bp from its 2*a at the even-e charges."""
    a, odd = divmod(scaled, 2)
    if odd:
        raise RuntimeError(f"2*a of {bp} is odd: {scaled}")
    return a


def _both_regular(bps, e: int) -> list:
    """The bipartitions of bps, in their order, whose two components are
    both e-regular; each distinct component is tested once."""
    regular = {comp: is_e_regular(comp, e) for comp in {comp for bp in bps for comp in bp}}
    return [bp for bp in bps if regular[bp[0]] and regular[bp[1]]]


def canonical_basic_set_b(n: int, e: int):
    """Labels of the canonical basic set, sorted canonically."""
    if e < 2:
        raise ValueError("e must be at least 2")
    if e % 2:
        return _both_regular(enumerate_multipartitions(2, n), e)
    return flotw_multipartitions(even_charge_params(e), n)


def type_a_params(e: int) -> ChargeParams:
    return ChargeParams(1, e, (0,))


def decomposition_matrix_b(n: int, e: int) -> DecompositionMatrix:
    """Type B decomposition matrix for either parity of e."""
    if e < 2:
        raise ValueError("e must be at least 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if e % 2 == 0:
        return decomposition_matrix(even_charge_params(e), n)

    avals = _a_values_typeb(enumerate_multipartitions(2, n))
    # avals is in label order and the sort is stable, so ties keep label order
    rows = sorted(avals, key=avals.__getitem__)
    # the basic set: the rows whose components are both e-regular
    columns = _both_regular(rows, e)

    pa = type_a_params(e)
    # the type-A labels of ranks 0..n: the components of the basic set
    every = {(c,) for c in {c for bp in columns for c in bp}}
    # per rank and row partition of a type-A factor: its nonzero (column, entry)
    factors = []
    width = digit_width(n)
    ids = _Ids()
    tuples = ids.tuples
    for basis in _bases_by_rank(pa, every, every, _ScaledAValues(pa), width, ids):
        pairs = {}
        for key, element in basis.items():
            (lam,) = tuples[key]
            for mu, packed in element.items():
                x = packed_at_one(packed, width)
                if x:
                    pairs.setdefault(tuples[mu][0], []).append((lam, x))
        factors.append(pairs)
    # an entry is the product of the component-wise type-A entries, so only
    # products of two nonzeros are stored; size mismatches stay zero.
    # Equal cells share one tuple.
    column_of = {lam: j for j, lam in enumerate(columns)}
    nonzero, cells = [], {}
    for mu0, mu1 in rows:
        a = sum(mu0)
        pairs = []
        for lam0, x in factors[a].get(mu0, ()):
            for lam1, y in factors[n - a].get(mu1, ()):
                cell = (column_of[lam0, lam1], x * y)
                pairs.append(cells.setdefault(cell, cell))
        pairs.sort()
        nonzero.append(tuple(pairs))
    return DecompositionMatrix(
        rows=tuple(rows), columns=tuple(columns), kleshchev_labels=None,
        nonzero=tuple(nonzero),
        row_a_values=tuple(avals[bp] for bp in rows),
        column_a_values=tuple(avals[bp] for bp in columns))
