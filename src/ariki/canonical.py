"""Canonical bases of the highest-weight submodule and decomposition matrices.

The basis is built rank by rank, by the recursion of the LLT algorithm
(Lascoux-Leclerc-Thibon 1996; Uglov 1999 for the higher-level Fock
space), over the levels of one diagonal-crystal walk from the empty
multipartition.  Peeling a label lam once gives a residue k, the number c
of k-nodes removed and the rest lam', a label of rank n - c; then
A'(lam) = f_k^(c) G(lam') applies one divided power to the finished basis
element G(lam').  A'(lam) is bar-invariant, its leading coefficient is 1 and
its other terms all have strictly larger a-value.  Straightening the
vectors of one rank in decreasing a-value order yields that rank's
canonical basis: leading coefficient 1, every other coefficient in q*Z[q].
Each vector is straightened in one pass over the finished labels of larger
a-value, in ascending order, subtracting the bar-symmetric completion of
any offending coefficient times that label's basis element; a subtraction
only touches labels of still larger a-value, so no coefficient already
passed changes.

The lifts of one rank apply divided powers to overlapping vectors G(lam'),
so they share one table of divided-power moves (fock.f_divided), keyed by
(lam', k): within rank r the exponent c = r - |lam'| is fixed by lam'.  The
table is made before the rank is straightened and dropped after it.  No
hit is lost by dropping it: a move's target rank is |lam'| + c, so a key
met again at another rank would need another c and could not be reused.

The recursion yields every rank in turn, so one walk to rank n serves a
caller that wants all ranks 0..n (odd-e type B) as well as one that wants
only the top.  Memory: G(mu) of a lower rank is kept only while a label
still to be built peels to mu (the peel steps are counted first), and a
caller that drops each yielded rank at once holds no rank's element list
while the next rank is straightened.

The oracle ariki._oracles.compute_A, the paper's A-vector, replays a
label's whole residue sequence from the empty vector.  It is not on the
basis path; straightened the same way it must give the same basis, which
the tests and `verify` check.

Every a-value table, sort key and bisection here holds the integer d*a
(symbols._scaled_a_value), which orders labels exactly as the a-value
does; comparing ints is much cheaper than comparing Fractions.  Fractions
are made only for the a-values a DecompositionMatrix reports, one per
distinct value.

Specializing q = 1 gives the decomposition matrix, with rows and columns
sorted by ascending a-value (ties lexicographic) so its unitriangular
shape is visually literal.  Almost every cell is zero (1.3% are nonzero at
(2,4,(0,1)) n=16), so the matrix stores only its nonzero cells, row by row:
each column's q = 1 values are written straight into the rows they touch,
and the column's basis vector is dropped once read.  The dense view is
derived on demand and is never built on the rendering path.
"""

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .aseq import _peel
from .charge import ChargeParams
from .crystal import _graph_bijection, crystal_graph
from .fock import FockVector, _f_divided
from .laurent import LaurentPoly
from .partitions import enumerate_multipartitions
from .symbols import _scaled_a_value


def _leading_one(mp, vec: FockVector) -> FockVector:
    """vec, whose coefficient at mp must be 1."""
    lead = vec.coefficient(mp)
    if lead != LaurentPoly.one():
        raise RuntimeError(f"leading coefficient of A({mp}) is {lead}, not 1")
    return vec


class CanonicalBasisElement(NamedTuple):
    """One straightened basis vector with its crystal label."""
    label: tuple
    vector: FockVector


def _bar_symmetric_completion(c: LaurentPoly) -> LaurentPoly:
    """Smallest bar-invariant polynomial agreeing with c in degrees <= 0."""
    data = {}
    for e, coeff in c.nonpositive_part().coeffs.items():
        data[e] = data.get(e, 0) + coeff
        if e < 0:
            data[-e] = data.get(-e, 0) + coeff
    return LaurentPoly(data)


def _straighten(labels, avals, start):
    """{label: straightened vector} of one rank, from start(label).

    start(mp) returns a fresh term dict of a bar-invariant vector with
    leading term mp; it is called once per label, in decreasing (a-value,
    label) order.  avals maps at least the labels to values ordered like
    their a-values: the pipeline passes the integers d*a
    (symbols._scaled_a_value), the oracles the Fraction a-values.  A
    label's vector reads only the elements of strictly larger a-value, so
    equal-a labels never interact and the tie order cannot change the
    result.
    Every non-leading coefficient (crystal label or not) must end in
    q*Z[q]; anything else is an error.
    """
    ascending = sorted(labels, key=lambda m: (avals[m], m))
    ascending_a = [avals[m] for m in ascending]
    basis = {}
    for mp in reversed(ascending):
        terms = start(mp)
        for nu in ascending[bisect_right(ascending_a, avals[mp]):]:
            coeff = terms.get(nu)
            if coeff is None or coeff.in_q_zq():
                continue
            gamma = _bar_symmetric_completion(coeff)
            if gamma != gamma.bar():
                raise RuntimeError("correction coefficient is not bar-symmetric")
            # terms -= gamma * basis[nu], in place
            minus_gamma = -gamma
            for mu, c in basis[nu].terms.items():
                old = terms.get(mu)
                new = c * minus_gamma if old is None else old + c * minus_gamma
                if new.is_zero():
                    terms.pop(mu, None)
                else:
                    terms[mu] = new
        if terms.get(mp) != LaurentPoly.one():
            raise RuntimeError(f"straightening destroyed the leading term of {mp}")
        for nu, c in terms.items():
            if nu != mp and not c.in_q_zq():
                raise RuntimeError(
                    f"coefficient of {nu} in the element labeled {mp} "
                    f"is {c}, not in q*Z[q]")
        basis[mp] = FockVector._of(terms)
    return basis


def _bases_by_rank(p: ChargeParams, levels, avals):
    """Yield {label: straightened vector} for each level of a diagonal walk.

    levels[r] lists the diagonal-crystal vertices of rank r, and avals
    maps at least the top level's labels to values ordered like their
    a-values, as in _straighten; the lower ranks are keyed on d*a.  Ranks
    come out from 0 to the top, each label starting from f_k^(c) of its
    peel rest's element.  A caller that wants only the top rank should
    drop each rank as it comes.
    """
    peels, refs = {}, {}
    for level in levels[1:]:
        for mp in level:
            step = _peel(mp, p)  # the walk's labels are valid vertices
            peels[mp] = (step.k, len(step.removed), step.rest)
            refs[step.rest] = refs.get(step.rest, 0) + 1
    empty = levels[0][0]
    finished = {empty: FockVector.unit(empty)}
    yield dict(finished)

    def lift(mp):
        k, c, rest = peels.pop(mp)
        below = finished.get(rest)
        if below is None:
            raise RuntimeError(f"{mp} peels to {rest}, which is not a finished label")
        refs[rest] -= 1
        if not refs[rest]:
            del finished[rest]
        lifted = _f_divided(below, k, c, "flotw", p, moves)
        return dict(_leading_one(mp, lifted).terms)

    top = len(levels) - 1
    for r in range(1, top + 1):
        level = levels[r]
        level_avals = avals if r == top else {mp: _scaled_a_value(mp, p) for mp in level}
        moves = {}  # this rank's (lam, k) -> moves of f_k^(r - |lam|)
        basis = _straighten(level, level_avals, lift)
        del moves
        finished.update((mp, vec) for mp, vec in basis.items() if refs.get(mp))
        yield basis
        del basis  # only the elements some label above still peels to stay


def _top_basis(p: ChargeParams, levels, avals):
    """The top level's {label: straightened vector}; lower ranks are dropped."""
    ranks = _bases_by_rank(p, levels, avals)
    for _ in range(len(levels) - 1):
        next(ranks)
    return next(ranks)


def _elements(basis, avals):
    """Basis elements sorted by (a-value, label)."""
    order = sorted(basis, key=lambda m: (avals[m], m))
    return [CanonicalBasisElement(label=mp, vector=basis[mp]) for mp in order]


def canonical_basis(p: ChargeParams, n: int):
    """All canonical basis elements at rank n, sorted by (a-value, label).

    The labels are the rank-n vertices of the diagonal crystal; the basis of
    every lower rank is built on the way (see the module docstring).
    """
    levels = crystal_graph(p, n, "flotw").levels
    avals = {mp: _scaled_a_value(mp, p) for mp in levels[n]}
    return _elements(_top_basis(p, levels, avals), avals)


class DecompositionMatrix:
    """Integer decomposition matrix with dual-labeled columns.

    Rows and columns are sorted by ascending a-value, ties lexicographic.
    kleshchev_labels[j] is the component-major crystal label matching
    column j, when the column labels come from the diagonal crystal.

    Only the nonzero cells are stored: nonzero[i] holds row i's
    (column index, entry) pairs by ascending column.  entries, the dense
    rows x columns view, is derived from them on first use.  The
    constructor takes either nonzero= or a dense entries=, which it
    converts once.  Equality and hashing read the stored fields.  There are
    no __slots__: the cached properties live in the instance dict.
    """

    def __init__(self, rows, columns, kleshchev_labels, row_a_values,
                 column_a_values, nonzero=None, entries=None):
        if (nonzero is None) == (entries is None):
            raise TypeError("pass exactly one of nonzero and entries")
        if entries is not None:
            nonzero = tuple(tuple((j, x) for j, x in enumerate(row) if x)
                            for row in entries)
        for name, value in (("rows", rows), ("columns", columns),
                            ("kleshchev_labels", kleshchev_labels),
                            ("nonzero", nonzero), ("row_a_values", row_a_values),
                            ("column_a_values", column_a_values)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("DecompositionMatrix is immutable")

    def _key(self):
        return (self.rows, self.columns, self.kleshchev_labels, self.nonzero,
                self.row_a_values, self.column_a_values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def entries(self):
        zeros = [0] * len(self.columns)
        dense = []
        for pairs in self.nonzero:
            row = zeros.copy()
            for j, x in pairs:
                row[j] = x
            dense.append(tuple(row))
        return tuple(dense)

    @cached_property
    def _row_index(self):
        return {mp: i for i, mp in enumerate(self.rows)}

    @cached_property
    def _column_index(self):
        return {mp: j for j, mp in enumerate(self.columns)}

    def entry(self, mp_row, mp_col) -> int:
        pairs = self.nonzero[self._row_index[mp_row]]
        return dict(pairs).get(self._column_index[mp_col], 0)

    def is_identity(self) -> bool:
        return (len(self.rows) == len(self.columns)
                and all(pairs == ((i, 1),) for i, pairs in enumerate(self.nonzero)))


def decomposition_matrix(p: ChargeParams, n: int) -> DecompositionMatrix:
    """Canonical basis at q = 1, assembled into the a-sorted matrix."""
    # one diagonal walk labels the columns, gives their duals along its
    # edges and builds the basis; its edges are freed once the duals are read
    flotw = crystal_graph(p, n, "flotw")
    dual = _graph_bijection(flotw, p)
    levels = flotw.levels
    del flotw
    rows = enumerate_multipartitions(p.d, n)
    avals = {mp: _scaled_a_value(mp, p) for mp in rows}  # d*a
    basis = _top_basis(p, levels, avals)
    rows.sort(key=lambda m: (avals[m], m))
    columns = sorted(basis, key=lambda m: (avals[m], m))
    # each column's q = 1 values go straight into its rows' nonzero pairs,
    # and its vector is dropped once read
    row_of = {mp: r for r, mp in enumerate(rows)}
    nonzero = [[] for _ in rows]
    for j, col in enumerate(columns):
        for mp, coeff in basis.pop(col).terms.items():
            x = coeff.at_one()
            if x:
                nonzero[row_of[mp]].append((j, x))
    a_of = {x: Fraction(x, p.d) for x in set(avals.values())}
    return DecompositionMatrix(
        rows=tuple(rows), columns=tuple(columns),
        kleshchev_labels=tuple(dual[col] for col in columns),
        nonzero=tuple(map(tuple, nonzero)),
        row_a_values=tuple(a_of[avals[mp]] for mp in rows),
        column_a_values=tuple(a_of[avals[mp]] for mp in columns))


def simple_module_a_values(p: ChargeParams, n: int, matrix=None):
    """a-value of each simple module, keyed by component-major crystal label.

    Checks the defining identity: the a-value attached to a column equals
    the minimum a-value over its nonzero rows.
    """
    if matrix is None:
        matrix = decomposition_matrix(p, n)
    # the smallest a-value of each column's nonzero rows, in one pass over
    # the stored nonzeros
    lowest = [None] * len(matrix.columns)
    for a, pairs in zip(matrix.row_a_values, matrix.nonzero):
        for j, _ in pairs:
            if lowest[j] is None or a < lowest[j]:
                lowest[j] = a
    out = {}
    for j, col in enumerate(matrix.columns):
        a_col = matrix.column_a_values[j]
        if lowest[j] != a_col:
            raise RuntimeError(
                f"column {col}: min nonzero row a-value {lowest[j]} "
                f"differs from column a-value {a_col}")
        out[matrix.kleshchev_labels[j]] = a_col
    return out
