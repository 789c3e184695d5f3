"""Canonical bases of the highest-weight submodule and decomposition matrices.

For each diagonal-crystal vertex, applying the divided powers dictated by
its residue sequence to the empty multipartition yields a bar-invariant
vector whose leading coefficient is 1 and whose other terms all have
strictly larger a-value.  Straightening these vectors in decreasing
a-value order yields the canonical basis: leading coefficient 1, every
other coefficient in q*Z[q].  Each vector is straightened in one pass over
the finished labels of larger a-value, in ascending order, subtracting the
bar-symmetric completion of any offending coefficient times that label's
basis element; a subtraction only touches labels of still larger a-value,
so no coefficient already passed changes.  Specializing q = 1 gives the
decomposition matrix, with rows and columns sorted by ascending a-value
(ties lexicographic) so its unitriangular shape is visually literal.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .aseq import a_sequence_blocks
from .charge import ChargeParams
from .crystal import crystal_bijection, flotw_multipartitions
from .fock import FockVector, f_divided
from .laurent import LaurentPoly
from .partitions import empty_multipartition, enumerate_multipartitions
from .symbols import a_value


def compute_A(mp, p: ChargeParams) -> FockVector:
    """Divided powers of the residue sequence applied to the empty vector."""
    blocks = a_sequence_blocks(mp, p)
    vec = FockVector.unit(empty_multipartition(p.d))
    for i, count in blocks:
        vec = f_divided(vec, i, count, "flotw", p)
    lead = vec.coefficient(mp)
    if lead != LaurentPoly.one():
        raise RuntimeError(f"leading coefficient of A({mp}) is {lead}, not 1")
    return vec


@dataclass(frozen=True)
class CanonicalBasisElement:
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


def _straighten(p: ChargeParams, labels, avals, tie_reverse=False):
    """Straighten compute_A of each label; elements sorted by (a-value, label).

    avals holds at least the labels' a-values.  Equal-a labels never
    interact, so the tie-break (lexicographic, reversed by tie_reverse)
    cannot change the result.  Every non-leading coefficient (crystal label
    or not) must end in q*Z[q]; anything else is an error.
    """
    def tie_key(m):
        return tuple(tuple(-x for x in comp) for comp in m) if tie_reverse else m

    ascending = sorted(labels, key=lambda m: (avals[m], tie_key(m)))
    ascending_a = [avals[m] for m in ascending]
    basis = {}
    for mp in reversed(ascending):
        terms = dict(compute_A(mp, p).terms)
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
        vec = FockVector(terms)
        if vec.coefficient(mp) != LaurentPoly.one():
            raise RuntimeError(f"straightening destroyed the leading term of {mp}")
        for nu in vec.support():
            if nu != mp and not vec.coefficient(nu).in_q_zq():
                raise RuntimeError(
                    f"coefficient of {nu} in the element labeled {mp} "
                    f"is {vec.coefficient(nu)}, not in q*Z[q]")
        basis[mp] = vec

    order = sorted(labels, key=lambda m: (avals[m], m))
    return [CanonicalBasisElement(label=mp, vector=basis[mp]) for mp in order]


def canonical_basis(p: ChargeParams, n: int, _tie_reverse=False):
    """All canonical basis elements at rank n, sorted by (a-value, label).

    Labels are handled in decreasing a-value order.  Each label's vector A
    is straightened in one ascending pass over the finished labels of larger
    a-value.  _tie_reverse reverses the lexicographic tie-break, for tests.
    """
    labels = flotw_multipartitions(p, n)
    return _straighten(p, labels, {mp: a_value(mp, p) for mp in labels}, _tie_reverse)


@dataclass(frozen=True)
class DecompositionMatrix:
    """Integer decomposition matrix with dual-labeled columns.

    Rows and columns are sorted by ascending a-value, ties lexicographic.
    kleshchev_labels[j] is the component-major crystal label matching
    column j, when the column labels come from the diagonal crystal.
    """
    rows: tuple
    columns: tuple
    kleshchev_labels: tuple
    entries: tuple
    row_a_values: tuple
    column_a_values: tuple

    @cached_property
    def _row_index(self):
        return {mp: i for i, mp in enumerate(self.rows)}

    @cached_property
    def _column_index(self):
        return {mp: j for j, mp in enumerate(self.columns)}

    def entry(self, mp_row, mp_col) -> int:
        return self.entries[self._row_index[mp_row]][self._column_index[mp_col]]

    def is_identity(self) -> bool:
        return (len(self.rows) == len(self.columns)
                and all(self.entries[i][j] == (1 if i == j else 0)
                        for i in range(len(self.rows))
                        for j in range(len(self.columns))))


def decomposition_matrix(p: ChargeParams, n: int) -> DecompositionMatrix:
    """Canonical basis at q = 1, assembled into the a-sorted matrix."""
    # computed first, so its two crystal graphs are freed before the basis
    # peaks; its keys are the diagonal-order vertices, the column labels
    dual = crystal_bijection(p, n)
    rows = enumerate_multipartitions(p.d, n)
    avals = {mp: a_value(mp, p) for mp in rows}
    basis = _straighten(p, sorted(dual), avals)
    rows = sorted(rows, key=lambda m: (avals[m], m))
    columns = tuple(el.label for el in basis)
    specialized = [el.vector.at_one() for el in basis]
    # each row is a copy of one zero row with its nonzeros written in
    row_of = {mp: r for r, mp in enumerate(rows)}
    nonzero_columns = [[] for _ in rows]
    for j, spec in enumerate(specialized):
        for mp in spec:
            nonzero_columns[row_of[mp]].append(j)
    zeros = [0] * len(columns)
    entries = []
    for mp, js in zip(rows, nonzero_columns):
        row = zeros.copy()
        for j in js:
            row[j] = specialized[j][mp]
        entries.append(tuple(row))
    kleshchev = tuple(dual[col] for col in columns)
    return DecompositionMatrix(
        rows=tuple(rows), columns=columns, kleshchev_labels=kleshchev,
        entries=tuple(entries),
        row_a_values=tuple(avals[mp] for mp in rows),
        column_a_values=tuple(avals[mp] for mp in columns))


def simple_module_a_values(p: ChargeParams, n: int, matrix=None):
    """a-value of each simple module, keyed by component-major crystal label.

    Checks the defining identity: the a-value attached to a column equals
    the minimum a-value over its nonzero rows.
    """
    if matrix is None:
        matrix = decomposition_matrix(p, n)
    out = {}
    for j, col in enumerate(matrix.columns):
        nonzero = [matrix.row_a_values[i] for i in range(len(matrix.rows))
                   if matrix.entries[i][j] != 0]
        a_col = matrix.column_a_values[j]
        if not nonzero or min(nonzero) != a_col:
            raise RuntimeError(
                f"column {col}: min nonzero row a-value {min(nonzero, default=None)} "
                f"differs from column a-value {a_col}")
        out[matrix.kleshchev_labels[j]] = a_col
    return out
