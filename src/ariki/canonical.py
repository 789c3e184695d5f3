"""Canonical bases of the highest-weight submodule and decomposition matrices.

The basis is built rank by rank, by the recursion of the LLT algorithm
(Lascoux-Leclerc-Thibon 1996; Uglov 1999 for the higher-level Fock
space), over the diagonal crystal from the empty multipartition.
Peeling a label lam once gives a residue k, the number c
of k-nodes removed and the rest lam', a label of rank n - c; then
A'(lam) = f_k^(c) G(lam') applies one divided power to the finished basis
element G(lam').  A'(lam) is bar-invariant, its leading coefficient is 1 and
its other terms all have strictly larger a-value.  Straightening the
vectors of one rank in decreasing a-value order yields that rank's
canonical basis: leading coefficient 1, every other coefficient in q*Z[q].
A vector is straightened by its offending coefficients only, those outside
q*Z[q] at labels of larger a-value: one pass over its terms finds them,
and they are corrected in ascending (a-value, label) order, each by
subtracting the bar-symmetric completion of the coefficient times that
label's basis element.  By Lusztig's positivity that completion lies in
N[q, q^-1]; one with a negative coefficient is an error.  A subtraction
only touches labels of still larger a-value, so no coefficient already
corrected changes; a label it leaves offending joins the queue.

Inside the walk a coefficient is a packed int (laurent.pack): P(2^B) *
2^(B*O), where the digit width B = laurent.digit_width(n) is derived from
the top rank n, whose docstring proves that every coefficient the walk
holds fits a digit, and the offset O of a start vector is what its divided
powers added to lift their negative exponents.  So a move is one shift and
add (fock._f_divided), the q*Z[q] test one mask, and a subtraction
gamma * G(nu) one int multiply and subtract per term of G(nu).  A finished
element is shifted back to offset 0.  canonical_basis unpacks its top rank
into LaurentPolys, and the decomposition matrices read q = 1 off each int
with one remainder (laurent.packed_at_one).

The walk runs on its demand set: the wanted labels, of any ranks (the
top rank for canonical_basis and decomposition_matrix, every rank for
odd-e type B), closed under peel rests, peeled once each from the top
rank down.  Each rank 0..the top wanted rank lifts and straightens its
labels of the demand set, and a vertex membership test, not a list of
the rank's vertices, tells a correction which terms are labels.  An
element reads lower ranks only through its peel rest and its own rank
only through corrections, so a correction that reaches a label outside
the demand set builds it there and then, peeling it then, and the rank
keeps it.  At (2,2,(0,1)) n=13 the walk lifts 234 of the crystal's 350
labels, 6 of them on demand, and peels only those.  Such a label starts
from f_k^(c) G(lam') when G(lam') is still held, and otherwise from
f_k^(c) A(lam') = A(lam), with A(lam') replayed from the empty vector;
no perfbench workload needs the replay.  Each canonical basis element is
unique, so the elements do not depend on what was built or from which
start, and a walk that wants one block (the labels of one residue
content) builds each of its elements as a walk that wants the whole rank.

The lifts of one rank apply divided powers to overlapping vectors G(lam'),
so they share one table of divided-power moves (fock._f_divided), keyed by
(lam', k): within rank r the exponent c = r - |lam'| is fixed by lam'.  The
table is made before the rank is straightened and dropped after it.  No
hit is lost by dropping it: a move's target rank is |lam'| + c, so a key
met again at another rank would need another c and could not be reused.
Beside it two more tables of the same lifetime give every multipartition
the moves reach one tuple, and every finished coefficient value one int
object: the straightening looks up each coefficient of an element as it
finishes it.  So a finished rank holds one tuple per distinct
multipartition and one int per distinct coefficient rather than one of
each per term, and the coefficients of start vectors that the
straightening replaced are not kept.

Memory: G(mu) of a lower rank is kept while a demanded label still to
be lifted peels to mu, and no longer.  A caller that drops each yielded
rank at once holds no rank's element list while the next rank is
straightened.

The oracle ariki._oracles.compute_A, the paper's A-vector, replays a
label's whole residue sequence from the empty vector.  The basis path
replays one only for an on-demand label whose rest is gone (above), with
its own packed loop, since the pipeline does not import the oracles;
compute_A reaches the same kernel through public fock.f_divided.
ariki._oracles.replayed_basis straightens the replays of every label with
its own scan over every finished label of larger a-value, and must give
the same basis, which the tests and `verify` check.

Every a-value and sort key here is the integer d*a, which orders labels
exactly as the a-value does; comparing ints is much cheaper than comparing
Fractions.  There is one a-value table per call (symbols._ScaledAValues):
canonical_basis and decomposition_matrix make it and every rank of the walk
reads it, so each symbol row is computed once per call.  Fractions are
made only for the a-values a DecompositionMatrix reports, one per distinct
value, and fractions is imported there, not at import.

Specializing q = 1 gives the decomposition matrix, with rows and columns
sorted by ascending a-value (ties lexicographic) so its unitriangular
shape is visually literal.  Almost every cell is zero (1.3% are nonzero at
(2,4,(0,1)) n=16), so the matrix stores only its nonzero cells, row by row:
each column's q = 1 values are written straight into the rows they touch,
and the column's basis vector is dropped once read.  The dense view is
derived on demand and is never built on the rendering path.
"""

from functools import cached_property
from typing import NamedTuple

from .aseq import _blocks, _peel
from .charge import ChargeParams
from .crystal import _graph_bijection, crystal_graph
from .fock import FockVector, _f_divided
from .laurent import (LaurentPoly, digit_width, low_mask, pack, packed_at_one, unpack,
                      unpacked_polys)
from .partitions import empty_multipartition, enumerate_multipartitions, rank
from .symbols import _ScaledAValues


def _leading_one(mp, terms, width: int, offset: int):
    """terms, packed at offset, whose coefficient at mp must be 1."""
    lead = terms.get(mp, 0)
    if lead != 1 << width * offset:
        raise RuntimeError(f"leading coefficient of A({mp}) is "
                           f"{LaurentPoly._of(unpack(lead, width, offset))}, not 1")
    return terms


class CanonicalBasisElement(NamedTuple):
    """One straightened basis vector with its crystal label."""
    label: tuple
    vector: FockVector


def _bar_symmetric_completion(x: int, width: int, offset: int) -> int:
    """Smallest bar-invariant polynomial agreeing with x in degrees <= 0,
    both packed at offset: x's digits of exponent <= 0, read balanced, and
    each one of exponent e < 0 again at -e."""
    low = {e: c for e, c in unpack(x, width, offset).items() if e <= 0}
    mirrored = {-e: c for e, c in low.items() if e}
    return pack(low, width, offset) + pack(mirrored, width, offset)


def _straighten(labels, vertices, avals, start, width: int, values):
    """{label: straightened element} of one rank: labels, and the vertices
    that their corrections reach.

    labels are vertices of one rank, built in decreasing (a-value, label)
    order; `mp in vertices` tells whether mp is a diagonal-crystal vertex.
    start(mp) returns (terms, offset): a fresh dict of a bar-invariant
    vector with leading term mp, each coefficient packed at digit width
    width and at offset (laurent.pack).  An element is a dict of its
    coefficients packed at offset 0.  avals maps the vertices the
    straightening reads to values ordered like their a-values: the
    pipeline passes its table of the integers d*a
    (symbols._ScaledAValues), the tests may pass the Fraction a-values.
    A label's vector reads only the elements of strictly larger a-value, so
    equal-a labels never interact and the tie order cannot change the
    result.  Every non-leading coefficient (crystal label or not) must end
    in q*Z[q]; anything else is an error.

    One pass over the start vector's terms queues the offending
    coefficients, those outside q*Z[q] (a nonzero digit under
    laurent.low_mask) at a vertex of larger a-value.  The queue is
    corrected in ascending (a-value, label) order: each correction
    subtracts gamma, the bar-symmetric completion of the coefficient, which
    must lie in N[q, q^-1], times that label's element, one int multiply
    per term of the element (gamma is packed at the vector's offset, the
    element at 0), and a label the subtraction leaves offending, past the
    one being corrected, is queued too; a term that reaches 0 is dropped.
    A label's coefficient changes only through labels of smaller key, all
    corrected before it, so these are the corrections a scan over every
    label of larger a-value makes, in the same order.  At the end the
    leading coefficient must be exactly 1 and every other coefficient in
    q*Z[q], and each is shifted back to offset 0.

    A correction at a vertex not yet built, never one of labels, builds it
    there and then (_build) and keeps it in the returned rank: each
    canonical basis element is unique, so it does not matter which label's
    correction asked for it first.

    values is the rank's table of finished coefficients: each maps to its
    first int object, so the returned rank holds one int per distinct
    value.
    """
    basis = {}
    for mp in sorted(labels, key=lambda m: (avals[m], m), reverse=True):
        _build(mp, vertices, avals, start, width, values, basis)
    return basis


def _build(mp, vertices, avals, start, width, values, basis):
    """Straighten start(mp) into basis[mp]; see _straighten.

    A vertex of larger a-value than mp is built already or is not one of
    the rank's labels: the labels of larger key are all built, and those
    of smaller key have no larger a-value.  One not built that a correction
    needs is built first, by a plain call to this function, so no closure
    refers to itself and a rank's elements die with the rank.
    """
    terms, offset = start(mp)
    low = low_mask(width, offset)  # x & low is 0 iff x lies in q*Z[q]
    a = avals[mp]
    queue = [(avals[nu], nu) for nu, x in terms.items()
             if x & low and nu in vertices and avals[nu] > a]
    queue.sort(reverse=True)  # pop() takes the smallest key
    while queue:
        key = queue.pop()
        nu = key[1]
        x = terms.get(nu)
        if x is None or not x & low:
            continue
        gamma = _bar_symmetric_completion(x, width, offset)
        poly = LaurentPoly._of(unpack(gamma, width, offset))
        if poly != poly.bar():
            raise RuntimeError("correction coefficient is not bar-symmetric")
        if any(c < 0 for c in poly.coeffs.values()):
            raise RuntimeError(f"correction coefficient {poly} is not in N[q, q^-1]")
        if nu not in basis:  # not one of labels: built on demand
            _build(nu, vertices, avals, start, width, values, basis)
        for mu, g in basis[nu].items():  # terms -= gamma * basis[nu]
            new = terms.get(mu, 0) - gamma * g
            if not new:
                terms.pop(mu, None)
                continue
            terms[mu] = new
            if new & low and mu in vertices:
                later = (avals[mu], mu)
                if later > key:  # a label queued twice is skipped once corrected
                    queue.append(later)
                    queue.sort(reverse=True)
    if terms.get(mp) != 1 << width * offset:
        raise RuntimeError(f"straightening destroyed the leading term of {mp}")
    shift = width * offset
    element = {}
    for nu, x in terms.items():
        if x & low and nu != mp:
            raise RuntimeError(
                f"coefficient of {nu} in the element labeled {mp} is "
                f"{LaurentPoly._of(unpack(x, width, offset))}, not in q*Z[q]")
        x >>= shift
        element[nu] = values.setdefault(x, x)
    basis[mp] = element


def _bases_by_rank(p: ChargeParams, wanted, vertices, avals, width: int):
    """Yield {label: straightened element} for each rank 0..the top of wanted.

    wanted holds the diagonal-crystal vertices whose elements the caller
    reads, of any ranks; see the module docstring for the demand set.
    vertices maps every vertex the walk meets to the caller's own tuple of
    it: corrections test membership in it (_straighten), and each peel
    rest is held as that tuple, not as a copy.  avals maps each vertex the
    straightening reads to a value ordered like its a-value, as in
    _straighten: the pipeline passes one lazy table for the whole walk.
    An element is a dict of coefficients packed at digit width width
    and offset 0 (see _straighten); width must be
    laurent.digit_width of the top rank or more.
    A caller that wants only the top rank should drop each rank as it comes.

    A label of the demand set starts from f_k^(c) of its peel rest's
    element, held until the last such label is lifted.  A vertex a
    correction reaches is peeled when it is lifted, and if its rest is not
    held it starts from f_k^(c) of the rest's A-vector, replayed along the
    rest's residue blocks: that is A(lam), whose blocks are the rest's
    followed by (k, c), so it straightens to the same G(lam).  A start
    vector's offset is the sum of the offsets its divided powers added.

    Each rank has three tables of its own, made before its straightening
    and deleted after it: moves, (lam, k) -> the moves of f_k^(r - |lam|)
    (see fock._f_divided); targets, each multipartition those moves reach
    -> its one tuple, so every support of the rank holds one tuple per
    multipartition; and values, each finished coefficient -> its one int.
    They stay separate tables, so that moves holds (lam, k) keys only.
    """
    top = max(map(rank, wanted))
    demand = [set() for _ in range(top + 1)]  # D's labels, by rank
    for mp in wanted:
        demand[rank(mp)].add(mp)
    # per label of D: its peel; per held element: the labels of D peeling to it
    peels, refs = {}, {}
    for r in range(top, 0, -1):
        for mp in demand[r]:
            k, removed, rest = _peel(mp, p)  # D holds valid vertices
            rest = vertices[rest]
            peels[mp] = (k, len(removed), rest)
            demand[r - len(removed)].add(rest)
            refs[rest] = refs.get(rest, 0) + 1
    empty = empty_multipartition(p.d)
    finished = {empty: {empty: 1}}
    yield dict(finished)

    def lift(mp):
        offset = 0
        if mp in peels:
            k, c, rest = peels.pop(mp)
            below = finished.get(rest)
            if below is None:
                raise RuntimeError(f"{mp} peels to {rest}, which is not a finished label")
            refs[rest] -= 1
            if not refs[rest]:
                del finished[rest], refs[rest]
        else:  # reached by a correction
            k, removed, rest = _peel(mp, p)
            c = len(removed)
            below = finished.get(rest)
            if below is None:  # its rest is not held: replay A(rest)
                below = {empty: 1}
                for i, count in _blocks(rest, p):
                    below, shift = _f_divided(below, i, count, "flotw", p, {}, {}, width)
                    offset += shift
        lifted, shift = _f_divided(below, k, c, "flotw", p, moves, targets, width)
        offset += shift
        # fresh: nothing else holds lifted
        return _leading_one(mp, lifted, width, offset), offset

    for r in range(1, top + 1):
        moves = {}  # this rank's (lam, k) -> moves of f_k^(r - |lam|)
        targets = {}  # this rank's multipartition -> the one tuple its moves hold
        values = {}  # this rank's finished coefficient -> the one int of it
        basis = _straighten(demand[r], vertices, avals, lift, width, values)
        del moves, targets, values
        demand[r] = None
        finished.update((mp, vec) for mp, vec in basis.items() if refs.get(mp))
        yield basis
        del basis  # only the elements some label above still peels to stay


def _top_basis(p: ChargeParams, levels, avals, width: int):
    """The top level's {label: straightened element}; lower ranks are dropped."""
    vertices = {mp: mp for level in levels for mp in level}
    ranks = _bases_by_rank(p, levels[-1], vertices, avals, width)
    for _ in levels[1:]:
        next(ranks)
    return next(ranks)


def _elements(basis, avals):
    """Basis elements sorted by (a-value, label)."""
    order = sorted(basis, key=lambda m: (avals[m], m))
    return [CanonicalBasisElement(label=mp, vector=basis[mp]) for mp in order]


def _unpacked(basis, width: int):
    """{label: FockVector} of a rank's packed elements, with one LaurentPoly
    per distinct coefficient."""
    polys = unpacked_polys((x for element in basis.values() for x in element.values()),
                           width, 0)
    return {mp: FockVector._of({mu: polys[x] for mu, x in element.items()})
            for mp, element in basis.items()}


def canonical_basis(p: ChargeParams, n: int):
    """All canonical basis elements at rank n, sorted by (a-value, label).

    The labels are the rank-n vertices of the diagonal crystal; the basis of
    every lower rank is built on the way (see the module docstring).
    """
    levels = crystal_graph(p, n, "flotw").levels
    avals = _ScaledAValues(p)
    width = digit_width(n)
    return _elements(_unpacked(_top_basis(p, levels, avals, width), width), avals)


class DecompositionMatrix:
    """Integer decomposition matrix with dual-labeled columns.

    Rows and columns are sorted by ascending a-value, ties lexicographic.
    kleshchev_labels[j] is the component-major crystal label matching
    column j, when the column labels come from the diagonal crystal.

    Only the nonzero cells are stored: nonzero[i] holds row i's
    (column index, entry) pairs by ascending column; the pipeline's
    matrices hold one tuple per distinct pair.  entries, the dense
    rows x columns view, is derived from them on first use.  The
    constructor takes either nonzero= or a dense entries=, which it
    converts once.  Equality and hashing read the stored fields.  There are
    no __slots__: the cached entries live in the instance dict.
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


def decomposition_matrix(p: ChargeParams, n: int) -> DecompositionMatrix:
    """Canonical basis at q = 1, assembled into the a-sorted matrix."""
    # one diagonal walk labels the columns, gives their duals along its
    # edges and builds the basis; its edges are freed once the duals are read
    flotw = crystal_graph(p, n, "flotw")
    dual = _graph_bijection(flotw, p)
    levels = flotw.levels
    del flotw
    rows = enumerate_multipartitions(p.d, n)
    avals = _ScaledAValues(p)  # d*a of the rows and of every rank of the walk
    width = digit_width(n)
    basis = _top_basis(p, levels, avals, width)
    # rows come in label order and the sort is stable, so ties keep label
    # order; the columns are a subset of the rows, so they keep theirs
    rows.sort(key=avals.__getitem__)
    columns = [mp for mp in rows if mp in basis]
    # each column's q = 1 values go straight into its rows' nonzero pairs,
    # and its vector is dropped once read; equal cells share one tuple
    row_of = {mp: r for r, mp in enumerate(rows)}
    nonzero = [[] for _ in rows]
    cells = {}
    for j, col in enumerate(columns):
        for mp, packed in basis.pop(col).items():
            x = packed_at_one(packed, width)
            if x:
                cell = (j, x)
                nonzero[row_of[mp]].append(cells.setdefault(cell, cell))
    from fractions import Fraction
    a_of = {x: Fraction(x, p.d) for x in {avals[mp] for mp in rows}}
    return DecompositionMatrix(
        rows=tuple(rows), columns=tuple(columns),
        kleshchev_labels=tuple(dual[col] for col in columns),
        nonzero=tuple(map(tuple, nonzero)),
        row_a_values=tuple(a_of[avals[mp]] for mp in rows),
        column_a_values=tuple(a_of[avals[mp]] for mp in columns))


def simple_module_a_values(p: ChargeParams, n: int):
    """a-value of each simple module, keyed by component-major crystal label.

    Checks the defining identity: the a-value attached to a column equals
    the minimum a-value over its nonzero rows.
    """
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
