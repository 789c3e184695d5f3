"""Fock-space vectors and the divided powers of the lowering generators.

A vector is a finitely supported map from multipartitions to Laurent
polynomials.  The lowering generator f_i adds a node of residue i; the
q-exponent on each term balances addable against removable i-nodes on one
side of the new node, the side being measured in either the
component-major order ("am") or the diagonal order ("flotw").  The divided
power f_i^(j) adds j distinct i-nodes at once with the closed-form
multi-node exponent; the predicate ariki._oracles.divided_power_holds
requires [j]! times it to equal the j-fold one-node action exactly.

The multi-node exponent has a closed form.  Adding a node of residue i
changes the addable or removable status only of that node and of cells of
residue i + 1 and i - 1, so adding a set S of lam's addable i-nodes A
leaves A minus S as the addable i-nodes of the result.  The exponent,
summed over gamma in S, counts those below gamma minus lam's removable
i-nodes R below gamma.  With A sorted lowest first and S at indices
s_0 < ... < s_{j-1}, below A[s_k] lie s_k nodes of A, k of them in S, so
the exponent is sum_k (s_k - k - #{r in R below A[s_k]}).  f_divided
reads A and R, lowest first, from charge.component_signature, the row
scan of one component: its lists, concatenated over lam's components, are
the i-nodes that charge.i_signature, which the crystal operators read,
lists in the component-major order, and sorted once they are the diagonal
order.  Each addable node comes with the component that adding it makes.

f_divided works in two steps.  The moves of lam, the (mu, exponent) pairs
of f_i^(j) on the basis vector lam, depend on lam, i, j and the order only;
the accumulation multiplies each input coefficient into its moves.  Inside
these steps a multipartition is a small int id from an id table (_Ids): a
dict from each multipartition met to its id, and a list from each id to
that one tuple.  A vector is a dict keyed by ids, so the accumulation adds
into int keys, and a tuple is read only to scan lam's components.  The
moves, a list of target ids and a list of shifts, are read from a table
keyed by (lam's id, i), so one table serves one order and one target rank
|lam| + j, where j is fixed by lam.  A second table, scans, holds each
(component, index, residue)'s scan; it depends on neither the order nor j,
so it serves every divided power of a walk, and each addable node's new
component is built once per walk.  Public f_divided uses fresh tables per
call; the LLT recursion shares one id table and one scans table among
every divided power of the walk, and one moves table among all the lifts
of a rank, whose input vectors overlap, which it drops with the rank.

The accumulation runs on packed coefficients (laurent.pack): each
coefficient is one int, a polynomial's value at q = 2^B shifted by an
offset.  A move of exponent exp then adds the input coefficient shifted by
B*(exp + O) bits into its target, one int shift and add per move, where O,
the offset the call adds, lifts the least move exponent to 0.  Public
f_divided packs its input at a width B that the sum of the input's
coefficients' absolute values fits (each target is reached at most once
from each lam, so no output coefficient exceeds it), runs the same
accumulation and unpacks the result; the LLT recursion keeps its
coefficients packed from the empty vector to the finished basis.
"""

from itertools import combinations

from .charge import ChargeParams, check_order, check_residue, component_signature
from .laurent import LaurentPoly, pack, unpacked_polys, width_for
from .partitions import (check_components, check_multipartition, format_multipartition,
                         rank)


class _Ids(dict):
    """An id table: self[mp] is the small int id of the multipartition mp,
    made on first use, and self.tuples[id] is mp, the first tuple met."""
    __slots__ = ("tuples",)

    def __init__(self):
        super().__init__()
        self.tuples = []

    def __missing__(self, mp):
        key = self[mp] = len(self.tuples)
        self.tuples.append(mp)
        return key


class FockVector:
    """Immutable finitely supported map multipartition -> LaurentPoly."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for mp, poly in dict(terms).items():
                if not isinstance(poly, LaurentPoly):
                    poly = LaurentPoly({0: poly})
                if not poly.is_zero():
                    data[mp] = poly
        ranks = {rank(mp) for mp in data}
        if len(ranks) > 1:
            raise ValueError("mixed ranks in a Fock vector")
        object.__setattr__(self, "terms", data)

    @classmethod
    def _of(cls, terms):
        """Wrap terms unchecked: a dict of nonzero LaurentPolys of one rank.

        Only for the results of internal arithmetic, whose inputs were
        validated already; everything else goes through the constructor.
        """
        vec = object.__new__(cls)
        object.__setattr__(vec, "terms", terms)
        return vec

    def __setattr__(self, name, value):
        raise AttributeError("FockVector is immutable")

    def __reduce__(self):
        # pickle and copy would restore the slot through __setattr__
        return FockVector, (self.terms,)

    @classmethod
    def unit(cls, mp):
        return cls({check_multipartition(mp): LaurentPoly.one()})

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        """Basis multipartitions in canonical order."""
        return sorted(self.terms)

    def coefficient(self, mp) -> LaurentPoly:
        return self.terms.get(mp, LaurentPoly.zero())

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def at_one(self):
        """Specialize q = 1: map multipartition -> integer."""
        return {mp: c.at_one() for mp, c in self.terms.items()}

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[mp]})*[{format_multipartition(mp)}]"
                          for mp in self.support())

    def __repr__(self):
        return f"FockVector({self.terms!r})"


def _moves(lam, i, j: int, order: str, p: ChargeParams, scans, ids, width: int):
    """(least, mus, shifts): the moves of f_i^(j) on the basis vector lam,
    the m-th adding its coefficient shifted by shifts[m] = width * exponent
    into the target of id mus[m], and least = min(0, the least shift).  The
    two lists hold a move in two slots where a list of pairs would add a
    tuple per move (9,964 moves held at the top rank of (2,2,(0,1)) n=13).

    Adding i-nodes changes no other addable i-node, so for lam's addable
    i-nodes A sorted lowest first and a subset at indices s_0 < ... < s_{j-1}
    the exponent is sum_k (s_k - k - rem_below[s_k]), where rem_below[s]
    counts lam's removable i-nodes below A[s] (see the module docstring).
    scans maps (c, i) to {comp: charge.component_signature(comp, c, i, p)}
    and is filled on a miss.  The components' items, concatenated, list
    lam's i-nodes of both kinds lowest first in the component-major order,
    and sorted once by (-content, comp) in the diagonal order, so nodes of
    equal content in two components break ties by component.  So
    weight[s] = s - rem_below[s] is s minus the removable nodes seen before
    A[s].  A one-node move puts the node's new component, which its item
    carries, into lam; a subset of j >= 2 nodes is walked once, the first
    node in a component taking its new component and a second one in the
    same component rebuilding it by a tuple slice (a node past the last row
    starts a new row of length 1), while the weights, each times width, are
    summed into the shift of a packed coefficient (laurent.pack).  ids is
    the id table (_Ids) that gives each mu its id.
    """
    items = []
    for c, comp in enumerate(lam):
        known = scans.get((c, i))
        if known is None:
            known = scans[c, i] = {}
        scan = known.get(comp)
        if scan is None:
            scan = known[comp] = component_signature(comp, c, i, p)
        items += scan
    if order == "flotw":
        items.sort()
    pairs, rem_below = [], 0
    for _, c, a, new in items:
        if new is not None:
            pairs.append((a, c, new, width * (len(pairs) - rem_below)))
        else:
            rem_below += 1
    mus, shifts, least = [], [], 0
    if j == 1:
        for _, c, new, bits in pairs:
            if bits < least:
                least = bits
            mus.append(ids[lam[:c] + (new,) + lam[c + 1:]])
            shifts.append(bits)
        return least, mus, shifts
    offset = width * (j * (j - 1) // 2)  # the -k terms, the same for every subset
    for chosen in combinations(pairs, j):
        comps, bits = list(lam), -offset
        for a, c, new, weight in chosen:
            comp = comps[c]
            if comp is lam[c]:
                comps[c] = new
            elif a > len(comp):
                comps[c] = comp + (1,)
            else:
                comps[c] = comp[:a - 1] + (comp[a - 1] + 1,) + comp[a:]
            bits += weight
        if bits < least:
            least = bits
        mus.append(ids[tuple(comps)])
        shifts.append(bits)
    return least, mus, shifts


def _f_divided(terms, i, j: int, order: str, p: ChargeParams, scans, table, ids,
                width: int):
    """f_i^(j) on packed coefficients, with j > 0 and the order checked.

    terms maps the id of each lam in the id table ids (_Ids) to its
    coefficient packed at digit width width and at some offset O_in
    (laurent.pack).  Returns (raw, shift): raw maps the id of each target mu
    to its coefficient packed at offset O_in + shift, with no zero entries,
    and shift >= 0 is the least offset that makes every exponent of the
    moves used nonnegative.  The caller makes sure every coefficient of the
    result fits a digit.

    table maps (lam's id, i) to _moves(lam, i, j, order, p, scans, ids,
    width), lam being the id's tuple, and is filled on a miss.  Its key
    leaves out j, order and width, so one table must serve one id table,
    one order, one target rank |lam| + j and one width only.  scans, the
    table of component scans that _moves reads, depends on none of j, order
    and width, so one may serve every divided power of a walk.  One pass
    reads every lam's moves and their least shift, the second adds each
    coefficient, shifted, into every move's target.
    """
    moved, least = [], 0
    tuples = ids.tuples
    for lam, x in terms.items():
        entry = table.get((lam, i))
        if entry is None:
            entry = table[lam, i] = _moves(tuples[lam], i, j, order, p, scans, ids, width)
        low, mus, shifts = entry
        if low < least:
            least = low
        moved.append((x, mus, shifts))
    raw = {}
    get = raw.get
    for x, mus, shifts in moved:
        for mu, bits in zip(mus, shifts):
            raw[mu] = get(mu, 0) + (x << (bits - least))
    if 0 in raw.values():  # some sum cancelled
        raw = {mu: x for mu, x in raw.items() if x}
    return raw, -least // width


def f_divided(v: FockVector, i, j: int, order: str, p: ChargeParams) -> FockVector:
    """Divided power f_i^(j): add j distinct i-nodes with the multi-node exponent.

    Two steps: _moves lists, once per support multipartition lam, the
    (mu, width * exponent) pairs of f_i^(j) on lam (the scans of lam's
    components, the subsets and their weights, the new multipartitions); the
    accumulation multiplies each coefficient of v into its moves.  This call
    packs v's coefficients under the ids of a fresh id table, reads the
    moves from fresh tables and unpacks the result; the LLT recursion shares
    its moves tables among all the divided powers of one target rank, and
    its id and scans tables among those of the walk
    (canonical._bases_by_rank), and never unpacks.
    v's support must have p.d components and i must be in 0..e-1; the
    checks are made here, once per call, and _f_divided makes none.
    """
    check_order(order)
    check_residue(i, p)
    if j < 0:
        raise ValueError("j must be nonnegative")
    for lam in v.terms:
        check_components(lam, p.d)
    if j == 0:
        return v
    coeffs = [poly.coeffs for poly in v.terms.values()]
    # a target's coefficient of q^e sums at most one product per monomial of v
    width = width_for(sum(abs(c) for cs in coeffs for c in cs.values()))
    offset = max(0, -min((e for cs in coeffs for e in cs), default=0))
    ids = _Ids()
    packed = {ids[lam]: pack(poly.coeffs, width, offset) for lam, poly in v.terms.items()}
    raw, shift = _f_divided(packed, i, j, order, p, {}, {}, ids, width)
    polys = unpacked_polys(raw.values(), width, offset + shift)
    tuples = ids.tuples
    return FockVector._of({tuples[mu]: polys[x] for mu, x in raw.items()})
