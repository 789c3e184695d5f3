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
reads A and R, lowest first, from the one row scan charge.i_signature,
which the crystal operators read too; its nodes are plain (row, col, comp)
tuples.

f_divided works in two steps.  The moves of lam, the (mu, exponent) pairs
of f_i^(j) on the basis vector lam, depend on lam, i, j and the order only;
the accumulation multiplies each input coefficient into its moves.  The
moves are read from a table keyed by (lam, i), so one table serves one
order and one target rank |lam| + j, where j is fixed by lam.  A second
table, targets, gives each multipartition the moves build its first tuple,
so the moves of one table share one tuple per target.  Public f_divided
uses fresh tables per call; the LLT recursion shares one pair among all the
lifts of a rank, whose input vectors overlap, and drops it with the rank.

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

from .charge import ChargeParams, check_order, check_residue, i_signature
from .laurent import LaurentPoly, pack, unpacked_polys, width_for
from .partitions import (check_components, check_multipartition, format_multipartition,
                         rank)


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


def _moves(lam, i, j: int, order: str, p: ChargeParams, targets, width: int):
    """(least, moves): the moves of f_i^(j) on the basis vector lam, as
    (mu, width * exponent) pairs, and min(0, their least width * exponent).

    Adding i-nodes changes no other addable i-node, so for lam's addable
    i-nodes A sorted lowest first and a subset at indices s_0 < ... < s_{j-1}
    the exponent is sum_k (s_k - k - rem_below[s_k]), where rem_below[s]
    counts lam's removable i-nodes below A[s] (see the module docstring).
    One charge.i_signature scan of lam lists both kinds lowest first, so
    weight[s] = s - rem_below[s] is s minus the removable nodes seen before
    A[s].  Each subset of (node, weight) pairs is walked once: the touched
    components are rebuilt by tuple slices (a node past the last row starts
    a new row of length 1) while the weights, each times width, are summed
    into the shift of a packed coefficient (laurent.pack).  targets maps
    each multipartition built so far to its first tuple, and each mu is
    that tuple: the moves of several lam that reach one mu share it.
    """
    pairs, rem_below = [], 0
    for _, _, is_addable, g in i_signature(lam, i, order, p):
        if is_addable:
            pairs.append((g, width * (len(pairs) - rem_below)))
        else:
            rem_below += 1
    offset = width * (j * (j - 1) // 2)  # the -k terms, the same for every subset
    out, least = [], 0
    for chosen in combinations(pairs, j):
        comps, bits = list(lam), -offset
        for (a, _, c), weight in chosen:
            comp = comps[c]
            if a > len(comp):
                comps[c] = comp + (1,)
            else:
                comps[c] = comp[:a - 1] + (comp[a - 1] + 1,) + comp[a:]
            bits += weight
        if bits < least:
            least = bits
        mu = tuple(comps)
        out.append((targets.setdefault(mu, mu), bits))
    return least, out


def _f_divided(terms, i, j: int, order: str, p: ChargeParams, table, targets, width: int):
    """f_i^(j) on packed coefficients, with j > 0 and the order checked.

    terms maps each lam to its coefficient packed at digit width width and
    at some offset O_in (laurent.pack).  Returns (raw, shift): raw maps each
    target mu to its coefficient packed at offset O_in + shift, with no
    zero entries, and shift >= 0 is the least offset that makes every
    exponent of the moves used nonnegative.  The caller makes sure every
    coefficient of the result fits a digit.

    table maps (lam, i) to _moves(lam, i, j, order, p, targets, width) and
    is filled on a miss.  Its key leaves out j, order and width, so one
    table must serve one order, one target rank |lam| + j and one width
    only.  targets, the interning table of the moves' multipartitions,
    lives as long as table; it is a table of its own, so that table holds
    (lam, i) keys only.  One pass reads every lam's moves and their least
    shift, the second adds each coefficient, shifted, into every move's
    target.
    """
    moved, least = [], 0
    for lam, x in terms.items():
        entry = table.get((lam, i))
        if entry is None:
            entry = table[lam, i] = _moves(lam, i, j, order, p, targets, width)
        low, moves = entry
        if low < least:
            least = low
        moved.append((x, moves))
    raw = {}
    get = raw.get
    for x, moves in moved:
        for mu, bits in moves:
            raw[mu] = get(mu, 0) + (x << (bits - least))
    if 0 in raw.values():  # some sum cancelled
        raw = {mu: x for mu, x in raw.items() if x}
    return raw, -least // width


def f_divided(v: FockVector, i, j: int, order: str, p: ChargeParams) -> FockVector:
    """Divided power f_i^(j): add j distinct i-nodes with the multi-node exponent.

    Two steps: _moves lists, once per support multipartition lam, the
    (mu, width * exponent) pairs of f_i^(j) on lam (one i_signature scan, the
    subsets and their weights, the new multipartitions); the accumulation
    multiplies each coefficient of v into its moves.  This call packs v's
    coefficients, reads the moves from fresh tables and unpacks the result;
    the LLT recursion shares its tables among all the divided powers of one
    target rank (canonical._bases_by_rank) and never unpacks.
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
    packed = {lam: pack(poly.coeffs, width, offset) for lam, poly in v.terms.items()}
    raw, shift = _f_divided(packed, i, j, order, p, {}, {}, width)
    polys = unpacked_polys(raw.values(), width, offset + shift)
    return FockVector._of({mu: polys[x] for mu, x in raw.items()})
