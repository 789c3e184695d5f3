"""Fock-space vectors and the divided powers of the lowering generators.

A vector is a finitely supported map from multipartitions to Laurent
polynomials.  The lowering generator f_i adds a node of residue i; the
q-exponent on each term balances addable against removable i-nodes on one
side of the new node, the side being measured in either the
component-major order ("am") or the diagonal order ("flotw").  The divided
power f_i^(j) adds j distinct i-nodes at once with the closed-form
multi-node exponent; the oracle ariki._oracles.f_power_divided_oracle
divides the j-fold one-node action by [j]!, which must reproduce it
exactly.

The multi-node exponent has a closed form.  Adding a node of residue i
changes the addable or removable status only of that node and of cells of
residue i + 1 and i - 1, so adding a set S of lam's addable i-nodes A
leaves A minus S as the addable i-nodes of the result.  The exponent,
summed over gamma in S, counts those below gamma minus lam's removable
i-nodes R below gamma.  With A sorted lowest first and S at indices
s_0 < ... < s_{j-1}, below A[s_k] lie s_k nodes of A, k of them in S, so
the exponent is sum_k (s_k - k - #{r in R below A[s_k]}).  f_divided
reads A and R, lowest first, from the one row scan charge.i_signature,
which the crystal operators read too.

f_divided works in two steps.  The moves of lam, the (mu, exponent) pairs
of f_i^(j) on the basis vector lam, depend on lam, i, j and the order only;
the accumulation multiplies each input coefficient into its moves.  The
moves are read from a table keyed by (lam, i), so one table serves one
order and one target rank |lam| + j, where j is fixed by lam.  Public
f_divided uses a fresh table per call; the LLT recursion shares one table
among all the lifts of a rank, whose input vectors overlap.

The accumulation loops over the monomials of lam's coefficient outside the
loop over lam's moves; most coefficients on the basis path are monomials.
A target mu met for the first time gets the one-entry dict
{exponent: coefficient}, later hits add into it, and zero entries are
filtered out only from the targets where some sum cancelled.
"""

from itertools import combinations

from .charge import ChargeParams, check_order, i_signature
from .laurent import LaurentPoly
from .partitions import check_multipartition, format_multipartition, rank


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

    def __add__(self, other):
        # each side has one rank, so one term of each decides
        if self.terms and other.terms and (
                rank(next(iter(self.terms))) != rank(next(iter(other.terms)))):
            raise ValueError("mixed ranks in a Fock vector")
        data = dict(self.terms)
        for mp, poly in other.terms.items():
            new = data.get(mp, LaurentPoly.zero()) + poly
            if new.is_zero():
                data.pop(mp, None)
            else:
                data[mp] = new
        return FockVector._of(data)

    def __neg__(self):
        return FockVector._of({mp: -poly for mp, poly in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def exact_div(self, poly: LaurentPoly):
        """Divide every coefficient exactly by poly; raises if any fails."""
        return FockVector({mp: c.exact_div(poly) for mp, c in self.terms.items()})

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


def _add_nodes(lam, nodes):
    """lam with the given addable nodes (distinct rows per component) added.

    Only the touched components are rebuilt, each by tuple slices; a node
    past the last row starts a new row of length 1.
    """
    comps = list(lam)
    for a, _, c in nodes:
        comp = comps[c]
        if a > len(comp):
            comps[c] = comp + (1,)
        else:
            comps[c] = comp[:a - 1] + (comp[a - 1] + 1,) + comp[a:]
    return tuple(comps)


def _moves(lam, i, j: int, order: str, p: ChargeParams):
    """The (mu, exponent) pairs of f_i^(j) on the basis vector lam.

    Adding i-nodes changes no other addable i-node, so for lam's addable
    i-nodes A sorted lowest first and a subset at indices s_0 < ... < s_{j-1}
    the exponent is sum_k (s_k - k - rem_below[s_k]), where rem_below[s]
    counts lam's removable i-nodes below A[s] (see the module docstring).
    One charge.i_signature scan of lam lists both kinds lowest first, so
    weight[s] = s - rem_below[s] is s minus the removable nodes seen before
    A[s].
    """
    add, weight, rem_below = [], [], 0
    for _, _, is_addable, g in i_signature(lam, i, order, p):
        if is_addable:
            weight.append(len(add) - rem_below)
            add.append(g)
        else:
            rem_below += 1
    offset = j * (j - 1) // 2  # the -k terms, the same for every subset
    return [(_add_nodes(lam, [add[s] for s in chosen]),
             sum(weight[s] for s in chosen) - offset)
            for chosen in combinations(range(len(add)), j)]


def _f_divided(v: FockVector, i, j: int, order: str, p: ChargeParams, table):
    """f_divided with j > 0 and the order checked, reading lam's moves from table.

    table maps (lam, i) to _moves(lam, i, j, order, p) and is filled on a
    miss.  Its key leaves out j and order, so one table must serve one
    order and one target rank |lam| + j only.  Each monomial c0*q^e0 of
    lam's coefficient is added into every move's target, the monomials in
    the outer loop; a target's dict drops its zeros only when a sum
    cancelled (0 is among its values).
    """
    raw = {}
    for lam, coef in v.terms.items():
        moves = table.get((lam, i))
        if moves is None:
            moves = table[lam, i] = _moves(lam, i, j, order, p)
        for e0, c0 in coef.coeffs.items():
            for mu, exp in moves:
                acc = raw.get(mu)
                if acc is None:
                    raw[mu] = {e0 + exp: c0}
                else:
                    e = e0 + exp
                    acc[e] = acc.get(e, 0) + c0
    out = {}
    for mu, acc in raw.items():
        if 0 in acc.values():  # some sum cancelled
            acc = {e: c for e, c in acc.items() if c}
            if not acc:
                continue
        out[mu] = LaurentPoly._of(acc)
    return FockVector._of(out)


def f_divided(v: FockVector, i, j: int, order: str, p: ChargeParams) -> FockVector:
    """Divided power f_i^(j): add j distinct i-nodes with the multi-node exponent.

    Two steps: _moves lists, once per support multipartition lam, the
    (mu, exponent) pairs of f_i^(j) on lam (one i_signature scan, the
    subsets and their weights, the new multipartitions); the accumulation
    multiplies each coefficient of v into its moves.  This call reads the
    moves from a fresh table; the LLT recursion shares one table among all
    the divided powers of one target rank (canonical._bases_by_rank).
    """
    check_order(order)
    if j < 0:
        raise ValueError("j must be nonnegative")
    if j == 0:
        return v
    return _f_divided(v, i, j, order, p, {})
