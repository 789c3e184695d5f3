"""Independent references that `verify` and the tests compare the pipeline against.

Nothing in the pipeline imports this module, and none of its references
reads the kernels it checks: charge's row scans, the crystal's pair
cancellation, or the divided-power move table.  Instead:

- the node orders have one encoding here, below_key, the diagonal order
  of an integer charge s = v (mod e): s = v is the pipeline's diagonal
  order, and asymptotic_charge its component-major one up to a rank; the
  i-nodes come from generic addable and removable filters;
- f_action adds one node at a time, and divided_power_holds checks a
  divided power against it: [j]! f_i^(j) v = (f_i)^j v;
- compute_A replays a label's whole residue sequence from the empty
  vector, and replayed_basis straightens those replays against the LLT
  rank recursion, by a scan over every finished label rather than the
  pipeline's queue of offending coefficients;
- schur_valuation walks the Schur element factor by factor against the
  closed-form a-value, and prec compares the symbol statistic directly;
- residue_path_terminals realizes a residue sequence every possible way;
- bumped_weights carries the weights one shift above the least, which
  ChargeParams cannot, so the checks can show that nothing depends on it.
"""

from typing import NamedTuple

from .aseq import _checked_multicomposition, a_sequence_blocks
from .canonical import _elements
from .charge import (ChargeParams, _weighted_min_sum, a_weights, check_residue,
                     residue)
from .crystal import flotw_multipartitions
from .fock import FockVector, f_divided
from .laurent import LaurentPoly
from .partitions import (Node, add_node, addable_nodes, check_components,
                         check_multicomposition, check_multipartition,
                         empty_multipartition, part, rank, removable_nodes)
from .symbols import _scaled_row, a_value, ordinary_symbol


class Weights(NamedTuple):
    """Raw weights in place of a ChargeParams: all that k_opt_add, prec,
    a_graph and a_value read of one."""
    d: int
    e: int
    v: tuple
    scaled_m: tuple

    @property
    def _a_weights(self):
        """The a-function's weight data, derived on each read as ChargeParams
        derives it once."""
        return a_weights(self.d, self.scaled_m)


def bumped_weights(p: ChargeParams) -> Weights:
    """p's weights with the shift s raised by one: d*e added to every scaled weight."""
    return Weights(p.d, p.e, p.v, tuple(x + p.d * p.e for x in p.scaled_m))


def asymptotic_charge(p: ChargeParams, n: int):
    """A charge s = v (mod e) whose diagonal order is the component-major one
    on the addable and removable nodes of every multipartition of rank <= n:
    s_j - s_(j+1) > 2n, more than the contents b - a of those nodes, all in
    -n..n, can differ."""
    k = (2 * n + p.e) // p.e + 1
    return tuple(v + (p.d - 1 - j) * k * p.e for j, v in enumerate(p.v))


def below_key(s, p: ChargeParams):
    """Sort key placing the lowest node first in the diagonal order of the
    charge s: larger b - a + s_c is lower, ties to the smaller component.

    s has d entries with s_j = v_j (mod e), so the nodes keep their residues
    under p: s = p.v is the pipeline's diagonal order, and asymptotic_charge
    gives its component-major one.
    """
    if (len(s) != p.d or not all(isinstance(x, int) for x in s)
            or any((x - v) % p.e for x, v in zip(s, p.v))):
        raise ValueError(f"charge {s} is not {p.d} integers congruent to {p.v} mod {p.e}")
    return lambda g: (-(g.col - g.row + s[g.comp]), g.comp)


def diagram_nodes(mc):
    """All nodes (a, b, c) of a multicomposition, row-major per component."""
    return [Node(a, b, c)
            for c, comp in enumerate(mc)
            for a, length in enumerate(comp, start=1)
            for b in range(1, length + 1)]


def addable_i_nodes(mp, i, p: ChargeParams):
    return [g for g in addable_nodes(mp) if residue(g, p) == i]


def removable_i_nodes(mp, i, p: ChargeParams):
    return [g for g in removable_nodes(mp) if residue(g, p) == i]


def diagram_residues(mc, p: ChargeParams):
    """Map residue -> number of nodes of the diagram with that residue."""
    counts = {i: 0 for i in range(p.e)}
    for node in diagram_nodes(mc):
        counts[residue(node, p)] += 1
    return counts


def gauss_number(j: int) -> LaurentPoly:
    """Balanced q-integer [j] = q^(j-1) + q^(j-3) + ... + q^(1-j)."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    return LaurentPoly({j - 1 - 2 * t: 1 for t in range(j)})


def gauss_factorial(j: int) -> LaurentPoly:
    """[j]! = [1][2]...[j], with [0]! = 1."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    out = LaurentPoly.one()
    for t in range(1, j + 1):
        out = out * gauss_number(t)
    return out


def composition_addable_positions(mc, k, p: ChargeParams):
    """Nodes of residue k addable to a multicomposition (any row, or a new one)."""
    check_residue(k, p)
    mc = _checked_multicomposition(mc, p)
    spots = (Node(a, part(comp, a) + 1, c)
             for c, comp in enumerate(mc) for a in range(1, len(comp) + 2))
    return [g for g in spots if residue(g, p) == k]


def f_action(v: FockVector, i, s, p: ChargeParams) -> FockVector:
    """Lowering generator f_i: add one i-node every possible way.

    Adding gamma to lam has the exponent: addable i-nodes of lam below
    gamma minus removable i-nodes of the result below gamma, in the
    diagonal order of the charge s (below_key).
    """
    check_residue(i, p)
    key = below_key(s, p)
    out = {}
    for lam in v.support():
        coef = v.terms[lam]
        addable = addable_i_nodes(lam, i, p)
        for gamma in addable:
            mu = add_node(lam, gamma)
            top = key(gamma)
            exp = (sum(1 for g in addable if key(g) < top)
                   - sum(1 for g in removable_i_nodes(mu, i, p) if key(g) < top))
            out[mu] = out.get(mu, LaurentPoly.zero()) + coef * LaurentPoly({exp: 1})
    return FockVector(out)


def divided_power_holds(out: FockVector, v: FockVector, i, j: int, s,
                        p: ChargeParams) -> bool:
    """Whether [j]! * out == (f_i)^j v, term by term, out's terms as stored.

    Z[q, q^-1] has no zero divisors, so this holds for exactly one out, the
    exact quotient (f_i)^j v / [j]!, and for none when [j]! does not divide
    (f_i)^j v; a zero coefficient stored in out never matches.
    """
    power = v
    for _ in range(j):
        power = f_action(power, i, s, p)
    factorial = gauss_factorial(j)
    return {mp: factorial * c for mp, c in out.terms.items()} == power.terms


def compute_A(mp, p: ChargeParams) -> FockVector:
    """Divided powers of the residue sequence applied to the empty vector."""
    vec = FockVector.unit(empty_multipartition(p.d))
    for i, count in a_sequence_blocks(mp, p):
        vec = f_divided(vec, i, count, "flotw", p)
    if vec.coefficient(mp) != LaurentPoly.one():
        raise RuntimeError(f"leading coefficient of A({mp}) is {vec.coefficient(mp)}, not 1")
    return vec


def straighten_by_scan(labels, avals, start):
    """{label: straightened vector} of one rank, by scanning every finished label.

    The reference for canonical._straighten, coded apart from it.  Labels
    are taken in decreasing (a-value, label) order; start(mp) gives the term
    dict of mp's bar-invariant vector.  Every label of strictly larger
    a-value, all finished, is visited in ascending (a-value, label) order,
    and where the vector's coefficient there has a term of degree <= 0 its
    bar-symmetric completion times that label's element is subtracted.  The
    leading coefficient must end as 1 and every other in q*Z[q], both read
    off the degrees directly.
    """
    ascending = sorted(labels, key=lambda m: (avals[m], m))
    basis = {}
    for mp in reversed(ascending):
        terms = dict(start(mp))
        for nu in ascending:
            if avals[nu] <= avals[mp] or nu not in terms:
                continue
            low = {e: x for e, x in terms[nu].coeffs.items() if e <= 0}
            if not low:
                continue
            gamma = LaurentPoly(low) + LaurentPoly({-e: x for e, x in low.items() if e < 0})
            for mu, c in basis[nu].terms.items():
                terms[mu] = terms.get(mu, LaurentPoly()) - gamma * c
            terms = {mu: c for mu, c in terms.items() if c}
        vec = FockVector(terms)
        if vec.coefficient(mp) != LaurentPoly.one():
            raise RuntimeError(f"straightening destroyed the leading term of {mp}")
        for nu, c in vec.terms.items():
            if nu != mp and min(c.coeffs) < 1:
                raise RuntimeError(f"coefficient of {nu} in {mp}'s element is {c}")
        basis[mp] = vec
    return basis


def replayed_basis(p, n):
    """canonical_basis straightened from compute_A instead of the rank recursion.

    Each label's vector replays its whole residue sequence from the empty
    vector, and the labels come from the direct membership test, so neither
    the finished lower-rank elements nor the crystal walk is used; the
    straightening is straighten_by_scan.
    """
    labels = flotw_multipartitions(p, n)
    avals = {mp: a_value(mp, p) for mp in labels}
    basis = straighten_by_scan(labels, avals, lambda mp: compute_A(mp, p).terms)
    return _elements(basis, avals)


def schur_valuation(mp, p: ChargeParams) -> int:
    """y-adic valuation of the Schur element, walked factor by factor.

    Parameters are u_j = y^(d*m^(j)) * eta_d^j and v = y^d.  Every binomial
    factor has the shape y^A * eta_d^i - y^B * eta_d^j with (A, i) != (B, j),
    so its lowest coefficient never cancels and it contributes min(A, B).
    """
    mp = check_components(mp, p.d)
    sym = ordinary_symbol(mp, 0)
    d, sm = p.d, p.scaled_m
    rows = sym.rows
    n = sym.source_rank

    # prefactor ((v-1) prod u_i)^(-n) * v^(tau - |B| + n); v - 1 has valuation 0
    val = d * (sym.tau - sym.total + n) - n * sum(sm)

    # nu: product over i < j of (u_i - u_j)^h, then the theta product
    for i in range(d):
        for j in range(i + 1, d):
            exp_a, exp_b = sm[i], sm[j]
            if (exp_a, i) == (exp_b, j):
                raise RuntimeError(f"vanishing nu factor at components {i}, {j}")
            val += sym.height * min(exp_a, exp_b)
    for i in range(d):
        for j in range(d):
            for alpha in rows[i]:
                for k in range(1, alpha + 1):
                    exp_a, exp_b = d * k + sm[i], sm[j]
                    if (exp_a, i) == (exp_b, j):
                        raise RuntimeError(f"vanishing theta factor at components {i}, {j}")
                    val += min(exp_a, exp_b)

    # delta: one factor per admissible pair of symbol entries, divided out
    for i in range(d):
        row = rows[i]
        for j1 in range(len(row)):
            for j2 in range(j1 + 1, len(row)):
                alpha, beta = row[j1], row[j2]
                exp_a, exp_b = d * alpha + sm[i], d * beta + sm[i]
                if exp_a == exp_b:
                    raise RuntimeError("equal entries in a partition symbol row")
                val -= min(exp_a, exp_b)
        for j in range(i + 1, d):
            for alpha in row:
                for beta in rows[j]:
                    exp_a, exp_b = d * alpha + sm[i], d * beta + sm[j]
                    if (exp_a, i) == (exp_b, j):
                        raise RuntimeError(f"vanishing delta factor at components {i}, {j}")
                    val -= min(exp_a, exp_b)
    return val


def prec(mu, nu, p: ChargeParams) -> bool:
    """Strict symbol-statistic comparison of equal-rank d-compositions.

    For d-partitions this is equivalent to a_value(mu) < a_value(nu).  The
    statistic, times d, is read at the common symbol height h: the sum of
    min over all unordered pairs of scaled symbol entries d*beta + sm_row,
    less the rows' hook sums (symbols._scaled_row).
    """
    mu = check_multicomposition(mu)
    nu = check_multicomposition(nu)
    if len(mu) != p.d or len(nu) != p.d:
        raise ValueError(f"expected {p.d} components")
    if rank(mu) != rank(nu):
        raise ValueError("prec compares multicompositions of equal rank")
    h = max(max((len(c) for c in mu), default=0),
            max((len(c) for c in nu), default=0))

    def stat(mc):  # the rows' terms add n*sum(sm), which is taken off
        entries = []
        terms = sum(_scaled_row(entries, i, comp, h, p) for i, comp in enumerate(mc))
        return terms - rank(mc) * p._a_weights[0] + _weighted_min_sum(entries)

    return stat(mu) < stat(nu)


def residue_path_terminals(seq, p: ChargeParams, compositions: bool = False):
    """All endpoints of single-node addition chains realizing a residue sequence.

    With compositions=False the chain passes through multipartitions only;
    otherwise any multicomposition stage is allowed.
    """
    spots = composition_addable_positions if compositions else addable_i_nodes
    frontier = {empty_multipartition(p.d)}
    for k in seq:
        frontier = {add_node(mc, g) for mc in frontier for g in spots(mc, k, p)}
    return frontier


def dominates(mu, lam) -> bool:
    """Dominance order on d-partitions of equal rank: mu >= lam."""
    if len(mu) != len(lam):
        raise ValueError("multipartitions have different numbers of components")
    if rank(mu) != rank(lam):
        raise ValueError("multipartitions have different ranks")
    acc_mu = acc_lam = 0
    for j in range(len(mu)):
        h = max(len(mu[j]), len(lam[j]))
        run_mu, run_lam = acc_mu, acc_lam
        for i in range(1, h + 1):
            run_mu += part(mu[j], i)
            run_lam += part(lam[j], i)
            if run_mu < run_lam:
                return False
        acc_mu, acc_lam = run_mu, run_lam
    return True


def regularize(lam, e: int):
    """James's e-regularization of a partition: each node to the top of its ladder.

    Node (i, j), 0-based row and column, lies on ladder i + (e - 1) j.
    Each ladder keeps its number of nodes, moved to its smallest rows, and
    the nodes left form an e-regular partition (James-Kerber 1981, 6.3).
    """
    if e < 2:
        raise ValueError("e must be at least 2")
    on_ladder = {}
    for i, length in enumerate(lam):
        for j in range(length):
            ladder = i + (e - 1) * j
            on_ladder[ladder] = on_ladder.get(ladder, 0) + 1
    moved = set()
    for ladder, count in on_ladder.items():
        top = ladder // (e - 1)  # the column of the ladder's node in its smallest row
        moved.update((ladder - (e - 1) * j, j) for j in range(top, top - count, -1))
    rows = [0] * len(lam)
    for i, _ in moved:
        rows[i] += 1
    out = tuple(length for length in rows if length)
    if moved != {(i, j) for i, length in enumerate(out) for j in range(length)} or \
            any(a < b for a, b in zip(out, out[1:])):
        raise RuntimeError(f"the {e}-regularization of {lam} is not a partition")
    return out


def count_multipartitions(d: int, n: int) -> int:
    """Number of d-partitions of rank n, counted without enumerating them.

    A d-partition is a multiset of parts in d colours, so the count is the
    coefficient of x^n in prod_{c < d} prod_{k >= 1} 1/(1 - x^k): one table
    of counts by rank, updated in place once per (colour, part size).
    """
    if d < 1:
        raise ValueError("d must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    ways = [1] + [0] * n
    for _ in range(d):
        for size in range(1, n + 1):
            for k in range(size, n + 1):
                ways[k] += ways[k - size]
    return ways[n]


def multipartition_from_json(data):
    """Inverse of partitions.multipartition_to_json."""
    return check_multipartition(tuple(tuple(comp) for comp in data))
