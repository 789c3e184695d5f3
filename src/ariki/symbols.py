"""Symbols and the a-function.

The ordinary symbol of a d-composition at height h is the table
B^(i)_j = lambda^(i)_j - j + h (j = 1..h, missing parts read as 0); the
shifted variant adds the weight m^(i) to every entry of row i.  The a-value
of a d-partition is a rational with denominator d, computed here from the
symbol entries with every summation index an integer, at the least
height, since every greater one gives the same value; the oracle
ariki._oracles.schur_valuation recovers the same quantity independently as
the y-adic valuation of the Schur element, walking the explicit product of
binomial factors.

All charged arithmetic uses entries scaled by d (see charge.scaled_m);
exact rationals appear only in shifted symbols and returned a-values.  The
integer d*a orders multipartitions exactly as the a-value does, and it has
one formula: a term of the height alone (_height_term), one term per
symbol row (_scaled_row: the row's share of n*sum(sm) less its hook sum),
and the pair sum of all the rows' scaled entries, sorted once.  What
depends on the weights alone, their pair sum and the split of each row's
hook sum into weights read through one sum and weights read one by one,
is derived once per ChargeParams (charge.a_weights), so the rows of the
grid points loop over no weight at all.  _scaled_row appends its entries
to the caller's list, and the formula has two readers.  A single query
(a_value, render.render_a_value, typeb.a_value_typeb) calls
_scaled_a_value, whose d rows extend one list, with no table.  A call that
reads many a-values (the basis and matrix pipelines, type B's a-value
lists) makes one _ScaledAValues table, which adds only a cache: a symbol
row depends only on (component index, partition, height), so the table
computes each row once per call, into a list of its own.  A Fraction is
built only for the public a_value and the a-values a DecompositionMatrix
reports.

fractions is imported only inside shifted_symbol and a_value, the two
functions here that return Fractions, so importing the package does not
load it.  format_rational reads the numerator and denominator that ints
and Fractions both have, and builds no Fraction.
"""

from math import comb
from typing import NamedTuple

from .charge import ChargeParams, _weighted_min_sum
from .partitions import check_components, check_multicomposition, part, rank


class Symbol(NamedTuple):
    """Ordinary symbol: d rows of beta-numbers at a common height."""
    rows: tuple
    height: int
    source_rank: int

    @property
    def d(self):
        return len(self.rows)

    @property
    def total(self):
        """Sum of all entries."""
        return sum(sum(row) for row in self.rows)

    @property
    def tau(self):
        """Power-of-v prefactor exponent: sum of C(d*t+1, 2) for t = 1..h-1."""
        return sum(comb(self.d * t + 1, 2) for t in range(1, self.height))


class ShiftedSymbol(NamedTuple):
    """Symbol with m^(i) added to row i; entries are exact rationals."""
    rows: tuple
    height: int


def ordinary_symbol(mc, shift: int = 0) -> Symbol:
    """Ordinary symbol of a d-composition at height (max component height) + shift."""
    mc = check_multicomposition(mc)
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    h = max((len(comp) for comp in mc), default=0) + shift
    rows = tuple(tuple(part(comp, j) - j + h for j in range(1, h + 1))
                 for comp in mc)
    return Symbol(rows=rows, height=h, source_rank=rank(mc))


def shifted_symbol(sym: Symbol, m) -> ShiftedSymbol:
    """Add the weight m^(i) to every entry of row i."""
    from fractions import Fraction
    m = tuple(Fraction(x) for x in m)
    if len(m) != sym.d:
        raise ValueError(f"expected {sym.d} weights, got {len(m)}")
    rows = tuple(tuple(Fraction(entry) + m[i] for entry in row)
                 for i, row in enumerate(sym.rows))
    return ShiftedSymbol(rows=rows, height=sym.height)


def _height_term(h, p: ChargeParams) -> int:
    """The part of d*a that depends on the symbol height h alone.

    The entries of a height-h symbol total n + d*h(h-1)/2, and tau sums
    C(d*t+1, 2) for t = 1..h-1; with the rows' terms (_scaled_row) and the
    entries' pair sum, d*a is d*(total - n) - d*tau - h*P + rows + pairs,
    where P = sum_{i<j} min(sm_i, sm_j) depends on p alone and is derived
    once (charge.a_weights).
    """
    d = p.d
    t1 = (h - 1) * h // 2
    t2 = (h - 1) * h * (2 * h - 1) // 6
    tau = (d * d * t2 + d * t1) // 2
    return d * d * t1 - d * tau - h * p._a_weights[1]  # P


def _scaled_row(entries, i, comp, h, p: ChargeParams) -> int:
    """Append row i of the height-h symbol of the composition comp, scaled,
    to entries, and return the row's term |comp|*sum(sm) less its hook sum.

    The scaled entries d*beta + sm_i are the parts' (d*part plus a base
    that falls by d a row) then the padding's, and the betas total
    |comp| + h(h-1)/2.  The hook sum is that of min(d*k + sm_i, sm_j) over
    the row's entries beta, 1 <= k <= beta and every weight sm_j.  A weight
    sm_j <= sm_i + d is the minimum for every k, so those weights add
    sum(beta) * low[i] together (charge.a_weights).  For each high weight
    the first cut = floor((sm_j - sm_i)/d) >= 1 values of k take the left
    side of the min, in closed form.
    """
    d, sm_i = p.d, p.scaled_m[i]
    total, _, low, start, ascending = p._a_weights
    first, top = len(entries), d * (h - 1) + sm_i
    for x in comp:
        entries.append(d * x + top)
        top -= d
    entries += range(top, sm_i - 1, -d)
    size = sum(comp)
    hooks = (size + h * (h - 1) // 2) * low[i]
    if start[i] < d:  # the row has high weights
        for sm_j in ascending[start[i]:]:
            cut = (sm_j - sm_i) // d
            for x in entries[first:]:
                beta = (x - sm_i) // d
                k = beta if beta < cut else cut
                hooks += d * k * (k + 1) // 2 + sm_i * k + (beta - k) * sm_j
    return size * total - hooks


def _scaled_a_value(mp, p: ChargeParams) -> int:
    """d*a of one multipartition already validated with p.d components, at
    the least symbol height: its d rows extend one entry list, no table."""
    h = max(map(len, mp))
    entries, value = [], _height_term(h, p)
    for i, comp in enumerate(mp):
        value += _scaled_row(entries, i, comp, h, p)
    return value + _weighted_min_sum(entries)


def a_value(mp, p: ChargeParams):
    """a-value of a d-partition: exact rational with denominator d.

    Equals -_oracles.schur_valuation(mp, p)/d.
    """
    from fractions import Fraction
    mp = check_components(mp, p.d)
    return Fraction(_scaled_a_value(mp, p), p.d)


class _ScaledAValues(dict):
    """{mp: d*a} of multipartitions already validated with p.d components,
    each computed when first read, at the least symbol height h, by the
    formula of _scaled_a_value.

    A row of a symbol depends only on (i, comp, h), so the table keeps each
    row it meets, with the scaled entries and the term of _scaled_row.  It
    keeps each height's _height_term too, so a call that reads many
    multipartitions computes each row and each height term once.
    """
    __slots__ = ("p", "rows", "heights")

    def __init__(self, p: ChargeParams):  # dict.__new__ made the empty table
        self.p = p
        self.rows = {}  # (i, comp, h) -> (its scaled entries, its term)
        self.heights = {}  # h -> _height_term(h, p)

    def __missing__(self, mp):
        p, rows = self.p, self.rows
        h = max(map(len, mp))
        value = self.heights.get(h)
        if value is None:
            value = self.heights[h] = _height_term(h, p)
        entries = []
        for i, comp in enumerate(mp):
            row = rows.get((i, comp, h))
            if row is None:
                row_entries = []
                row = rows[i, comp, h] = (row_entries,
                                          _scaled_row(row_entries, i, comp, h, p))
            entries += row[0]
            value += row[1]
        value = self[mp] = value + _weighted_min_sum(entries)
        return value


def format_rational(x) -> str:
    """Render an int or a Fraction as 'p/q', or as the integer p when q = 1."""
    return _format_ratio(x.numerator, x.denominator)


def _format_ratio(num: int, den: int) -> str:
    """'num/den', or 'num' when den = 1; the pair is already in lowest terms
    with den positive."""
    return str(num) if den == 1 else f"{num}/{den}"
