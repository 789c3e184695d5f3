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
one formula: a term of the height alone (_height_term), n*sum(sm), and the
composition statistic _scaled_stat, which sorts the scaled entries of the
d symbol rows once for their pair sum and subtracts the rows' hook sums,
each row built once by _scaled_row.  It has two readers.  A single query
(a_value, render.render_a_value, typeb.a_value_typeb) calls
_scaled_a_value, which builds its d rows and no table.  A call that reads
many a-values (the basis and matrix pipelines, type B's a-value lists)
makes one _ScaledAValues table, which adds only a cache: a symbol row
depends only on (component index, partition, height), so the table
computes each row once per call.  A Fraction is built only for the public
a_value and the a-values a DecompositionMatrix reports.

fractions is imported only inside shifted_symbol and a_value, the two
functions here that return Fractions, so importing the package does not
load it.  format_rational reads the numerator and denominator that ints
and Fractions both have, and builds no Fraction.
"""

from math import comb
from operator import mul
from typing import NamedTuple

from .charge import ChargeParams
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


def _weighted_min_sum(xs):
    """Sum of min(x, y) over unordered pairs of the list xs, which this sorts
    in place: x_(k) counts N-1-k times."""
    xs.sort()
    return sum(map(mul, xs, range(len(xs) - 1, -1, -1)))


def _height_term(h, p: ChargeParams) -> int:
    """The part of d*a that depends on the symbol height h alone.

    The entries of a height-h symbol total n + d*h(h-1)/2, and tau sums
    C(d*t+1, 2) for t = 1..h-1; with the entries' pair sum and hook sums
    (_scaled_stat) and n*sum(sm), d*a is
    n*sum(sm) - d*tau + d*(total - n) - h*sum_{i<j} min(sm_i, sm_j) + stat.
    """
    d = p.d
    t1 = (h - 1) * h // 2
    t2 = (h - 1) * h * (2 * h - 1) // 6
    tau = (d * d * t2 + d * t1) // 2
    return d * d * t1 - d * tau - h * _weighted_min_sum(list(p.scaled_m))


def _scaled_row(i, comp, h, p: ChargeParams):
    """Row i of the height-h symbol of the composition comp, scaled: its
    entries d*beta + sm_i, and its hook sum.

    The entries are built once, the parts' then the padding's, and the
    betas total |comp| + h(h-1)/2.  The hook sum is that of
    min(d*k + sm_i, sm_j) over the row's entries beta, 1 <= k <= beta and
    every row j.  It is closed form: for fixed j the first
    K = floor((sm_j - sm_i)/d) values of k take the left side of the min,
    and every k takes sm_j when K <= 0.
    """
    d, sm = p.d, p.scaled_m
    sm_i = sm[i]
    row = [d * (x - j) + sm_i for j, x in enumerate(comp, 1 - h)]
    row += range(d * (h - len(comp) - 1) + sm_i, sm_i - 1, -d)
    beta_sum = sum(comp) + h * (h - 1) // 2
    hooks = 0
    if beta_sum:  # otherwise every beta is 0: no k at all
        for sm_j in sm:
            cut = (sm_j - sm_i) // d
            if cut <= 0:
                hooks += beta_sum * sm_j
                continue
            for x in row:
                beta = (x - sm_i) // d
                k = beta if beta < cut else cut
                hooks += d * k * (k + 1) // 2 + sm_i * k + (beta - k) * sm_j
    return row, hooks


def _scaled_stat(mc, h, p: ChargeParams) -> int:
    """d times the symbol statistic that orders compositions (see _oracles.prec).

    mc is a multicomposition read at symbol height h (at least its longest
    component).  The statistic is the pair sum, over all unordered pairs of
    scaled symbol entries d*beta + sm_row, of their minimum, less the rows'
    hook sums (_scaled_row).
    """
    entries, hooks = [], 0
    for i, comp in enumerate(mc):
        row, hook = _scaled_row(i, comp, h, p)
        entries += row
        hooks += hook
    return _weighted_min_sum(entries) - hooks


def _scaled_a_value(mp, p: ChargeParams) -> int:
    """d*a of one multipartition already validated with p.d components, at
    the least symbol height: each of its d rows computed once, no table."""
    h = max(map(len, mp))
    return (_height_term(h, p) + sum(map(sum, mp)) * sum(p.scaled_m)
            + _scaled_stat(mp, h, p))


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
    row it meets, with the scaled entries of _scaled_row and its term: its
    share |comp|*sum(sm) of n*sum(sm), less its hook sum.  It keeps each
    height's _height_term too, so a call that reads many multipartitions
    computes each row and each height term once.
    """
    __slots__ = ("p", "sm_sum", "rows", "heights")

    def __init__(self, p: ChargeParams):  # dict.__new__ made the empty table
        self.p, self.sm_sum = p, sum(p.scaled_m)
        self.rows = {}  # (i, comp, h) -> (its scaled entries, its term)
        self.heights = {}  # h -> _height_term(h, p)

    def __missing__(self, mp):
        p, rows = self.p, self.rows
        h = max(map(len, mp))
        total = self.heights.get(h)
        if total is None:
            total = self.heights[h] = _height_term(h, p)
        entries = []
        for i, comp in enumerate(mp):
            row = rows.get((i, comp, h))
            if row is None:
                row_entries, hooks = _scaled_row(i, comp, h, p)
                row = rows[i, comp, h] = (row_entries, sum(comp) * self.sm_sum - hooks)
            entries += row[0]
            total += row[1]
        value = self[mp] = total + _weighted_min_sum(entries)
        return value


def format_rational(x) -> str:
    """Render an int or a Fraction as 'p/q', or as the integer p when q = 1."""
    return _format_ratio(x.numerator, x.denominator)


def _format_ratio(num: int, den: int) -> str:
    """'num/den', or 'num' when den = 1; the pair is already in lowest terms
    with den positive."""
    return str(num) if den == 1 else f"{num}/{den}"
