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
kernel _scaled_a_value returns the integer d*a, which orders
multipartitions exactly as the a-value does; the canonical-basis and type B
pipelines key on it and build a Fraction only for the public a_value and
the a-values a DecompositionMatrix reports.
"""

from fractions import Fraction
from math import comb
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
    m = tuple(Fraction(x) for x in m)
    if len(m) != sym.d:
        raise ValueError(f"expected {sym.d} weights, got {len(m)}")
    rows = tuple(tuple(Fraction(entry) + m[i] for entry in row)
                 for i, row in enumerate(sym.rows))
    return ShiftedSymbol(rows=rows, height=sym.height)


def _scaled_entries(mc, h, d, scaled_m):
    """Entries d*B^(i)_j + sm_i of the height-h symbol, row by row."""
    out = []
    for comp, sm in zip(mc, scaled_m):
        base = d * h + sm
        out.extend(d * (x - j) + base for j, x in enumerate(comp, start=1))
        out.extend(range(d * (h - len(comp) - 1) + sm, sm - 1, -d))
    return out


def _weighted_min_sum(xs):
    """Sum of min(x, y) over unordered pairs of xs: sorted, x_(k) counts N-1-k times."""
    xs = sorted(xs)
    return sum(x * c for x, c in zip(xs, range(len(xs) - 1, -1, -1)))


def _scaled_stat(mc, h, p: ChargeParams) -> int:
    """d times the symbol statistic that orders compositions (see _oracles.prec).

    mc is a multicomposition read at symbol height h (at least its longest
    component).  The statistic is the pair sum, over all unordered pairs of
    scaled symbol entries d*beta + sm_row, of their minimum, less the hook
    sum of min(d*k + sm_i, sm_j) over rows i, entries alpha of row i,
    1 <= k <= alpha and all j.  Both are closed forms: the pair sum reads
    the sorted entries once, and for fixed i, j the first
    K = floor((sm_j - sm_i)/d) values of k take the left side of the min.
    """
    d, sm = p.d, p.scaled_m
    entries = _scaled_entries(mc, h, d, sm)
    total = _weighted_min_sum(entries)
    for i, sm_i in enumerate(sm):
        alphas = [(x - sm_i) // d for x in entries[i * h:(i + 1) * h]]
        alpha_sum = sum(alphas)
        if not alpha_sum:  # every alpha is 0: no k at all
            continue
        for sm_j in sm:
            cut = (sm_j - sm_i) // d
            if cut <= 0:  # every k takes sm_j
                total -= alpha_sum * sm_j
                continue
            for alpha in alphas:
                k = alpha if alpha < cut else cut
                total -= d * k * (k + 1) // 2 + sm_i * k + (alpha - k) * sm_j
    return total


def a_value(mp, p: ChargeParams) -> Fraction:
    """a-value of a d-partition: exact rational with denominator d.

    Equals -_oracles.schur_valuation(mp, p)/d.
    """
    mp = check_components(mp, p.d)
    return Fraction(_scaled_a_value(mp, p), p.d)


def _scaled_a_value(mp, p: ChargeParams) -> int:
    """d times the a_value of a multipartition already validated with p.d
    components, an int.

    d*a orders the multipartitions as a does, so the basis pipeline keys
    its tables, sorts and bisections on it and makes a Fraction only for
    what it returns.  The statistics of the symbol at the least height h
    are read in closed form from the parts: the entries total
    n + d*h(h-1)/2, and tau sums C(d*t+1, 2) for t = 1..h-1.
    """
    d, sm = p.d, p.scaled_m
    n = rank(mp)
    h = max(len(comp) for comp in mp)
    t1 = (h - 1) * h // 2
    t2 = (h - 1) * h * (2 * h - 1) // 6
    tau = (d * d * t2 + d * t1) // 2
    # n*sum(sm) - d*tau + d*(total - n) - h*sum_{i<j} min(sm_i, sm_j) + stat
    scaled = n * sum(sm) - d * tau + d * d * t1
    scaled -= h * _weighted_min_sum(sm)
    return scaled + _scaled_stat(mp, h, p)


def format_rational(x) -> str:
    """Render a Fraction as 'p/q', or plain integer when q = 1."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
