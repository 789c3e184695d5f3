"""Sparse integer Laurent polynomials in q, and their packed-int form.

Polynomials are stored as {exponent: coefficient} with no zero entries;
coefficients are Python ints, so nothing overflows.  The bar involution
sends q to q^(-1).

The divided powers and the straightening of the canonical-basis walk work
on packed ints instead (Kronecker substitution): a polynomial P whose
coefficients are smaller than 2^(B-1) in absolute value is stored as the
one int P(2^B) * 2^(B*O), its coefficients the int's base-2^B digits read
in balanced form (from -2^(B-1) to 2^(B-1) - 1).  B is the digit width
and O the offset, a shift that makes every exponent of P, from -O up,
a digit position from 0 up.  Multiplying by q^k is then a shift by B*k
bits, adding two polynomials one int add and multiplying them one int
multiply, each exact as long as every coefficient of the result fits its
digit.  pack and unpack convert (unpacked_polys makes
one LaurentPoly per distinct int), packed_at_one reads P(1) with one
remainder, low_mask selects the digits of exponent <= 0, and digit_width
and width_for give a B that every coefficient fits.
"""

from math import factorial


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                if not isinstance(e, int):
                    raise TypeError("exponents must be integers")
                if not isinstance(c, int):
                    raise TypeError("coefficients must be integers")
                if c:
                    data[e] = c
        object.__setattr__(self, "coeffs", data)

    @classmethod
    def _of(cls, coeffs):
        """Wrap coeffs unchecked: a dict of int exponents to nonzero ints.

        Only for the results of internal arithmetic, whose inputs were
        validated already; everything else goes through the constructor.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", coeffs)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        # pickle and copy would restore the slot through __setattr__
        return LaurentPoly, (self.coeffs,)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def bar(self):
        """Image under q -> q^(-1)."""
        return LaurentPoly._of({-e: c for e, c in self.coeffs.items()})

    def at_one(self) -> int:
        """Value at q = 1."""
        return sum(self.coeffs.values())

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        data = dict(self.coeffs)
        for e, c in other.coeffs.items():
            new = data.get(e, 0) + c
            if new:
                data[e] = new
            else:
                data.pop(e, None)
        return LaurentPoly._of(data)

    def __neg__(self):
        return LaurentPoly._of({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        data = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                new = data.get(e, 0) + c1 * c2
                if new:
                    data[e] = new
                else:
                    data.pop(e, None)
        return LaurentPoly._of(data)

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                qpart = "q" if e == 1 else f"q^{e}"
                body = qpart if abs(c) == 1 else f"{abs(c)}{qpart}"
            sign = "-" if c < 0 else "+"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"


def width_for(bound: int) -> int:
    """The least digit width B >= 2 with 2^(B-1) > bound: every coefficient
    of absolute value at most bound fits a balanced base-2^B digit."""
    return max(2, bound.bit_length() + 1)


def digit_width(n: int) -> int:
    """The digit width B of the canonical-basis walk to rank n: 2^(B-1) > 2*n!.

    Every coefficient the walk holds fits it, at every rank r <= n.
    - A start vector is f_k^(c) G(lam') or A(lam) = f_k^(c) A(lam').  The
      divided powers apply nonnegative monomials, G(lam') lies in N[q]
      and A(lam') = G(lam') + sum gamma_nu G(nu) with every gamma_nu in
      N[q, q^-1] (positivity, which the straightening checks for gamma), so
      G(lam') <= A(lam') coefficient by coefficient, and so is the start
      vector at most A(lam), an A-vector of rank r.
    - At q = 1, f_i^(c) is f_i^c / c! and f_i adds one i-node in every
      way, so the q = 1 value of an A-vector's coefficient at mu counts the
      ways of adding mu's r nodes one at a time along a residue sequence,
      over the product of its c!: at most the number of standard tableaux
      of mu, at most r!.  Its coefficients are nonnegative, so each is at
      most r! too.
    - The straightening subtracts from A = G(lam) + sum gamma_nu G(nu) its
      terms gamma_nu G(nu) one at a time, in ascending a-value, and each
      gamma it computes is that gamma_nu: the coefficient at nu then is
      gamma_nu plus G(lam)'s, which lies in q*Z[q].  So each partial result
      is G(lam) plus the terms not yet subtracted, nonnegative and at most
      the start vector, and each product gamma_nu G(nu) lies between 0 and
      the start vector too.
    So every coefficient lies in 0..r!, and every q = 1 value of a finished
    element in 0..r! as well; 2^(B-1) > 2*n! leaves a factor 2 of headroom.
    A break of positivity that the checks miss could overflow a digit, and
    then a guard raises or the result differs from the oracle's.
    """
    return width_for(2 * factorial(n))


def pack(coeffs, width: int, offset: int) -> int:
    """The int P(2^width) * 2^(width*offset) of P = sum c q^e over the
    items e: c of coeffs; every e + offset must be >= 0."""
    return sum(c << width * (e + offset) for e, c in coeffs.items())


def unpack(x: int, width: int, offset: int) -> dict:
    """{exponent: coefficient} of the packed int x, lowest exponent first
    and with no zero entries: the inverse of pack when every coefficient
    fits a balanced digit.  A run of zero digits is skipped in one shift,
    found from the lowest set bit.  width must be at least 2: each digit
    read then takes x closer to 0."""
    base = 1 << width
    half, mask = base >> 1, base - 1
    coeffs, e = {}, -offset
    while x:
        c = x & mask
        if not c:
            zeros = ((x & -x).bit_length() - 1) // width
            x >>= width * zeros
            e += zeros
            c = x & mask
        if c >= half:
            c -= base
        coeffs[e] = c
        x = (x - c) >> width
        e += 1
    return coeffs


def unpacked_polys(xs, width: int, offset: int) -> dict:
    """{x: its LaurentPoly} for each distinct packed int x of xs, all at one
    offset: each value is unpacked once and made one object."""
    return {x: LaurentPoly._of(unpack(x, width, offset)) for x in set(xs)}


def packed_at_one(x: int, width: int) -> int:
    """P(1) of the packed int x = P(2^width) * 2^(width*offset), at any offset.

    2^width is 1 modulo m = 2^width - 1, so x is P(1) modulo m; the
    remainder is read balanced, which is exact while |P(1)| < m / 2.
    """
    m = (1 << width) - 1
    r = x % m
    return r - m if r > m >> 1 else r


def low_mask(width: int, offset: int) -> int:
    """The bits of the digits of exponent <= 0 in an int packed at offset:
    x lies in q*Z[q] iff x & low_mask(width, offset) == 0."""
    return (1 << width * (offset + 1)) - 1
