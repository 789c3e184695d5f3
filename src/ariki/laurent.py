"""Sparse integer Laurent polynomials in q, with exact division.

Polynomials are stored as {exponent: coefficient} with no zero entries;
coefficients are Python ints, so nothing overflows.  The bar involution
sends q to q^(-1).
"""


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                if not isinstance(c, int):
                    raise TypeError("coefficients must be integers")
                if c:
                    data[int(e)] = c
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

    @classmethod
    def q_power(cls, e: int, coeff: int = 1):
        return cls({e: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def min_degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return min(self.coeffs)

    def max_degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def in_q_zq(self) -> bool:
        """True iff the polynomial lies in q*Z[q] (zero counts)."""
        return not self.coeffs or min(self.coeffs) >= 1

    def bar(self):
        """Image under q -> q^(-1)."""
        return LaurentPoly._of({-e: c for e, c in self.coeffs.items()})

    def at_one(self) -> int:
        """Value at q = 1."""
        return sum(self.coeffs.values())

    def nonpositive_part(self):
        """Terms of degree <= 0."""
        return LaurentPoly({e: c for e, c in self.coeffs.items() if e <= 0})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        data = dict(self.coeffs)
        for e, c in other.coeffs.items():
            new = data.get(e, 0) + c
            if new:
                data[e] = new
            else:
                data.pop(e, None)
        return LaurentPoly._of(data)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly._of({})
            return LaurentPoly._of({e: c * other for e, c in self.coeffs.items()})
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

    __rmul__ = __mul__

    def exact_div(self, other):
        """Exact quotient self / other over Z[q, q^(-1)]; raises if inexact."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly()
        # shift both to ordinary polynomials and long-divide from the top
        lo_s, lo_o = self.min_degree(), other.min_degree()
        num = dict(self.coeffs)
        quot = {}
        lead_e = other.max_degree()
        lead_c = other.coeffs[lead_e]
        while num:
            top = max(num)
            c = num[top]
            if top - lead_e < lo_s - lo_o or c % lead_c:
                raise ArithmeticError("division is not exact")
            qe, qc = top - lead_e, c // lead_c
            quot[qe] = qc
            for e, oc in other.coeffs.items():
                ne = e + qe
                new = num.get(ne, 0) - oc * qc
                if new:
                    num[ne] = new
                else:
                    num.pop(ne, None)
            if num and max(num) >= top:
                raise ArithmeticError("division is not exact")
        result = LaurentPoly(quot)
        if result.min_degree() != lo_s - lo_o:
            raise ArithmeticError("division is not exact")
        return result

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
