"""Exact rational polynomial calculus.

Dense polynomials with Fraction coefficients, plus the special families used
by the height computations: the Rodrigues-type kernels H_{m,k}, the
hypergeometric sums G_{m,k} and Jacobi polynomials P_n^{(alpha,beta)}.
"""

from fractions import Fraction
from math import factorial

# factorial growth guard; far beyond any supported computation
MAX_RODRIGUES_ORDER = 64


class PolyError(ValueError):
    pass


class RationalPoly:
    """Dense univariate polynomial over Q, index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, o):
        o = _as_poly(o)
        n = max(len(self.coeffs), len(o.coeffs))
        return RationalPoly([self.coeff(i) + o.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, o):
        o = _as_poly(o)
        n = max(len(self.coeffs), len(o.coeffs))
        return RationalPoly([self.coeff(i) - o.coeff(i) for i in range(n)])

    def __neg__(self):
        return RationalPoly([-c for c in self.coeffs])

    def __mul__(self, o):
        if isinstance(o, (int, Fraction)):
            return RationalPoly([c * o for c in self.coeffs])
        if not isinstance(o, RationalPoly):
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return RationalPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise PolyError("negative polynomial power")
        r = RationalPoly([1])
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def deriv(self, order: int = 1) -> "RationalPoly":
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(i * c for i, c in enumerate(cs) if i > 0)
        return RationalPoly(cs)

    def compose(self, o: "RationalPoly") -> "RationalPoly":
        r = RationalPoly([])
        for c in reversed(self.coeffs):
            r = r * o + RationalPoly([c])
        return r

    def __call__(self, x):
        # Horner; works for any ring element that multiplies with Fraction
        r = 0
        for c in reversed(self.coeffs):
            r = r * x + c
        return r

    def divexact(self, o: "RationalPoly") -> "RationalPoly":
        """Exact quotient; raises PolyError if o does not divide self."""
        if o.is_zero():
            raise PolyError("division by zero polynomial")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(o.coeffs) + 1, 0)
        lead = o.coeffs[-1]
        for i in range(len(rem) - len(o.coeffs), -1, -1):
            f = rem[i + len(o.coeffs) - 1] / lead
            q[i] = f
            if f:
                for j, b in enumerate(o.coeffs):
                    rem[i + j] -= f * b
        if any(rem):
            raise PolyError("non-exact polynomial division")
        return RationalPoly(q)

    def __eq__(self, o):
        if isinstance(o, (int, Fraction)):
            o = _as_poly(o)
        if not isinstance(o, RationalPoly):
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "RationalPoly(0)"
        terms = " + ".join(f"({c})t^{i}" for i, c in enumerate(self.coeffs) if c)
        return f"RationalPoly({terms})"


def _as_poly(x):
    if isinstance(x, RationalPoly):
        return x
    return RationalPoly([x])


def _guard_order(n: int):
    if n > MAX_RODRIGUES_ORDER:
        raise PolyError(f"derivative order {n} exceeds limit {MAX_RODRIGUES_ORDER}")


def h_poly(m: int, k: int) -> RationalPoly:
    """H_{m,k}(t) = 1/(2^m (m+2k)!) d^{m+2k}/dt^{m+2k} [(t^2-1)^m (t-1)^{2k}].

    Degree m; the top 2k derivative orders collapse the (t-1)^{2k} factor.
    """
    if m < 0 or k < 0:
        raise PolyError("m, k must be nonnegative")
    _guard_order(m + 2 * k)
    w = RationalPoly([-1, 0, 1]) ** m * RationalPoly([-1, 1]) ** (2 * k)
    r = w.deriv(m + 2 * k) * Fraction(1, 2 ** m * factorial(m + 2 * k))
    assert r.degree == m
    return r


def g_poly(m: int, k: int) -> RationalPoly:
    """G_{m,k}(t) = sum_{a=0}^m (-1)^a (m+2k+a)!/((a!)^2 (m-a)!) t^a."""
    if m < 0 or k < 0:
        raise PolyError("m, k must be nonnegative")
    _guard_order(m + 2 * k)
    return RationalPoly([
        Fraction((-1) ** a * factorial(m + 2 * k + a),
                 factorial(a) ** 2 * factorial(m - a))
        for a in range(m + 1)
    ])


def jacobi_poly(n: int, alpha: int, beta: int) -> RationalPoly:
    """Jacobi polynomial by the Rodrigues formula with integer parameters.

    P_n^{(a,b)}(t) = ((-1)^n / (2^n n!)) (1-t)^{-a} (1+t)^{-b}
                     d^n/dt^n [(1-t)^{a+n} (1+t)^{b+n}].
    Raises PolyError when the expression is not a polynomial.
    """
    if n < 0:
        raise PolyError("n must be nonnegative")
    _guard_order(n)
    if alpha + n < 0 or beta + n < 0:
        raise PolyError("Rodrigues integrand is not a polynomial")
    inner = RationalPoly([1, -1]) ** (alpha + n) * RationalPoly([1, 1]) ** (beta + n)
    num = inner.deriv(n) * Fraction((-1) ** n, 2 ** n * factorial(n))
    for base, e in ((RationalPoly([1, -1]), alpha), (RationalPoly([1, 1]), beta)):
        if e > 0:
            num = num.divexact(base ** e)
        elif e < 0:
            num = num * base ** (-e)
    return num
