"""p-adic arithmetic at capped relative precision.

PadicNumber stores p^val * unit with the unit known mod p^prec, so the value
is guaranteed mod p^(val+prec).  Valuations may be negative.  Zeros carry an
absolute precision: O(p^val); exact zeros use the EXACT sentinel.  Also here:
Teichmuller lifts, the Iwasawa branch of log_p, and the divisor-sum
functions epsilon_A / sigma_A built on Kronecker symbols.
"""

from fractions import Fraction
from math import gcd, log as _flog, ceil

from .quadfield import divisors, kronecker

EXACT = 10 ** 9  # sentinel valuation: exact zero


class PadicError(ArithmeticError):
    pass


def _vp(n: int, p: int):
    if n == 0:
        return EXACT
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicNumber:
    """p^val * unit + O(p^(val+prec)); unit = 0 encodes a zero O(p^(val+prec))."""

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: int, unit: int, prec: int):
        self.p = p
        if unit == 0:
            self.val = min(val + prec, EXACT)
            self.unit = 0
            self.prec = 0
            return
        if prec < 1:
            # all digits cancelled: only O(p^(val+prec)) is known
            self.val = val + prec
            self.unit = 0
            self.prec = 0
            return
        u = unit % (p ** prec)
        if u == 0:
            self.val = val + prec
            self.unit = 0
            self.prec = 0
            return
        v = _vp(u, p)
        if v:
            val += v
            prec -= v
            u //= p ** v
        self.val = val
        self.unit = u
        self.prec = prec

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(p: int, abs_prec: int = EXACT) -> "PadicNumber":
        return PadicNumber(p, abs_prec, 0, 0)

    @staticmethod
    def from_rational(p: int, x, prec: int) -> "PadicNumber":
        """Exact rational as a p-adic number with relative precision prec."""
        x = Fraction(x)
        if x == 0:
            return PadicNumber.zero(p)
        vn = _vp(x.numerator, p)
        vd = _vp(x.denominator, p)
        num = x.numerator // p ** vn
        den = x.denominator // p ** vd
        mod = p ** prec
        u = num * pow(den, -1, mod) % mod
        return PadicNumber(p, vn - vd, u, prec)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.unit == 0

    def is_exact_zero(self) -> bool:
        return self.unit == 0 and self.val >= EXACT

    def abs_prec(self) -> int:
        return self.val if self.unit == 0 else self.val + self.prec

    def valuation(self) -> int:
        """Known valuation; for a zero this is only a lower bound."""
        return self.val

    def residue(self, abs_prec: int) -> int:
        """Integer representative mod p^abs_prec (requires val >= 0)."""
        if self.abs_prec() < abs_prec:
            raise PadicError("not enough precision for requested residue")
        if self.unit == 0:
            return 0
        if self.val < 0:
            raise PadicError("negative valuation has no integer residue")
        return self.unit * self.p ** self.val % self.p ** abs_prec

    def truncate_abs(self, abs_prec: int) -> "PadicNumber":
        """Forget digits beyond absolute precision abs_prec."""
        if self.unit == 0:
            return PadicNumber(self.p, min(self.val, abs_prec), 0, 0)
        return PadicNumber(self.p, self.val, self.unit, min(self.prec, abs_prec - self.val))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, o: "PadicNumber"):
        if self.p != o.p:
            raise PadicError("mixed primes")

    def _coerce_abs(self, o, cap: int):
        if isinstance(o, PadicNumber):
            return o
        x = Fraction(o)
        if x == 0:
            return PadicNumber.zero(self.p)
        if cap >= EXACT:
            raise PadicError("cannot coerce a nonzero rational at infinite precision")
        v = _vp(x.numerator, self.p) - _vp(x.denominator, self.p)
        return PadicNumber.from_rational(self.p, x, max(cap - v, 1))

    def _coerce_rel(self, o):
        if isinstance(o, PadicNumber):
            return o
        x = Fraction(o)
        if x == 0:
            return PadicNumber.zero(self.p)
        return PadicNumber.from_rational(self.p, x, max(self.prec, 1))

    def __add__(self, o):
        o = self._coerce_abs(o, self.abs_prec())
        self._check(o)
        p = self.p
        if self.is_exact_zero():
            return o
        if o.is_exact_zero():
            return self
        cap = min(self.abs_prec(), o.abs_prec())
        shift = min(self.val, o.val)
        if cap <= shift:
            return PadicNumber.zero(p, cap)
        mod = p ** (cap - shift)
        acc = 0
        if self.unit:
            acc += self.unit * p ** (self.val - shift)
        if o.unit:
            acc += o.unit * p ** (o.val - shift)
        acc %= mod
        if acc == 0:
            return PadicNumber.zero(p, cap)
        v = _vp(acc, p)
        return PadicNumber(p, shift + v, acc // p ** v, cap - shift - v)

    __radd__ = __add__

    def __neg__(self):
        return PadicNumber(self.p, self.val, (-self.unit) % self.p ** self.prec
                           if self.unit else 0, self.prec)

    def __sub__(self, o):
        return self + (-self._coerce_abs(o, self.abs_prec()))

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        o = self._coerce_rel(o)
        self._check(o)
        p = self.p
        if self.is_exact_zero() or o.is_exact_zero():
            return PadicNumber.zero(p)
        if self.unit == 0 or o.unit == 0:
            return PadicNumber.zero(p, self.val + o.val)
        prec = min(self.prec, o.prec)
        return PadicNumber(p, self.val + o.val,
                           self.unit * o.unit % p ** prec, prec)

    __rmul__ = __mul__

    def inv(self) -> "PadicNumber":
        if self.unit == 0:
            raise PadicError("inverting a zero")
        mod = self.p ** self.prec
        return PadicNumber(self.p, -self.val, pow(self.unit, -1, mod), self.prec)

    def __truediv__(self, o):
        o = self._coerce_rel(o)
        self._check(o)
        return self * o.inv()

    def __rtruediv__(self, o):
        return self.inv() * o

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inv() ** (-e)
        if self.unit == 0:
            if e == 0:
                raise PadicError("0^0 at finite precision")
            if self.is_exact_zero():
                return PadicNumber.zero(self.p)
            return PadicNumber.zero(self.p, self.val * e)
        mod = self.p ** self.prec
        return PadicNumber(self.p, self.val * e, pow(self.unit, e, mod), self.prec)

    def __eq__(self, o):
        """Congruence modulo p^(min absolute precision)."""
        if isinstance(o, (int, Fraction)):
            if self.is_exact_zero():
                return Fraction(o) == 0
            o = self._coerce_abs(o, self.abs_prec())
        if not isinstance(o, PadicNumber):
            return NotImplemented
        return (self - o).is_zero()

    __hash__ = None

    def __repr__(self):
        if self.unit == 0:
            if self.val >= EXACT:
                return f"0 (exact, p={self.p})"
            return f"O({self.p}^{self.val})"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.val + self.prec})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        digits = []
        u = self.unit
        for _ in range(self.prec):
            digits.append(str(u % self.p))
            u //= self.p
        return {"p": self.p, "val": self.val if self.val < EXACT else "exact-zero",
                "unit": ",".join(digits), "prec": self.prec}


# ---------------------------------------------------------------------------
# Teichmuller lifts and the Iwasawa logarithm

def teichmuller(p: int, x: int, N: int) -> PadicNumber:
    """The (p-1)-st root of unity congruent to x mod p, to precision N."""
    if x % p == 0:
        raise PadicError("Teichmuller lift needs a unit")
    return PadicNumber(p, 0, _teich_int(p, x, p ** N), N)


def _teich_int(p: int, x: int, mod: int) -> int:
    t = x % mod
    while True:
        t2 = pow(t, p, mod)
        if t2 == t:
            return t
        t = t2


def iwasawa_log(p: int, x, N: int) -> PadicNumber:
    """Iwasawa's branch of log_p on nonzero rationals, to precision N.

    log_p(p) = 0, so log_p(x) = log_p(u) for the unit u = x/p^v(x), and
    log_p(u) = log_p(u^(p-1))/(p-1) with u^(p-1) in 1 + pZ_p, evaluated by
    the alternating series in u^(p-1) - 1.
    """
    x = Fraction(x)
    if x == 0:
        raise PadicError("log of zero")
    # series cutoff: beyond n_max every term y^n/n has valuation >= N
    n_max = N + ceil(_flog(max(N, 2)) / _flog(p)) + 2
    guard = ceil(_flog(n_max) / _flog(p)) + 1
    W = N + guard
    mod = p ** W
    vn = _vp(x.numerator, p)
    vd = _vp(x.denominator, p)
    num = x.numerator // p ** vn
    den = x.denominator // p ** vd
    u = num * pow(den, -1, mod) % mod
    y = (pow(u, p - 1, mod) - 1) % mod
    if y == 0:
        return PadicNumber.zero(p, N)
    acc = 0
    power = 1
    for n in range(1, n_max + 1):
        power = power * y % mod
        if power == 0:
            break
        e = _vp(n, p)
        n0 = n // p ** e
        # y^n has valuation >= n > e, so the division by p^e is exact
        term = power // p ** e % (mod // p ** e) * pow(n0, -1, mod) % mod
        if n % 2 == 0:
            term = -term
        acc = (acc + term) % mod
    acc = acc * pow(p - 1, -1, mod) % mod
    return PadicNumber(p, 0, acc, W).truncate_abs(N)


# ---------------------------------------------------------------------------
# the divisor-sum functions

def epsilon_A(D: int, N_level: int, class_norm: int, n: int, d: int) -> int:
    """Genus-character sign for the divisor d of n, in {-1, 0, 1}.

    Zero when gcd(d, n/d, |D|) > 1; otherwise the Kronecker product
    (D1/d) (D2/-nN/d) (D2/class_norm) for the coprime discriminant
    factorization D = D1 * D2 fixed by |D2| = gcd(d, |D|).
    """
    if n % d != 0:
        raise PadicError("d must divide n")
    if gcd(class_norm, D) != 1:
        raise PadicError("class norm must be coprime to D")
    if gcd(gcd(d, n // d), -D) > 1:
        return 0
    m2 = gcd(d, -D)
    D2 = m2 if m2 % 4 == 1 else -m2
    if D % D2 != 0:
        raise PadicError("discriminant factorization failure (bug)")
    D1 = D // D2
    return (kronecker(D1, d)
            * kronecker(D2, -(n // d) * N_level)
            * kronecker(D2, class_norm))


def sigma_A(D: int, N_level: int, class_norm: int, n: int, p: int, N: int) -> PadicNumber:
    """sigma_A(n) = sum over d | n of epsilon_A(n,d) log_p(n/d^2)."""
    if n < 1:
        raise PadicError("n must be positive")
    acc = PadicNumber.zero(p)
    for d in divisors(n):
        e = epsilon_A(D, N_level, class_norm, n, d)
        if e:
            term = iwasawa_log(p, Fraction(n, d * d), N)
            acc = acc + (term if e > 0 else -term)
    return acc.truncate_abs(N)
