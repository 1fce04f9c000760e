"""Imaginary quadratic fields with odd fundamental discriminant.

Binary quadratic forms, Gauss composition, the form class group, and the
two-generator ideal calculus for the maximal order of Q(sqrt(D)), D < -4,
D = 1 mod 4 squarefree.  Everything is exact integer/rational arithmetic.
The package's integer number theory on D, N, p and ideal norms lives here
too: Kronecker symbols, isprime (Baillie-PSW), factorint (trial division,
then Pollard rho), divisors, the roots of X^d = a in F_p, the Newton lift
of roots mod p^N, and square roots modulo prime powers.

Conventions used throughout the package:

* a form is a tuple (a, b, c) with b^2 - 4ac = D, positive definite;
* the ideal a*Z + ((-b + sqrt(D))/2)*Z corresponds to the form (a, b, c)
  with c = (b^2 - D)/(4a); non-primitive integral ideals carry an extra
  integer multiplier e, stored as (e, a, b), norm e^2 * a;
* class indices are positions in the lexicographically sorted list of
  reduced forms (sorted by (a, b)), so index 0 is the principal class.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt


class QuadFieldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# discriminants

def validate_discriminant(D: int) -> int:
    """Check D is a negative fundamental odd discriminant with D < -4.

    Accepts exactly the D this package supports: D = 1 mod 4, squarefree,
    D <= -7.  This pins the unit group to {+-1} (w = 2, u = 1).
    """
    if not isinstance(D, int):
        raise QuadFieldError("discriminant must be an integer")
    if D >= 0:
        raise QuadFieldError("discriminant must be negative")
    if D % 4 != 1:
        raise QuadFieldError("discriminant must be 1 mod 4 (odd fundamental)")
    if D in (-3,):
        raise QuadFieldError("D = -3 has extra units; only D < -4 is supported")
    # squarefree check
    n = -D
    f = factorint(n)
    if any(e > 1 for e in f.values()):
        raise QuadFieldError("discriminant must be squarefree")
    return D


# ---------------------------------------------------------------------------
# Kronecker symbol (full extension)

def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers.

    (a/0) = 1 iff a = +-1 else 0; (a/-1) = -1 iff a < 0;
    (a/2) = 0 for even a, else +1 for a = +-1 mod 8, -1 otherwise.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    acc = 1
    if n < 0:
        n = -n
        if a < 0:
            acc = -acc
    # factor out twos of n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            acc = -acc
    # now n odd positive: Jacobi loop
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                acc = -acc
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            acc = -acc
        a %= n
    return acc if n == 1 else 0


# ---------------------------------------------------------------------------
# small integers: primality, factorization, divisors, root lifting

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def isprime(n: int) -> bool:
    """Baillie-PSW: a strong probable-prime test to base 2 plus a strong
    Lucas test with Selfridge parameters.  No composite below 2^64 passes."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1    # n - 1 = d * 2^s
    x = pow(2, (n - 1) >> s, n)
    if x != 1 and x != n - 1:
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if isqrt(n) ** 2 == n:
        return False
    Dl = 5              # Selfridge: the first of 5, -7, 9, ... with (Dl/n) = -1
    while (j := kronecker(Dl, n)) == 1:
        Dl = 2 - Dl if Dl < 0 else -Dl - 2
    return j == -1 and _strong_lucas(n, Dl, (1 - Dl) // 4)


def _strong_lucas(n: int, Dl: int, Q: int) -> bool:
    """Strong Lucas probable-prime test of odd n with P = 1, Dl = 1 - 4Q."""
    s = ((n + 1) & -(n + 1)).bit_length() - 1   # n + 1 = d * 2^s
    U, V, Qk = 1, 1, Q % n                      # U_1, V_1, Q^1
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) % n, (Dl * U + V) % n, Qk * Q % n
            U, V = (U + n * (U & 1)) >> 1, (V + n * (V & 1)) >> 1
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


_RHO_BUDGET = 1 << 22      # Pollard rho steps spent on one composite


def _rho(n: int) -> int:
    """A proper factor of the odd composite n: Pollard rho, Brent's cycle,
    in at most _RHO_BUDGET steps over all the constants c tried.  A round
    takes one gcd of the product of its differences, and is redone with a
    gcd per step only when that gcd is n."""
    steps = 0
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            if (steps := steps + r) > _RHO_BUDGET:
                raise QuadFieldError(f"hypothesis the factorization of n is "
                                     f"within the Pollard rho budget of "
                                     f"{_RHO_BUDGET} steps fails: n = {n}")
            x, q = y, 1
            for _ in range(r):
                y = (y * y + c) % n
                q = q * (x - y) % n
            if (g := gcd(q, n)) == n:
                y = x
                for _ in range(r):
                    y = (y * y + c) % n
                    if (g := gcd(x - y, n)) != 1:
                        break
            r *= 2
        if g != n:
            return g


def factorint(n: int) -> dict:
    """{prime: exponent} of n, primes increasing; n < 0 adds -1: 1 and n = 0
    gives {0: 1}."""
    if n == 0:
        return {0: 1}
    out = {-1: 1} if n < 0 else {}
    n = abs(n)
    for q in _SMALL_PRIMES:
        while n % q == 0:
            n //= q
            out[q] = out.get(q, 0) + 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if isprime(m):
            out[m] = out.get(m, 0) + 1
        else:
            stack += [f := _rho(m), m // f]
    return dict(sorted(out.items()))


def divisors(n: int) -> list:
    """Positive divisors of n in increasing order ([] for n = 0)."""
    if n == 0:
        return []
    out = [1]
    for q, e in factorint(abs(n)).items():
        out = [d * q ** i for d in out for i in range(e + 1)]
    return sorted(out)


def roots_mod_p(a: int, d: int, p: int) -> list[int]:
    """The roots of X^d = a in F_p, sorted, for a unit a mod the prime p.

    With n = p - 1 and g = gcd(d, n) there are roots only when
    a^(n/g) = 1.  As d/g is prime to n/g, the roots are those of
    X^g = a^e, e = (d/g)^-1 mod n/g: one of them comes from an
    Adleman-Manders-Miller step per prime of g (with multiplicity), the
    others are it times the g-th roots of unity."""
    if a % p == 0:
        raise QuadFieldError(f"X^{d} = {a % p} mod {p}: a must be a unit")
    n = p - 1
    g = gcd(d, n)
    if pow(a, n // g, p) != 1:
        return []
    x = pow(a, pow(d // g, -1, n // g), p)
    zeta = 1                                    # a primitive g-th root of 1
    for q, k in factorint(g).items():
        s, t = 0, n                             # n = q^s t, q prime to t
        while t % q == 0:
            s, t = s + 1, t // q
        z = next(z for z in count(2) if pow(z, n // q, p) != 1)
        c = pow(z, t, p)                        # of order q^s
        zeta = zeta * pow(c, q ** (s - k), p) % p
        gamma = pow(c, q ** (s - 1), p)         # of order q
        log_gamma = {pow(gamma, j, p): j for j in range(q)}
        for _ in range(k):
            # the AMM step (Tonelli-Shanks at q = 2): x^(q^-1 mod t) is a
            # q-th root of x up to err = c^L; read L base q digit by digit
            y = pow(x, pow(q, -1, t), p)
            err = pow(y, q, p) * pow(x, -1, p) % p
            L = 0
            for i in range(s):
                h = pow(err * pow(c, -L, p), q ** (s - 1 - i), p)
                L += log_gamma[h] * q ** i
            x = y * pow(c, -(L // q), p) % p    # q | L as x is a q-th power
    roots = [x]
    for _ in range(g - 1):
        roots.append(roots[-1] * zeta % p)
    return sorted(roots)


def lift_root(p: int, x: int, a: int, d: int, N: int) -> int:
    """Newton-lift the simple residue root x of X^d - a mod p to a root mod
    p^N; a is an integer unit.  A root that is not simple (p divides
    d x^(d-1)) or a lift that ends in no root raises QuadFieldError."""
    if d * pow(x, d - 1, p) % p == 0:
        raise QuadFieldError(f"X^{d} - {a % p} mod {p} has no simple root "
                             f"at {x % p}")
    mod, target = p, p ** N
    while mod < target:
        mod = min(mod * mod, target)
        # x - (x^d - a) / (d x^(d-1)) = ((d-1) x^d + a) / (d x^(d-1))
        y = pow(x, d - 1, mod)
        x = ((d - 1) * x * y + a) * pow(d * y, -1, mod) % mod
    if pow(x, d, target) != a % target:
        raise QuadFieldError("root lift failed (bug)")
    return x


# ---------------------------------------------------------------------------
# forms

def form_disc(f) -> int:
    a, b, c = f
    return b * b - 4 * a * c


def is_reduced(f) -> bool:
    a, b, c = f
    if not (abs(b) <= a <= c):
        return False
    if (abs(b) == a or a == c) and b < 0:
        return False
    return True


def reduce_form(f, with_transform: bool = False):
    """Gauss-reduce a positive definite form.

    With with_transform, also return M = [[m00, m01], [m10, m11]] with
    f(M @ (x, y)) = f_red(x, y); column (m00, m10) then gives the vector
    on which f takes the value f_red(1, 0).
    """
    a, b, c = f
    if a <= 0 or form_disc(f) >= 0:
        raise QuadFieldError("form must be positive definite")
    m00, m01, m10, m11 = 1, 0, 0, 1
    while True:
        # normalize: bring b into (-a, a]
        if not (-a < b <= a):
            k = (a - b) // (2 * a)          # b + 2ak in (-a, a]
            b2 = b + 2 * a * k
            c = a * k * k + b * k + c
            b = b2
            # (x, y) -> (x + k y, y)
            m01, m11 = m01 + k * m00, m11 + k * m10
        if a > c:
            # swap via (x, y) -> (-y, x): (a,b,c) -> (c,-b,a)
            a, b, c = c, -b, a
            m00, m01 = m01, -m00
            m10, m11 = m11, -m10
            continue
        if a == c and b < 0:
            a, b, c = c, -b, a
            m00, m01 = m01, -m00
            m10, m11 = m11, -m10
        break
    fr = (a, b, c)
    assert is_reduced(fr)
    if with_transform:
        return fr, (m00, m01, m10, m11)
    return fr


_DISC_BOUND = 10 ** 10     # largest |D| whose reduced forms are listed


@lru_cache(maxsize=None)
def reduced_forms(D: int):
    """All reduced forms of discriminant D, sorted lexicographically by (a, b).

    For each a <= sqrt(|D|/3) the b of the primitive ideals of norm a are the
    roots of b^2 = D mod 4a in (-a, a], increasing; (a, b, c) is reduced when
    c > a, or c = a and b >= 0.  Past |D| = _DISC_BOUND, where the class group
    of a slow D (large h, not cyclic) first takes about 10 s, D is refused
    before any form is listed."""
    validate_discriminant(D)
    if -D > _DISC_BOUND:
        raise QuadFieldError(f"hypothesis |D| <= {_DISC_BOUND} for the class "
                             f"group fails: |D| = {-D}")
    out = []
    for a in range(1, isqrt(-D // 3) + 1):
        for (_, _, b) in primitive_ideals_of_norm(D, factorint(a)):
            c = (b * b - D) // (4 * a)
            if c > a or (c == a and b >= 0):
                out.append((a, b, c))
    return tuple(out)


def class_number(D: int) -> int:
    return len(reduced_forms(D))


def principal_form(D: int):
    return (1, 1, (1 - D) // 4)


# ---------------------------------------------------------------------------
# field elements: x + y*sqrt(D) with rational x, y

class KElem:
    """Element x + y*sqrt(D) of Q(sqrt(D)), exact rational coordinates."""

    __slots__ = ("D", "x", "y")

    def __init__(self, D: int, x, y):
        self.D = D
        self.x = Fraction(x)
        self.y = Fraction(y)

    def __add__(self, o):
        o = self._coerce(o)
        return KElem(self.D, self.x + o.x, self.y + o.y)

    def __sub__(self, o):
        o = self._coerce(o)
        return KElem(self.D, self.x - o.x, self.y - o.y)

    def __neg__(self):
        return KElem(self.D, -self.x, -self.y)

    def __mul__(self, o):
        o = self._coerce(o)
        return KElem(
            self.D,
            self.x * o.x + self.D * self.y * o.y,
            self.x * o.y + self.y * o.x,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def _coerce(self, o):
        if isinstance(o, KElem):
            if o.D != self.D:
                raise QuadFieldError("mixed discriminants")
            return o
        return KElem(self.D, o, 0)

    def norm(self) -> Fraction:
        return self.x * self.x - self.D * self.y * self.y

    def inv(self) -> "KElem":
        n = self.norm()
        if n == 0:
            raise QuadFieldError("zero element has no inverse")
        return KElem(self.D, self.x / n, -self.y / n)

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        r = KElem(self.D, 1, 0)
        base = self
        while e:
            if e & 1:
                r = r * base
            base = base * base
            e >>= 1
        return r

    def __eq__(self, o):
        if not isinstance(o, KElem):
            o = self._coerce(o)
        return self.D == o.D and self.x == o.x and self.y == o.y

    def __hash__(self):
        return hash((self.D, self.x, self.y))

    def __repr__(self):
        return f"KElem({self.D}, {self.x}, {self.y})"


# ---------------------------------------------------------------------------
# ideals: (e, a, b) meaning e * (a*Z + ((-b + sqrt(D))/2) * Z)

def normalize_ideal(D: int, e: int, a: int, b: int):
    """Canonical representative: e > 0, a > 0, b odd in (-a, a]."""
    if e <= 0 or a <= 0:
        raise QuadFieldError("ideal multiplier and norm part must be positive")
    if (b * b - D) % (4 * a) != 0:
        raise QuadFieldError("b^2 != D mod 4a")
    b = b % (2 * a)
    if b > a:
        b -= 2 * a
    return (e, a, b)


def ideal_norm(ideal) -> int:
    e, a, _ = ideal
    return e * e * a


def unit_ideal(D: int):
    return (1, 1, 1)


def ideal_conj(D: int, ideal):
    e, a, b = ideal
    return normalize_ideal(D, e, a, -b)


def ideal_mult(D: int, i1, i2):
    """Product of integral ideals via a 2x2 Hermite normal form.

    Lattice vectors are (x, y) meaning (x + y*sqrt(D))/2; the ideal
    (e,a,b) has basis rows (2a, 0), (-b, 1), scaled by e.
    """
    e1, a1, b1 = i1
    e2, a2, b2 = i2
    # basis products of the primitive parts, in (x, y) half-coordinates
    rows = [
        (2 * a1 * a2, 0),
        (-a1 * b2, a1),
        (-a2 * b1, a2),
        ((b1 * b2 + D) // 2, -(b1 + b2) // 2),
    ]
    # HNF: gy = gcd of y's, realized by an integer combination
    x0, y0 = 0, 0
    for (x, y) in rows:
        if y == 0:
            continue
        if y0 == 0:
            x0, y0 = x, y
        else:
            # extended gcd combine
            g, s, t = _xgcd(y0, y)
            x0, y0 = s * x0 + t * x, g
    if y0 < 0:
        x0, y0 = -x0, -y0
    # reduce remaining rows to y = 0 and gcd the x parts
    xg = 0
    for (x, y) in rows:
        k = y // y0
        xr = x - k * x0
        xg = gcd(xg, xr)
    # lattice = xg*Z x {0} + Z*(x0, y0); ideal = (y0/?) ... content:
    # (x + y sqrt D)/2 with x in xg Z, y in y0 Z; primitive ideal scaled by e:
    # e = y0, a = xg / (2 y0), b = -x0 / y0 normalized.
    if xg % (2 * y0) != 0 or x0 % y0 != 0:
        raise QuadFieldError("ideal product lattice is not an ideal (bug)")
    e = e1 * e2 * y0
    a = xg // (2 * y0)
    b = -(x0 // y0)
    return normalize_ideal(D, e, a, b)


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def ideal_pow(D: int, ideal, e: int):
    if e < 0:
        raise QuadFieldError("only nonnegative ideal powers")
    out = unit_ideal(D)
    base = ideal
    while e:
        if e & 1:
            out = ideal_mult(D, out, base)
        base = ideal_mult(D, base, base)
        e >>= 1
    return out


def form_of_ideal(D: int, ideal):
    """Reduced form of the ideal class."""
    _, a, b = ideal
    c = (b * b - D) // (4 * a)
    return reduce_form((a, b, c))


def ideal_of_form(D: int, f):
    a, b, _ = f
    return normalize_ideal(D, 1, a, b)


@lru_cache(maxsize=None)
def form_index(D: int) -> dict:
    """Each reduced form of discriminant D mapped to its class index."""
    return {f: i for i, f in enumerate(reduced_forms(D))}


def class_index_of_ideal(D: int, ideal) -> int:
    return form_index(D)[form_of_ideal(D, ideal)]


def element_in_ideal(D: int, ideal, z: KElem) -> bool:
    e, a, b = ideal
    # z = s*(ea) + t*e*(-b+sqrt D)/2  =>  t = 2*z.y/e, s = (z.x + t*e*b/2)/(ea)
    t = 2 * z.y / e
    if t.denominator != 1:
        return False
    s = (z.x + Fraction(int(t) * e * b, 2)) / (e * a)
    return s.denominator == 1


# ---------------------------------------------------------------------------
# composition of forms = multiplication of ideal classes

def compose(f1, f2):
    """Gauss composition, returned reduced."""
    D = form_disc(f1)
    if form_disc(f2) != D:
        raise QuadFieldError("forms must share a discriminant")
    prod = ideal_mult(D, ideal_of_form(D, f1), ideal_of_form(D, f2))
    return form_of_ideal(D, prod)


def form_inverse(f):
    a, b, c = f
    return reduce_form((a, -b, c))


# ---------------------------------------------------------------------------
# class group structure

class ClassGroup:
    """The form class group of discriminant D with a fixed class indexing.

    Indices refer to positions in reduced_forms(D).  generators is a list of
    (class index, order) for a cyclic decomposition; dlog(i) returns the
    exponent tuple of class i in those generators.
    """

    def __init__(self, D: int):
        self.D = D
        self.forms = reduced_forms(D)     # validates D
        self.h = len(self.forms)
        self._index = form_index(D)
        self._mult = {}
        self.identity = self._index[principal_form(D)]
        self.generators, self._dlog = self._decompose()

    def mult(self, i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        r = self._mult.get(key)
        if r is None:
            r = self._index[compose(self.forms[key[0]], self.forms[key[1]])]
            self._mult[key] = r
        return r

    def inv(self, i: int) -> int:
        return self._index[form_inverse(self.forms[i])]

    def pow(self, i: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(i), -e)
        r = self.identity
        while e:
            if e & 1:
                r = self.mult(r, i)
            i = self.mult(i, i)
            e >>= 1
        return r

    def _decompose(self):
        """Cyclic decomposition: generators g_i with orders d_i, each the
        smallest class index of maximal order in the remaining quotient
        G/<g_1, ..., g_(i-1)>, adjusted so that g_i^(d_i) = 1.  Also returns
        the discrete-log table: each class mapped to its exponents over the
        generators.  Orders in the quotient come from pow against a known
        multiple, |G/<gens>|; the one walk lists the span of a generating
        set, h compositions in all."""
        # xs generate G: each lies outside the span of those before it.  The
        # span grows by one coset of its old self per power of x until a
        # power falls in it, and so in the old span (x^j in old * x^i puts
        # x^(j-i) there)
        span, xs = {self.identity}, []
        for x in range(self.h):
            if x not in span:
                xs.append(x)
                r, old = x, list(span)
                while r not in span:
                    span.update(self.mult(s, r) for s in old)
                    r = self.mult(r, x)
        gens = []
        subgroup = {self.identity: ()}     # <gens>, with exponents over gens
        while len(subgroup) < self.h:
            # the maximal order d in G/<gens> is its exponent, which divides
            # |G/<gens>|: as the xs generate G, divide each prime l out while
            # every x^(d/l) stays in the subgroup; then take the smallest
            # index of order d
            d = self.h // len(subgroup)
            for l in factorint(d):
                while d % l == 0 and all(self.pow(x, d // l) in subgroup
                                         for x in xs):
                    d //= l
            ls = factorint(d)                  # the primes l of d
            g = next(g for g in range(self.h)
                     if all(self.pow(g, d // l) not in subgroup for l in ls))
            # adjust so g^d is the identity, not just inside the subgroup:
            # g^d = prod gi^ei, so divide out prod gi^(ei/d)
            for (gi, _), e in zip(gens, subgroup[self.pow(g, d)]):
                if e % d != 0:
                    raise QuadFieldError("decomposition failure (bug)")
                g = self.mult(g, self.pow(self.inv(gi), e // d))
            if self.pow(g, d) != self.identity:
                raise QuadFieldError("decomposition failure (bug)")
            gens.append((g, d))
            new = {}
            for s, exps in subgroup.items():
                r = s
                for j in range(d):
                    new[r] = exps + (j,)
                    r = self.mult(r, g)
            if len(new) != len(subgroup) * d:
                raise QuadFieldError("generators do not span (bug)")
            subgroup = new
        return gens, subgroup

    def dlog(self, i: int):
        return self._dlog[i]


@lru_cache(maxsize=None)
def class_group(D: int) -> ClassGroup:
    return ClassGroup(D)


# ---------------------------------------------------------------------------
# principal ideal generators

def principal_generator(D: int, ideal) -> KElem:
    """A generator of a principal integral ideal (error if not principal).

    Uses the reduction transform: the form (a,b,c) takes the value 1 at the
    first transform column exactly when the class is principal; the matching
    lattice vector s*a + t*(b-sqrt(D))/2 generates (the ideal is
    a*Z + ((-b+sqrt(D))/2)*Z, and (b-sqrt(D))/2 is minus the second basis
    element).  Result is unique up to sign; the sign with (x > 0) or
    (x = 0, y > 0) is returned.
    """
    e, a, b = ideal
    c = (b * b - D) // (4 * a)
    fr, (m00, m01, m10, m11) = reduce_form((a, b, c), with_transform=True)
    if fr != principal_form(D):
        raise QuadFieldError("ideal is not principal")
    s, t = m00, m10
    g = KElem(D, Fraction(2 * s * a + t * b, 2), Fraction(-t, 2)) * e
    if g.norm() != ideal_norm(ideal):
        raise QuadFieldError("generator norm mismatch (bug)")
    if not element_in_ideal(D, ideal, g):
        raise QuadFieldError("generator not in ideal (bug)")
    if g.x < 0 or (g.x == 0 and g.y < 0):
        g = -g
    return g


# ---------------------------------------------------------------------------
# prime splitting and ideal enumeration

def split_type(D: int, q: int) -> str:
    """'split', 'inert' or 'ramified' for a rational prime q."""
    if not isprime(q):
        raise QuadFieldError("q must be prime")
    s = kronecker(D, q)
    return {1: "split", -1: "inert", 0: "ramified"}[s]


def _sqrt_odd_mod_power_of_two(D: int, t: int) -> list[int]:
    """Odd x mod 2^(t+1) with x^2 = D mod 2^(t+2); D odd."""
    if t == 0:
        return [1] if D % 4 == 1 else []
    if D % 8 != 1:
        return []
    # x^2 = D mod 2^j with j >= 3 lifts to mod 2^(j+1) by fixing bit j - 1
    x = 1
    for j in range(3, t + 2):
        if (x * x - D) % (1 << (j + 1)):
            x += 1 << (j - 1)
    # the odd roots mod 2^(t+2) are +-x and +-x + 2^(t+1)
    m = 1 << (t + 1)
    return sorted({x % m, -x % m})


def primitive_ideals_of_norm(D: int, f: dict) -> list:
    """Primitive integral ideals of norm n, given as its factorization
    f = {prime q: exponent e >= 1} (n = prod q^e >= 1, so {} is n = 1): all
    (1, n, b) with b^2 = D mod 4n."""
    t = f.get(2, 0)
    roots2 = _sqrt_odd_mod_power_of_two(D, t)
    if not roots2:
        return []
    crt_mod = 1 << (t + 1)
    crt_roots = roots2
    for q, e in f.items():
        if q == 2:
            continue
        if D % q == 0:
            if e > 1:
                return []
            qroots = [0]
            qmod = q
        else:
            r = roots_mod_p(D, 2, q)
            if not r:
                return []
            qmod = q**e
            x = lift_root(q, r[0], D, 2, e)
            qroots = [x, qmod - x]
        # CRT combine
        s = pow(crt_mod, -1, qmod)
        crt_roots = [(r1 + (r2 - r1) * s % qmod * crt_mod) % (crt_mod * qmod)
                     for r1 in crt_roots for r2 in qroots]
        crt_mod *= qmod
    # crt_mod is now 2^(t+1) * prod q^e = 2n: each root is the one b mod 2n
    n = crt_mod // 2
    out = []
    for b in crt_roots:
        if (b * b - D) % (4 * n) != 0:
            raise QuadFieldError("CRT root fails b^2 = D mod 4n (bug)")
        out.append(normalize_ideal(D, 1, n, b))
    return sorted(out)


def ideals_of_norm(D: int, n) -> list:
    """All integral ideals of norm n as (ideal, class index) pairs, none
    unless n is a positive integer (r(0) = 0): e * (primitive ideal of
    norm n / e^2) for e | prod q^(k // 2), n = prod q^k.  n is factored
    once: each e comes with the factorization of n / e^2."""
    index = form_index(D)                   # validates D
    if n != int(n) or n <= 0:
        return []
    parts = [(1, {})]
    for q, k in factorint(int(n)).items():
        parts = [(e * q ** i, {**f, q: k - 2 * i} if 2 * i < k else f)
                 for e, f in parts for i in range(k // 2 + 1)]
    return sorted(((e, a, b), index[form_of_ideal(D, (e, a, b))])
                  for e, f in parts
                  for (_, a, b) in primitive_ideals_of_norm(D, f))


def count_rA(D: int, class_index: int, n) -> int:
    """Number of integral ideals of norm n in the given class (r_A(n))."""
    return sum(1 for (_, ci) in ideals_of_norm(D, n) if ci == class_index)


def discriminant_factorizations(D: int) -> list:
    """All coprime factorizations D = D1 * D2 into discriminants (= 1 mod 4)."""
    primes = list(factorint(-D))
    out = []
    for mask in range(1 << len(primes)):
        m = 1
        for i, q in enumerate(primes):
            if mask >> i & 1:
                m *= q
        D1 = m if m % 4 == 1 else -m
        D2 = D // D1
        out.append((D1, D2))
    return sorted(out)


def class_norm(D: int, class_index: int) -> int:
    """A norm of an ideal in the class that is coprime to D.

    The reduced form's leading coefficient a when gcd(a, D) = 1, else
    Q(u, w) for the first u, w >= 0 in diagonal order (u + w = 1, 2, ...)
    with gcd(Q(u, w), D) = 1.  A primitive form represents such a value
    (Cox, Lemma 2.25), so the search ends, and the first hit has
    gcd(u, w) = 1, since Q(g u, g w) = g^2 Q(u, w).  Which such norm is
    returned does not matter to a caller: every norm prime to D of one
    class lies in one genus, and callers read only its genus characters
    (D2/.).
    """
    a, b, c = reduced_forms(D)[class_index]
    if gcd(a, D) == 1:
        return a

    def q(u, w):
        return a * u * u + b * u * w + c * w * w

    return next(v for s in count(1) for u in range(s + 1)
                if gcd(v := q(u, s - u), D) == 1)


# ---------------------------------------------------------------------------
# admissible parameter search

_SEARCH_BOUND = 100000      # largest level and prime admissible_params tries


def admissible_params(D: int, p: int | None = None,
                      char_ell: int | None = None):
    """Smallest (N, p): N >= 3 a product of distinct split primes with
    (D/N) = 1, p an odd split prime not dividing N.  Ordering minimizes N,
    then p.  Optional constraints: fix p; require that a p-adic Hecke
    character of infinity type (char_ell, 0) with values in Z_p exists
    (skips obstructed p).
    """
    validate_discriminant(D)
    if char_ell is not None and (char_ell <= 0 or char_ell % 2):
        raise QuadFieldError(f"hypothesis ell even and > 0 fails: "
                             f"ell = {char_ell}")
    fixed_p = p
    if fixed_p is not None:
        if fixed_p == 2 or not isprime(fixed_p) or kronecker(D, fixed_p) != 1:
            raise QuadFieldError("constrained p must be an odd split prime")
        if char_ell is not None and not _zp_char_exists(D, fixed_p, char_ell):
            raise QuadFieldError(f"hypothesis a character of infinity type "
                                 f"({char_ell}, 0) with values in Z_p exists "
                                 f"fails: p = {fixed_p}")
    for N in range(3, _SEARCH_BOUND + 1):
        f = factorint(N)
        if any(e > 1 for e in f.values()):
            continue
        if any(kronecker(D, q) != 1 for q in f):
            continue
        if fixed_p is not None:
            if N % fixed_p != 0:
                return (N, fixed_p)
            continue
        q = 3
        while q <= _SEARCH_BOUND:
            if (q != 2 and isprime(q) and kronecker(D, q) == 1 and N % q != 0
                    and (char_ell is None or _zp_char_exists(D, q, char_ell))):
                return (N, q)
            q += 2
    raise QuadFieldError("admissible parameter search bound exceeded")


def _zp_char_exists(D: int, p: int, ell: int) -> bool:
    from . import heckechar
    try:
        heckechar.build_char(D, ell, mode="padic", p=p, prec=8)
    except heckechar.CharBuildError:
        return False
    return True
