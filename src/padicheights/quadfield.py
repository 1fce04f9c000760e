"""Imaginary quadratic fields with odd fundamental discriminant.

Binary quadratic forms, Gauss composition, the form class group, and the
two-generator ideal calculus for the maximal order of Q(sqrt(D)), D < -4,
D = 1 mod 4 squarefree.  Everything is exact integer/rational arithmetic.
The package's integer number theory on D, N, p and ideal norms lives here
too: Kronecker symbols, isprime (Baillie-PSW), factorint (trial division,
then Pollard rho), divisors, the Newton lift of roots mod p^N, and square
roots modulo prime powers.

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


def _rho(n: int) -> int:
    """A proper factor of the odd composite n: Pollard rho, Brent's cycle."""
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
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


@lru_cache(maxsize=None)
def reduced_forms(D: int):
    """All reduced forms of discriminant D, sorted lexicographically by (a, b)."""
    validate_discriminant(D)
    out = []
    amax = isqrt(-D // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a) != 0:
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue  # D squarefree makes this vacuous, kept as a guard
            out.append((a, b, c))
    out.sort()
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


def class_index_of_ideal(D: int, ideal) -> int:
    return reduced_forms(D).index(form_of_ideal(D, ideal))


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
        validate_discriminant(D)
        self.D = D
        self.forms = reduced_forms(D)
        self.h = len(self.forms)
        self._index = {f: i for i, f in enumerate(self.forms)}
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
        """Cyclic decomposition: generators g_i with orders d_1 | ... pattern
        chosen greedily by maximal order in the remaining quotient.  Also
        returns the discrete-log table: each class mapped to its exponents
        over the generators."""
        gens = []
        subgroup = {self.identity: ()}     # <gens>, with exponents over gens
        while len(subgroup) < self.h:
            # order of the image of g in G/<gens>: min k with g^k in subgroup
            best, best_ord = None, 1
            for g in range(self.h):
                if g in subgroup:
                    continue
                r, k = g, 1
                while r not in subgroup:
                    r = self.mult(r, g)
                    k += 1
                if k > best_ord:
                    best, best_ord = g, k
            g, d = best, best_ord
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


def _sqrt_mod_prime(a: int, q: int) -> int | None:
    """A square root of a mod odd prime q (Tonelli-Shanks), or None."""
    a %= q
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) != 1:
        return None
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    # Tonelli-Shanks
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    n = 2
    while pow(n, (q - 1) // 2, q) != q - 1:
        n += 1
    x = pow(a, (s + 1) // 2, q)
    b = pow(a, s, q)
    g = pow(n, s, q)
    r = e
    while True:
        t, m = b, 0
        while t != 1:
            t = t * t % q
            m += 1
        if m == 0:
            return x
        gs = pow(g, 1 << (r - m - 1), q)
        g = gs * gs % q
        x = x * gs % q
        b = b * g % q
        r = m


def _sqrt_mod_odd_prime_power(a: int, q: int, e: int) -> list[int]:
    """All square roots of a mod q^e, q odd prime, assuming gcd(a, q) = 1."""
    r = _sqrt_mod_prime(a, q)
    if r is None:
        return []
    r = lift_root(q, r, a, 2, e)
    return sorted({r, -r % q ** e})


def _sqrt_odd_mod_power_of_two(D: int, t: int) -> list[int]:
    """Odd x mod 2^(t+1) with x^2 = D mod 2^(t+2); D odd."""
    if t == 0:
        return [1] if D % 4 == 1 else []
    if D % 8 != 1:
        return []
    # lift solutions of x^2 = D mod 2^j for j = 3 .. t+2
    sols = {1, 3, 5, 7}
    mod = 8
    for j in range(4, t + 3):
        mod2 = mod * 2
        new = set()
        for x in sols:
            for cand in (x, x + mod):
                if (cand * cand - D) % mod2 == 0:
                    new.add(cand % mod2)
        sols, mod = new, mod2
    # x defined mod 2^(t+2); b only matters mod 2^(t+1)
    return sorted({x % (mod // 2) for x in sols})


def primitive_ideals_of_norm(D: int, n: int) -> list:
    """Primitive integral ideals of norm n: all (1, n, b) with b^2 = D mod 4n."""
    if n <= 0:
        return []
    if n == 1:
        return [unit_ideal(D)]
    f = factorint(n)
    t = f.pop(2, 0)
    roots2 = _sqrt_odd_mod_power_of_two(D, t)
    if not roots2:
        return []
    crt_mod = 1 << (t + 1)
    crt_roots = roots2
    for q, e in f.items():
        if D % q == 0:
            if e > 1:
                return []
            qroots = [0]
            qmod = q
        else:
            qroots = _sqrt_mod_odd_prime_power(D, q, e)
            qmod = q**e
            if not qroots:
                return []
        # CRT combine
        _, s, _ = _xgcd(crt_mod, qmod)
        crt_roots = [(r1 + (r2 - r1) * s % qmod * crt_mod) % (crt_mod * qmod)
                     for r1 in crt_roots for r2 in qroots]
        crt_mod *= qmod
    # crt_mod is now 2^(t+1) * prod q^e = 2n: each root is the one b mod 2n
    out = []
    for b in crt_roots:
        if (b * b - D) % (4 * n) != 0:
            raise QuadFieldError("CRT root fails b^2 = D mod 4n (bug)")
        out.append(normalize_ideal(D, 1, n, b))
    return sorted(out)


def ideals_of_norm(D: int, n: int) -> list:
    """All integral ideals of norm n as (ideal, class index) pairs."""
    validate_discriminant(D)
    if n != int(n) or n <= 0:
        return []
    n = int(n)
    out = []
    e = 1
    while e * e <= n:
        if n % (e * e) == 0:
            for (one, a, b) in primitive_ideals_of_norm(D, n // (e * e)):
                ideal = (e, a, b)
                out.append((ideal, class_index_of_ideal(D, ideal)))
        e += 1
    return sorted(out)


def count_rA(D: int, class_index: int, n) -> int:
    """Number of integral ideals of norm n in the given class (r_A(n)).

    n outside the positive integers counts as 0 (the r(0) = 0 convention).
    """
    if n != int(n) or n <= 0:
        return 0
    return sum(1 for (_, ci) in ideals_of_norm(D, int(n)) if ci == class_index)


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

    The reduced form's leading coefficient when gcd(a, D) = 1, else the
    smallest represented positive integer coprime to D.
    """
    a, b, c = reduced_forms(D)[class_index]
    if gcd(a, D) == 1:
        return a
    best = None
    for s in range(-c, c + 1):
        for t in range(-a, a + 1):
            v = a * s * s + b * s * t + c * t * t
            if v > 0 and gcd(v, D) == 1 and (best is None or v < best):
                best = v
    if best is None:
        raise QuadFieldError("no represented norm coprime to D found")
    return best


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
        if kronecker(D, N) != 1:
            continue  # vacuous given split factors, kept as the stated contract
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
