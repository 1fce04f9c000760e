"""Unramified Hecke characters of even infinity type (ell, 0) and the
coefficients of their theta series.

A character chi with chi((alpha)) = alpha^ell is pinned down by its values
on class-group generators g_i of order d_i: chi(g_i) must be a d_i-th root
of alpha_i^ell, where g_i^{d_i} = (alpha_i).  Values come in three modes:

  exact    elements of K itself (class number 1 only: no roots needed)
  complex  mpmath complex numbers at a fixed decimal working precision
           (the only mode that imports mpmath)
  padic    elements of Z_p; a character that needs a root off Z_p (in
           the unramified quadratic extension) is refused

The p-adic embedding sends sqrt(D) to the square root of D in Z_p that
lifts _residue_root's pick at twist 0, the smallest square root of D mod p;
the distinguished prime above p is the kernel of reduction under that
embedding.

Per class A, r_chi(A, n) sums chi over the integral ideals of norm n in A.
Enumerating a fixed ideal lattice gives an independent route to the same
numbers (times the number of units).
"""

import contextlib
from fractions import Fraction
from math import gcd, isqrt

from .padic import PadicNumber
from .quadfield import (KElem, class_group, class_index_of_ideal, ideal_conj,
                        ideal_mult, ideal_norm, ideal_of_form, ideal_pow,
                        ideals_of_norm, isprime, kronecker, lift_root,
                        normalize_ideal, principal_generator,
                        validate_discriminant)

MODES = ("exact", "complex", "padic")


class CharBuildError(ValueError):
    """The requested character cannot be realized in the given mode, or a
    theta series of it was asked for with no coefficients."""


# ---------------------------------------------------------------------------
# residue roots

def _residue_root(p, a, d, twist):
    """The root of X^d = a (mod p), for a unit a, that the twist picks from
    the roots in F_{p^2}: first those in F_p, sorted, then those off F_p.
    A twist of 0 picks among the roots in F_p alone when there are any.

    Returns the root in F_p; 0 (never a root) when the pick lies off F_p;
    None when there is no root.  The roots off F_p are only counted: the
    group F_{p^2}^* is cyclic of order p^2 - 1, so X^d = a has
    g = gcd(d, p^2 - 1) roots there when a^((p^2 - 1)/g) = 1, and none
    otherwise."""
    roots = [r for r in range(1, p) if pow(r, d, p) == a % p]
    if roots and not twist:
        return roots[0]
    q = p * p - 1
    g = gcd(d, q)
    if pow(a, q // g, p) != 1:
        return None
    i = twist % g
    return roots[i] if i < len(roots) else 0


# ---------------------------------------------------------------------------
# the character

class HeckeChar:
    """An unramified Hecke character of infinity type (ell, 0), held as its
    values on the class-group generators.

    Built by build_char; immutable afterwards.  chi_value evaluates on any
    integral ideal, r_chi sums values over the ideals of a given norm and
    class.
    """

    def __init__(self, D, ell, mode, group, p, prec, s_D, gen_roots,
                 prime_above, audit):
        self.D = D
        self.ell = ell
        self.k = ell // 2
        self.mode = mode
        self.group = group
        self.p = p
        self.prec = prec
        self.s_D = s_D
        self._gen_roots = gen_roots
        self.prime_above = prime_above
        self.audit = audit

    def _ctx(self):
        if self.mode == "complex":
            import mpmath
            return mpmath.workdps(self.prec)
        return contextlib.nullcontext()

    # -- mode plumbing -------------------------------------------------------

    def zero(self):
        if self.mode == "exact":
            return KElem(self.D, 0, 0)
        if self.mode == "complex":
            import mpmath
            with self._ctx():
                return mpmath.mpc(0)
        return PadicNumber.zero(self.p)

    def embed(self, g: KElem):
        """The mode's image of an element x + y*sqrt(D) of K."""
        if self.mode == "exact":
            return g
        if self.mode == "complex":
            import mpmath
            with self._ctx():
                sq = mpmath.sqrt(mpmath.mpf(-self.D))
                x = mpmath.mpf(g.x.numerator) / g.x.denominator
                y = mpmath.mpf(g.y.numerator) / g.y.denominator
                return mpmath.mpc(x, y * sq)
        return (PadicNumber.from_rational(self.p, g.x, self.prec)
                + PadicNumber.from_rational(self.p, g.y, self.prec) * self.s_D)

    def close(self, u, v, scale=1) -> bool:
        """Mode-appropriate equality: exact/padic compare directly, complex
        within 10^(5 - prec) relative to max(1, scale, |u|, |v|)."""
        if self.mode == "complex":
            import mpmath
            with self._ctx():
                scale = Fraction(scale)
                tol = mpmath.mpf(10) ** (5 - self.prec)
                s = abs(mpmath.mpf(scale.numerator)) / scale.denominator
                bound = max(mpmath.mpf(1), s, abs(u), abs(v))
                return abs(u - v) <= tol * bound
        return u == v

    # -- evaluation ----------------------------------------------------------

    def chi_value(self, ideal):
        """chi of an integral ideal (e, a, b)."""
        D = self.D
        ideal = normalize_ideal(D, *ideal)
        ci = class_index_of_ideal(D, ideal)
        exps = self.group.dlog(ci)
        b_id = ideal
        with self._ctx():
            corr = None
            for (gen_ideal, root, ngl), e in zip(self._gen_roots, exps):
                if e:
                    b_id = ideal_mult(D, b_id,
                                      ideal_pow(D, ideal_conj(D, gen_ideal), e))
                    f = (root * ngl) ** e
                    corr = f if corr is None else corr * f
            gamma = principal_generator(D, b_id)
            v = self.embed(gamma) ** self.ell
            return v if corr is None else v * corr

    def r_chi(self, class_index: int, n):
        """Sum of chi over integral ideals of norm n in the class; 0 unless
        n is a positive integer."""
        if n != int(n) or n <= 0:
            return self.zero()
        with self._ctx():
            acc = self.zero()
            for ideal, ci in ideals_of_norm(self.D, int(n)):
                if ci == class_index:
                    acc = acc + self.chi_value(ideal)
            return acc


# ---------------------------------------------------------------------------
# construction

def build_char(D, ell, mode, p=None, prec=None, twist=None):
    """Build a Hecke character; see the module docstring for modes.

    twist optionally rotates each generator's root choice inside the list
    of admissible roots (one integer per class-group generator); the
    twisted character differs from the default one by a character of the
    class group.
    """
    validate_discriminant(D)
    if ell <= 0 or ell % 2:
        raise CharBuildError("infinity type (ell, 0) needs even ell > 0")
    if mode not in MODES:
        raise CharBuildError(f"unknown mode {mode!r}")
    G = class_group(D)
    if mode == "exact" and G.h > 1:
        raise CharBuildError(
            f"exact mode requires class number 1, got h = {G.h}")
    s_D = None
    if mode == "padic":
        if p is None or p == 2 or not isprime(p):
            raise CharBuildError("padic mode needs an odd prime p")
        if kronecker(D, p) != 1:
            raise CharBuildError(f"p = {p} does not split in Q(sqrt({D}))")
        prec = 30 if prec is None else prec
        s_D = PadicNumber(p, 0, lift_root(p, _residue_root(p, D, 2, 0), D,
                                          2, prec), prec)
    elif mode == "complex":
        prec = 40 if prec is None else prec
    else:
        prec = None
    if twist is not None and len(twist) != len(G.generators):
        raise CharBuildError("twist needs one entry per class-group generator")

    prime_above = None
    if mode == "padic":
        b = s_D.residue(1)
        if b % 2 == 0:
            b += p
        prime_above = normalize_ideal(D, 1, p, b)
    gen_roots = []
    audit = []
    char = HeckeChar(D, ell, mode, G, p, prec, s_D, gen_roots, prime_above,
                     audit)

    off_zp = False              # some generator's root lies off Z_p
    with char._ctx():
        for idx, (gi, di) in enumerate(G.generators):
            gen_ideal = ideal_of_form(D, G.forms[gi])
            ng = ideal_norm(gen_ideal)
            alpha = principal_generator(D, ideal_pow(D, gen_ideal, di))
            t_i = 0 if twist is None else twist[idx]
            entry = {"class": gi, "order": di, "norm": ng,
                     "alpha": [str(alpha.x), str(alpha.y)], "twist": t_i}
            power = char.embed(alpha) ** ell
            if mode == "complex":
                import mpmath
                root = mpmath.root(power, di)
                if t_i % di:
                    root *= mpmath.expjpi(mpmath.mpf(2 * (t_i % di)) / di)
                entry["root"] = [mpmath.nstr(root.real, 25),
                                 mpmath.nstr(root.imag, 25)]
                ngl = mpmath.mpf(1) / (ng ** ell)
            else:
                if ng % p == 0:
                    raise CharBuildError(f"generator representative has norm "
                                         f"divisible by p = {p}")
                if di % p == 0:
                    raise CharBuildError(f"generator order {di} divisible by "
                                         f"p = {p} (wild case unsupported)")
                a_int = power.residue(prec)
                x0 = _residue_root(p, a_int, di, t_i)
                if x0 is None:
                    raise CharBuildError(
                        f"no root: X^{di} = {a_int % p} (mod {p}) has no "
                        f"solution in F_(p^2); chi on the class-group "
                        f"generator of index {gi} cannot take values in "
                        f"Z_{p} or its unramified quadratic extension")
                if not x0:
                    # refused after the loop, so that a later generator's
                    # refusal above still comes first
                    off_zp = True
                    continue
                x = lift_root(p, x0, a_int, di, prec)
                # the same two-entry shape as a complex root
                entry["root"] = [str(x), "0"]
                root = PadicNumber(p, 0, x, prec)
                ngl = Fraction(1, ng ** ell)
            # sanity: the stored root actually solves chi(g)^d = alpha^ell
            if not char.close(root ** di, power,
                              scale=abs(alpha.norm()) ** (ell // 2)):
                raise CharBuildError("root verification failed (bug)")
            gen_roots.append((gen_ideal, root, ngl))
            audit.append(entry)
    if off_zp:
        raise CharBuildError(f"hypothesis chi takes values in Z_p fails: at "
                             f"p = {p} the character needs the quadratic "
                             "extension")
    return char


# ---------------------------------------------------------------------------
# theta coefficients

def theta_coeffs(char: HeckeChar, class_index: int, bound: int) -> list:
    """r_chi(class, n) for n = 1..bound, at index n - 1."""
    if bound < 1:
        raise CharBuildError("bound must be >= 1")
    return [char.r_chi(class_index, n) for n in range(1, bound + 1)]


def lattice_points_by_norm(D, ideal, bound):
    """Conjugates x-bar of the points of the ideal lattice with
    N(x)/N(ideal) = n, grouped per n = 1..bound (KElem lists)."""
    e, a, b = normalize_ideal(D, *ideal)
    c = (b * b - D) // (4 * a)
    out = [[] for _ in range(bound + 1)]
    smax = isqrt(4 * c * bound // (-D)) + 1
    tmax = isqrt(4 * a * bound // (-D)) + 1
    for s in range(-smax, smax + 1):
        for t in range(-tmax, tmax + 1):
            q = a * s * s + b * s * t + c * t * t
            if 0 < q <= bound:
                # x = e*(s*a + t*(b - sqrt(D))/2), conjugated
                out[q].append(KElem(D, Fraction(e * (2 * s * a + t * b), 2),
                                    Fraction(e * t, 2)))
    return out


def lattice_theta_coeffs(char: HeckeChar, ideal, bound: int) -> list:
    """chi(ideal-bar)^(-1) * sum of x-bar^ell over lattice points of each
    norm ratio n = 1..bound (at index n - 1), by direct enumeration; equals
    (#units) * r_chi termwise."""
    if bound < 1:
        raise CharBuildError("bound must be >= 1")
    D = char.D
    ideal = normalize_ideal(D, *ideal)
    pts = lattice_points_by_norm(D, ideal, bound)
    with char._ctx():
        fac = char.chi_value(ideal_conj(D, ideal))
        inv = 1 / fac if char.mode == "complex" else fac.inv()
        values = []
        for n in range(1, bound + 1):
            acc = KElem(D, 0, 0)
            for xbar in pts[n]:
                acc = acc + xbar ** char.ell
            values.append(char.embed(acc) * inv)
    return values
