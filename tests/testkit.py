"""Helpers that only the tests use.

The AST name resolver that every scan of the package source shares, the
path of a report's JSON schema, and the reference computations that no
command runs: the truncated exponential polynomials p_m, the Laplace
integral oracle (termwise Gamma integrals, the one mpmath user here), the
holomorphic-projection coefficient transforms, the coefficient extraction
residual, the Teichmuller lift, the reduced forms by a scan over b and a
class norm prime to D by a scan of a grid.
"""

import ast
import importlib
from fractions import Fraction
from math import comb, factorial, gcd, isqrt
from pathlib import Path

from padicheights import cli
from padicheights.padic import PadicError, PadicNumber
from padicheights.polykit import PolyError, RationalPoly, _guard_order, h_poly
from padicheights.quadfield import (lift_root, reduced_forms,
                                    validate_discriminant)


# ---------------------------------------------------------------------------
# source scans

def src_modules():
    """(path, module, AST) for each module of the package, by file name."""
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"padicheights.{path.stem}")
        yield path, module, ast.parse(path.read_text(), str(path))


def resolve(expr, namespace):
    """The object that the bare or dotted name expr (an AST node) names in
    namespace, or None when it names nothing there."""
    try:
        return eval(ast.unparse(expr), namespace)
    except (NameError, AttributeError):
        return None


def schema_path(command: str) -> Path:
    return Path(cli.__file__).parent / "schemas" / f"{command}.json"


# ---------------------------------------------------------------------------
# polynomial oracles

def p_poly(m: int) -> RationalPoly:
    """p_m(x) = sum_{a=0}^m binom(m,a) (-x)^a / a!."""
    if m < 0:
        raise PolyError("m must be nonnegative")
    _guard_order(m)
    return RationalPoly([Fraction((-1) ** a * comb(m, a), factorial(a))
                         for a in range(m + 1)])


def laplace_integral_oracle(m: int, k: int, i: int, j: int, dps: int = 40):
    """int_0^oo p_m(4 pi j y) e^{-4 pi (i+j) y} y^{m+2k} dy, termwise.

    Each monomial contributes c_a (4 pi j)^a (a+m+2k)! / (4 pi (i+j))^{a+m+2k+1};
    the rational part is summed exactly and only the final power of 4 pi is
    floated at dps digits.
    """
    if i <= 0 or j < 0:
        raise PolyError("need i >= 1 and j >= 0")
    _guard_order(m + 2 * k)
    pm = p_poly(m)
    rat = Fraction(0)
    for a in range(m + 1):
        rat += (pm.coeff(a) * Fraction(j) ** a
                * factorial(a + m + 2 * k) / Fraction(i + j) ** (a + m + 2 * k + 1))
    import mpmath
    with mpmath.workdps(dps):
        scale = (4 * mpmath.pi) ** -(m + 2 * k + 1)
        return mpmath.mpf(rat.numerator) / rat.denominator * scale


def _series_get(s, i: int):
    if callable(s):
        return s(i)
    if 0 <= i < len(s):
        return s[i]
    return Fraction(0)


def holproj_coeffs(a, b, r: int, k: int, bound: int) -> list:
    """Coefficients c(n), n = 0..bound, of the projected product series.

    c(n) = ((-1)^m / binom(2r-2, m)) n^m sum_{i+j=n, i>=1, j>=0}
           a(i) b(j) H_{m,k}((i-j)/(i+j)),  m = r-k-1.

    a and b are callables or sequences; a is indexed from 1, b from 0.
    Requires 0 <= k < r.  Exact when the inputs are exact rationals.
    """
    if not (0 <= k < r):
        raise PolyError("need 0 <= k < r")
    m = r - k - 1
    H = h_poly(m, k)
    pref = Fraction((-1) ** m, comb(2 * r - 2, m))
    out = [Fraction(0)]
    for n in range(1, bound + 1):
        s = Fraction(0)
        for i in range(1, n + 1):
            ai = _series_get(a, i)
            if not ai:
                continue
            bj = _series_get(b, n - i)
            if not bj:
                continue
            s += ai * bj * H(Fraction(2 * i - n, n))
        out.append(pref * Fraction(n) ** m * s)
    return out


def coeff_identity_check(m: int, k: int, a, b, c, d) -> Fraction:
    """Difference between the x^{m+2k} coefficient of (ax+b)^{m+2k} (cx+d)^m
    and a^{2k} (ad-bc)^m H_{m,k}((ad+bc)/(ad-bc)).  Zero iff the identity holds."""
    a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
    if a * d == b * c:
        raise PolyError("ad = bc leaves the closed form undefined")
    _guard_order(m + 2 * k)
    prod = RationalPoly([b, a]) ** (m + 2 * k) * RationalPoly([d, c]) ** m
    lhs = prod.coeff(m + 2 * k)
    H = h_poly(m, k)
    rhs = a ** (2 * k) * (a * d - b * c) ** m * H((a * d + b * c) / (a * d - b * c))
    return lhs - rhs


# ---------------------------------------------------------------------------
# p-adic oracles

def teichmuller(p: int, x: int, N: int) -> PadicNumber:
    """The (p-1)-st root of unity congruent to x mod p, to precision N."""
    if x % p == 0:
        raise PadicError("Teichmuller lift needs a unit")
    return PadicNumber(p, 0, lift_root(p, x % p, 1, p - 1, N), N)


# ---------------------------------------------------------------------------
# reduced forms

def reduced_forms_by_scan(D: int) -> tuple:
    """The reduced forms of discriminant D, sorted by (a, b), by trying every
    b in (-a, a] for each a <= sqrt(|D|/3): O(|D|) steps."""
    validate_discriminant(D)
    out = []
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a) != 0:
                continue
            c = (b * b - D) // (4 * a)
            if c < a or ((abs(b) == a or a == c) and b < 0):
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                out.append((a, b, c))
    return tuple(sorted(out))


def class_norm_by_grid(D: int, class_index: int) -> int:
    """The smallest value prime to D of the class's reduced form (a, b, c)
    over the grid |s| <= c, |t| <= a: O(a c) = O(|D|) steps."""
    a, b, c = reduced_forms(D)[class_index]
    return min(v for s in range(-c, c + 1) for t in range(-a, a + 1)
               if (v := a * s * s + b * s * t + c * t * t) > 0
               and gcd(v, D) == 1)
