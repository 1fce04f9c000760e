"""Polynomial calculus tests: frozen values, identities, the Laplace oracle."""

import random
from fractions import Fraction

import mpmath
import pytest

from padicheights.polykit import (PolyError, RationalPoly, g_poly, h_poly,
                                  jacobi_poly)
from testkit import (coeff_identity_check, holproj_coeffs,
                     laplace_integral_oracle, p_poly)


def P(*cs):
    return RationalPoly(cs)


# ---------------------------------------------------------------------------
# RationalPoly arithmetic

def test_poly_basic_arithmetic():
    f = P(1, 2, 3)
    g = P(0, -1)
    assert f + g == P(1, 1, 3)
    assert f - g == P(1, 3, 3)
    assert f * g == P(0, -1, -2, -3)
    assert f * 2 == P(2, 4, 6)
    assert 2 * f == f * 2
    assert (g ** 3) == P(0, 0, 0, -1)
    assert f.deriv() == P(2, 6)
    assert f.deriv(2) == P(6)
    assert f.deriv(3) == P()
    assert f(Fraction(1, 2)) == 1 + 1 + Fraction(3, 4)
    assert f.compose(g) == P(1, -2, 3)
    assert f.coeff(0) == 1 and f.coeff(7) == 0
    assert P(0, 0).is_zero() and P(0, 0).degree == -1


def test_poly_divexact():
    f = P(-1, 0, 1)                      # t^2 - 1
    assert f.divexact(P(-1, 1)) == P(1, 1)
    assert f.divexact(P(1, 1)) == P(-1, 1)
    with pytest.raises(PolyError):
        f.divexact(P(1, 2))
    with pytest.raises(PolyError):
        f.divexact(P())


# ---------------------------------------------------------------------------
# special families: frozen values

def test_h_poly_frozen():
    assert h_poly(0, 0) == P(1)
    assert h_poly(1, 1) == P(-1, 2)          # 2t - 1
    assert h_poly(2, 0) == P(Fraction(-1, 2), 0, Fraction(3, 2))
    assert h_poly(1, 0) == P(0, 1)
    for k in range(6):
        assert h_poly(0, k) == P(1)


def test_h_poly_rodrigues_by_hand():
    # (1/12) d^3/dt^3 [t^4 - 2t^3 + 2t - 1] = (24t - 12)/12
    w = P(-1, 2, 0, -2, 1)
    assert w == P(-1, 0, 1) * P(-1, 1) * P(-1, 1)
    assert w.deriv(3) * Fraction(1, 12) == h_poly(1, 1)


def test_g_poly_frozen():
    assert g_poly(1, 0) == P(1, -2)
    assert g_poly(1, 1) == P(6, -24)
    assert g_poly(0, 1) == P(2)
    assert g_poly(2, 0) == P(1, -6, 6)


def test_jacobi_frozen():
    assert jacobi_poly(0, 0, 0) == P(1)
    assert jacobi_poly(1, 0, 0) == P(0, 1)
    assert jacobi_poly(2, 0, -2) == P(Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(PolyError):
        jacobi_poly(1, -3, 0)


def test_p_poly_frozen():
    assert p_poly(0) == P(1)
    assert p_poly(1) == P(1, -1)
    assert p_poly(2) == P(1, -2, Fraction(1, 2))


def test_degree_guard():
    with pytest.raises(PolyError):
        h_poly(1, 32)
    with pytest.raises(PolyError):
        g_poly(65, 0)
    with pytest.raises(PolyError):
        jacobi_poly(65, 0, 0)


# ---------------------------------------------------------------------------
# identities

def test_combo_identity():
    # G_{m,k}(t) = ((m+2k)!/m!) H_{m,k}(1-2t)
    from math import factorial
    flip = P(1, -2)
    for m in range(9):
        for k in range(6):
            lhs = g_poly(m, k)
            rhs = h_poly(m, k).compose(flip) * Fraction(factorial(m + 2 * k),
                                                        factorial(m))
            assert lhs == rhs, (m, k)


def test_recurrence():
    for m in range(1, 11):
        for k in range(6):
            lhs = g_poly(m + 1, k) * ((m + 1) ** 2 * (m + k))
            bracket = P(m * m + m + 2 * k * m + k,
                        -(m + k) * (2 * m + 2 * k + 2))
            rhs = (bracket * g_poly(m, k) * (2 * m + 2 * k + 1)
                   - g_poly(m - 1, k) * ((m + k + 1) * (m + 2 * k) ** 2))
            assert lhs == rhs, (m, k)


def test_jacobi_relation():
    for m in range(9):
        for k in range(6):
            lhs = P(1, 1) ** (2 * k) * h_poly(m, k)
            rhs = jacobi_poly(m + 2 * k, 0, -2 * k) * 4 ** k
            assert lhs == rhs, (m, k)


def test_legendre_specialization():
    for m in range(13):
        assert h_poly(m, 0) == jacobi_poly(m, 0, 0)


def test_h_at_one():
    for m in range(11):
        for k in range(6):
            assert h_poly(m, k)(Fraction(1)) == 1


# ---------------------------------------------------------------------------
# Laplace integral oracle

def test_laplace_frozen():
    with mpmath.workdps(40):
        v = laplace_integral_oracle(0, 0, 1, 0)
        assert abs(v - 1 / (4 * mpmath.pi)) < mpmath.mpf(10) ** -35
        v = laplace_integral_oracle(0, 1, 1, 1)
        assert abs(v - 2 / (8 * mpmath.pi) ** 3) < mpmath.mpf(10) ** -35
        v = laplace_integral_oracle(1, 0, 2, 1)
        want = mpmath.mpf(1) / 3 / (144 * mpmath.pi ** 2)
        assert abs(v - want) < mpmath.mpf(10) ** -35


def test_laplace_closed_form():
    # oracle vs (m+2k)!/(4 pi (i+j))^{m+2k+1} H_{m,k}((i-j)/(i+j))
    from math import factorial
    with mpmath.workdps(40):
        for m in range(4):
            for k in range(4):
                H = h_poly(m, k)
                for i in range(1, 6):
                    for j in range(6):
                        got = laplace_integral_oracle(m, k, i, j)
                        hv = H(Fraction(i - j, i + j))
                        closed = (factorial(m + 2 * k)
                                  * mpmath.mpf(hv.numerator) / hv.denominator
                                  / (4 * mpmath.pi * (i + j)) ** (m + 2 * k + 1))
                        if closed == 0:
                            assert abs(got) < mpmath.mpf(10) ** -40
                        else:
                            assert abs(got - closed) <= abs(closed) * mpmath.mpf(10) ** -25


# ---------------------------------------------------------------------------
# holomorphic projection coefficients

def test_holproj_plain_convolution():
    # r = k+1: c(n) = sum a(i) b(j)
    a = [Fraction(0), 1, -2, 3, 0, 5]
    b = [Fraction(2), 1, 0, -1, 4, 0]
    for k in range(1, 4):
        c = holproj_coeffs(a, b, k + 1, k, 5)
        for n in range(1, 6):
            want = sum(a[i] * b[n - i] for i in range(1, n + 1))
            assert c[n] == want


def test_holproj_r2_k0():
    a = [Fraction(0), 1, 4, -1, 2]
    b = [Fraction(3), -1, 2, 0, 1]
    c = holproj_coeffs(a, b, 2, 0, 4)
    for n in range(1, 5):
        want = Fraction(-1, 2) * sum(a[i] * b[n - i] * (i - (n - i))
                                     for i in range(1, n + 1))
        assert c[n] == want


def test_holproj_constant_b():
    from math import comb
    a = [Fraction(0), 2, -1, 7, 3, -4, 1]
    b = [Fraction(5)]
    for r, k in [(3, 1), (4, 1), (4, 2), (5, 0)]:
        m = r - k - 1
        c = holproj_coeffs(a, b, r, k, 6)
        for n in range(1, 7):
            want = (Fraction((-1) ** m, comb(2 * r - 2, m))
                    * Fraction(n) ** m * a[n] * b[0])
            assert c[n] == want


def test_holproj_callable_input():
    c1 = holproj_coeffs(lambda i: Fraction(i), lambda j: Fraction(1), 2, 0, 6)
    c2 = holproj_coeffs([Fraction(0), 1, 2, 3, 4, 5, 6],
                        [Fraction(1)] * 7, 2, 0, 6)
    assert c1 == c2


def test_holproj_precondition():
    with pytest.raises(PolyError):
        holproj_coeffs([0, 1], [1], 2, 2, 1)
    with pytest.raises(PolyError):
        holproj_coeffs([0, 1], [1], 2, -1, 1)


# ---------------------------------------------------------------------------
# coefficient-extraction identity

def test_coeff_identity_frozen():
    assert coeff_identity_check(1, 0, 1, 0, 0, 1) == 0
    assert coeff_identity_check(0, 1, 2, 3, 0, 1) == 0
    with pytest.raises(PolyError):
        coeff_identity_check(1, 1, 1, 2, 1, 2)


def test_coeff_identity_random():
    rng = random.Random(101)
    done = 0
    while done < 100:
        m = rng.randint(0, 6)
        k = rng.randint(0, 6)
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
        a, b, c, d = vals
        if a * d == b * c:
            continue
        assert coeff_identity_check(m, k, a, b, c, d) == 0
        done += 1
