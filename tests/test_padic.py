"""p-adic arithmetic tests: precision semantics, log/Teichmuller, divisor sums."""

import random
from fractions import Fraction

import pytest

from padicheights import quadfield as qf
from padicheights.heckechar import _residue_root
from padicheights.padic import (
    PadicError,
    PadicNumber,
    epsilon_A,
    iwasawa_log,
    sigma_A,
    teichmuller,
)
from padicheights.quadfield import QuadFieldError, lift_root


def R(p, x, prec=20):
    return PadicNumber.from_rational(p, x, prec)


# ---------------------------------------------------------------------------
# PadicNumber core

def test_construction_normalizes():
    x = PadicNumber(5, 0, 50, 4)        # 50 = 2 * 5^2
    assert (x.val, x.unit, x.prec) == (2, 2, 2)
    z = PadicNumber(5, 3, 0, 7)
    assert z.is_zero() and z.abs_prec() == 10 and not z.is_exact_zero()
    assert PadicNumber(5, 3, 0, 0).abs_prec() == 3
    assert PadicNumber(5, 0, 5 ** 4, 4).abs_prec() == 4  # all digits cancelled
    assert PadicNumber.zero(5).is_exact_zero()


def test_from_rational():
    x = R(5, Fraction(50))
    assert (x.val, x.unit) == (2, 2)
    y = R(5, Fraction(1, 5))
    assert y.val == -1 and y.unit == 1
    z = R(5, Fraction(3, 4), 3)
    assert z.val == 0 and z.unit == 3 * pow(4, -1, 125) % 125
    assert R(5, 0).is_exact_zero()


def test_add_precision_rules():
    p = 5
    x = R(p, 1, 3)                       # abs prec 3
    y = R(p, 25, 3)                      # val 2, abs prec 5
    s = x + y
    assert (s.val, s.unit, s.abs_prec()) == (0, 26, 3)
    # cancellation: all known digits vanish
    a = R(p, 6, 3)
    b = R(p, 119, 3)
    c = a + b
    assert c.is_zero() and not c.is_exact_zero() and c.abs_prec() == 3
    # exact zero is the additive identity
    assert (PadicNumber.zero(p) + x) == x
    assert (x + PadicNumber.zero(p)).abs_prec() == 3


def test_add_int_and_fraction():
    p = 7
    x = R(p, 3, 5)
    assert (x + 4) == R(p, 7, 5)
    assert (x + Fraction(1, 2)) == R(p, Fraction(7, 2), 5)
    assert (1 + x) == R(p, 4, 5)
    assert sum([R(p, 1, 5), R(p, 2, 5)]) == R(p, 3, 5)


def test_mul_div():
    p = 13
    x = R(p, Fraction(3, 13), 8)
    y = R(p, 26, 8)
    assert (x * y) == R(p, 6, 8)
    assert (x * y).val == 0
    assert (x / y) == R(p, Fraction(3, 338), 8)
    assert (x * x.inv()) == 1
    assert (1 / x) == R(p, Fraction(13, 3), 8)
    with pytest.raises(PadicError):
        PadicNumber.zero(p).inv()


def test_pow():
    p = 11
    x = R(p, Fraction(2, 11), 6)
    assert (x ** 3) == R(p, Fraction(8, 1331), 6)
    assert (x ** -2) == R(p, Fraction(121, 4), 6)
    assert (x ** 0) == 1
    z = PadicNumber(11, 2, 0, 0)
    assert (z ** 3).abs_prec() == 6


def test_equality_is_congruence():
    p = 5
    assert R(p, 2, 3) == R(p, 2 + 125, 5)
    assert R(p, 2, 3) != R(p, 2 + 25, 5)
    assert R(p, 2, 3) == 2
    assert PadicNumber.zero(p) == 0
    assert PadicNumber.zero(p) != 1
    assert PadicNumber(p, 4, 0, 0) == 625       # O(5^4) vs 5^4: equal mod 5^4
    with pytest.raises(PadicError):
        PadicNumber(5, 0, 1, 3) + PadicNumber(7, 0, 1, 3)


def test_mixed_valuation_subtraction():
    p = 5
    x = R(p, Fraction(1, 5), 4)          # abs prec 3
    y = R(p, Fraction(1, 5), 6)
    d = x - y
    assert d.is_zero() and d.abs_prec() == 3


def test_residue_and_truncate():
    p = 5
    x = R(p, 77, 6)
    assert x.residue(3) == 77 % 125
    assert x.truncate_abs(2).abs_prec() == 2
    with pytest.raises(PadicError):
        x.residue(10)
    with pytest.raises(PadicError):
        R(p, Fraction(1, 5), 6).residue(2)


def test_serialization_roundtrip():
    # the digits of each unit, least significant first
    p = 13
    cases = [R(p, Fraction(-7, 3), 9), R(p, 169 * 5, 4),
             PadicNumber.zero(p), PadicNumber(p, 3, 0, 0)]
    assert [x.to_json() for x in cases] == [
        {"p": 13, "val": 0, "unit": "2,4,4,4,4,4,4,4,4", "prec": 9},
        {"p": 13, "val": 2, "unit": "5,0,0,0", "prec": 4},
        {"p": 13, "val": "exact-zero", "unit": "", "prec": 0},
        {"p": 13, "val": 3, "unit": "", "prec": 0}]
    d = R(5, 7, 3).to_json()
    assert d == {"p": 5, "val": 0, "unit": "2,1,0", "prec": 3}


# ---------------------------------------------------------------------------
# Teichmuller

def test_teichmuller_frozen():
    assert teichmuller(5, 1, 10) == 1
    w = teichmuller(5, 4, 10)
    assert w == -1
    assert teichmuller(5, 2, 2).residue(2) == 7
    with pytest.raises(PadicError):
        teichmuller(5, 10, 4)


@pytest.mark.parametrize("p", [5, 13, 29])
def test_teichmuller_properties(p):
    N = 12
    for x in range(1, p):
        w = teichmuller(p, x, N)
        assert (w ** (p - 1)) == 1
        assert w.residue(1) == x % p


# ---------------------------------------------------------------------------
# Iwasawa logarithm

def test_log_frozen():
    assert iwasawa_log(5, 1, 10).is_zero()
    assert iwasawa_log(5, 5, 10).is_zero()
    assert iwasawa_log(5, -1, 10).is_zero()
    v = iwasawa_log(5, 6, 3)
    assert v.residue(3) == 55
    with pytest.raises(PadicError):
        iwasawa_log(5, 0, 10)


def test_log_kills_teichmuller():
    # log vanishes on all rationals congruent to roots of unity times p-powers
    p = 7
    for x in [7, 49, Fraction(1, 7), -7]:
        assert iwasawa_log(p, x, 15).is_zero()


@pytest.mark.parametrize("p", [5, 11])
def test_log_additivity(p):
    rng = random.Random(p)
    N = 12
    done = 0
    while done < 200:
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        y = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        if x == 0 or y == 0:
            continue
        lx = iwasawa_log(p, x, N)
        ly = iwasawa_log(p, y, N)
        lxy = iwasawa_log(p, x * y, N)
        assert lxy == lx + ly
        done += 1


def test_log_truncation_soundness():
    rng = random.Random(3)
    for p in [5, 13]:
        for _ in range(40):
            x = Fraction(rng.randint(1, 200), rng.randint(1, 200))
            N = rng.randint(3, 15)
            a = iwasawa_log(p, x, N)
            b = iwasawa_log(p, x, N + 5).truncate_abs(N)
            assert (a.val, a.unit, a.prec) == (b.val, b.unit, b.prec)


def _log_teichmuller_form(p, x, N):
    """log_p(x) as the alternating series at <x> - 1, <x> = u/omega(u) for
    the unit u = x/p^v(x), in PadicNumber arithmetic."""
    x = Fraction(x)
    W = 2 * N + 10
    u = PadicNumber.from_rational(p, x, W)
    u = PadicNumber(p, 0, u.unit, u.prec)
    y = u / teichmuller(p, u.unit % p, W) - 1
    acc = PadicNumber.zero(p)
    power = PadicNumber.from_rational(p, 1, W)
    for n in range(1, 2 * N + 10):
        power = power * y
        term = power / n
        acc = acc + (term if n % 2 else -term)
    return acc.truncate_abs(N)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 23])
def test_log_matches_teichmuller_form(p):
    rng = random.Random(p)
    xs = [x for x in range(-60, 61) if x]
    xs += [Fraction(rng.randint(-10 ** 6, 10 ** 6) or 1,
                    rng.randint(1, 10 ** 6)) for _ in range(60)]
    xs += [p ** rng.randint(1, 4) * rng.choice((-1, 1)) * rng.randint(1, 999)
           for _ in range(20)]
    for x in xs:
        for N in (1, 4, 12):
            a = iwasawa_log(p, x, N)
            b = _log_teichmuller_form(p, x, N)
            assert (a.val, a.unit, a.prec) == (b.val, b.unit, b.prec), (x, N)


# ---------------------------------------------------------------------------
# Hensel roots

def _root_zp(p, a, d, N):
    """The d-th root of a in Z_p mod p^N that build_char takes: the lift of
    _residue_root's pick at twist 0; None when the pick is not in F_p."""
    x0 = _residue_root(p, a, d, 0)
    return lift_root(p, x0, a, d, N) if x0 else None


def test_nth_root_zp():
    r = _root_zp(29, 4, 2, 10)
    assert r == 2
    assert _root_zp(29, 4 + 29 ** 10, 2, 10) == 2
    # 3 is coprime to 28: cube roots exist and are unique mod 29
    for a in [2, 5, 17]:
        r = _root_zp(29, a, 3, 8)
        assert r is not None and pow(r, 3, 29 ** 8) == a
    # cubes mod 13 are {1, 5, 8, 12}, and 9 is not a cube in F_169 either
    assert _residue_root(13, 9, 3, 0) is None
    # the residue 0 of a non-unit is no simple root
    with pytest.raises(QuadFieldError, match="no simple root"):
        lift_root(13, 0, 13, 2, 6)
    # neither is a root mod p with p | d
    with pytest.raises(QuadFieldError, match="no simple root"):
        lift_root(3, 1, 1, 3, 4)


def test_padic_sqrt_random():
    rng = random.Random(5)
    p, N = 17, 9
    for _ in range(50):
        a = rng.randint(1, p ** 4)
        if a % p == 0:
            continue
        r = _root_zp(p, a, 2, N)
        if qf.kronecker(a, p) == 1:
            assert r is not None and pow(r, 2, p ** N) == a % p ** N
            assert r % p <= (p - 1) // 2    # lift of the smaller root mod p
        else:
            # every unit of F_p is a square in F_(p^2): the pick lies off F_p
            assert _residue_root(p, a, 2, 0) == 0


# ---------------------------------------------------------------------------
# epsilon_A and sigma_A

def test_epsilon_trivia():
    assert epsilon_A(-7, 23, 1, 10, 1) == 1
    # gcd(d, n/d, |D|) > 1 kills the term
    assert epsilon_A(-15, 17, 2, 9, 3) == 0
    with pytest.raises(PadicError):
        epsilon_A(-7, 23, 1, 10, 3)     # 3 does not divide 10
    with pytest.raises(PadicError):
        epsilon_A(-7, 23, 7, 10, 2)     # class norm not coprime to D


def test_epsilon_factorization_choice():
    # D = -15, d = 3: |D2| = 3 forces D2 = -3, D1 = 5
    got = epsilon_A(-15, 17, 1, 3, 3)
    want = (qf.kronecker(5, 3) * qf.kronecker(-3, -17)
            * qf.kronecker(-3, 1))
    assert got == want == -1
    # and d = 5: |D2| = 5, D2 = 5, D1 = -3
    got = epsilon_A(-15, 17, 1, 5, 5)
    want = (qf.kronecker(-3, 5) * qf.kronecker(5, -17)
            * qf.kronecker(5, 1))
    assert got == want


def test_epsilon_coprime_fast_case():
    # gcd(d, |D|) = 1: epsilon reduces to the single symbol (D/d)
    rng = random.Random(23)
    for _ in range(200):
        D = rng.choice([-7, -23, -31])
        n = rng.randint(1, 400)
        for d in [x for x in range(1, n + 1) if n % x == 0]:
            from math import gcd
            if gcd(d, -D) != 1 or gcd(gcd(d, n // d), -D) != 1:
                continue
            cn = qf.class_norm(D, rng.randrange(qf.class_number(D)))
            assert epsilon_A(D, 23, cn, n, d) == qf.kronecker(D, d)


def test_sigma_trivia():
    assert sigma_A(-7, 23, 1, 1, 11, 10).is_zero()
    with pytest.raises(PadicError):
        sigma_A(-7, 23, 1, 0, 11, 10)


def test_sigma_prime_two_divisor_expansion():
    # n = q prime, q coprime to pD: sigma = (1 - eps(q,q)) log_p(q)
    p, N = 11, 12
    for q in [5, 13, 19, 29]:
        got = sigma_A(-7, 23, 1, q, p, N)
        eps_qq = epsilon_A(-7, 23, 1, q, q)
        want = (1 - eps_qq) * iwasawa_log(p, q, N)
        if isinstance(want, int):
            assert got.is_zero()
        else:
            assert got == want


def test_sigma_oracle_small():
    # independent recomputation straight from the definition
    from sympy import divisors
    p, N = 11, 10
    rng = random.Random(9)
    for _ in range(30):
        D = rng.choice([-7, -23])
        cn = qf.class_norm(D, rng.randrange(qf.class_number(D)))
        n = rng.randint(1, 120)
        acc = PadicNumber.zero(p)
        for d in divisors(n):
            e = epsilon_A(D, 23, cn, n, d)
            if e:
                acc = acc + e * iwasawa_log(p, Fraction(n, d * d), N)
        assert sigma_A(D, 23, cn, n, p, N) == acc


def test_sigma_prime_power_factor_rule():
    # sigma_A(p^t n0) = (t+1) sigma_{A pr^t}(n0) with pr a prime above p.
    # h = 1 first: the class (and its norm) cannot move
    p, N = 11, 10
    for n0 in [1, 2, 6, 13]:
        for t in [1, 2]:
            lhs = sigma_A(-7, 23, 1, p ** t * n0, p, N)
            rhs = (t + 1) * sigma_A(-7, 23, 1, n0, p, N)
            assert lhs == rhs, (n0, t)
    # h = 3, p = 29 split in Q(sqrt(-23)): the class moves by [pr]^t
    D, p2 = -23, 29
    G = qf.class_group(D)
    pr = qf.primitive_ideals_of_norm(D, p2)[0]
    cp = qf.class_index_of_ideal(D, pr)
    for ci in range(G.h):
        cn = qf.class_norm(D, ci)
        for t in [1, 2]:
            moved = ci
            for _ in range(t):
                moved = G.mult(moved, cp)
            cn_moved = qf.class_norm(D, moved)
            for n0 in [1, 2, 7]:
                lhs = sigma_A(D, 3, cn, p2 ** t * n0, p2, N)
                rhs = (t + 1) * sigma_A(D, 3, cn_moved, n0, p2, N)
                assert lhs == rhs, (ci, t, n0)


def test_epsilon_square_class_invariance():
    # replacing the class by A*b^2 never changes epsilon (genus characters)
    D = -23
    G = qf.class_group(D)
    for ci in range(G.h):
        cn = qf.class_norm(D, ci)
        for b in range(G.h):
            cj = G.mult(ci, G.mult(b, b))
            cn2 = qf.class_norm(D, cj)
            for n in range(1, 60):
                for d in [x for x in range(1, n + 1) if n % x == 0]:
                    assert (epsilon_A(D, 3, cn, n, d)
                            == epsilon_A(D, 3, cn2, n, d))
