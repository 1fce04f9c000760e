"""Form/ideal arithmetic tests: frozen small cases plus brute-force oracles."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from padicheights import quadfield as qf
from padicheights.quadfield import KElem, QuadFieldError
from testkit import class_norm_by_grid, reduced_forms_by_scan


def valid_discs(limit):
    out = []
    for D in range(-7, limit - 1, -4):
        try:
            qf.validate_discriminant(D)
            out.append(D)
        except QuadFieldError:
            pass
    return out


# ---------------------------------------------------------------------------
# discriminant validation

@pytest.mark.parametrize("D", [0, 5, -3, -4, -8, -12, -20, -9, -75, -2])
def test_validate_rejects(D):
    with pytest.raises(QuadFieldError):
        qf.validate_discriminant(D)


@pytest.mark.parametrize("D", [-7, -11, -15, -23, -31, -39, -47, -55])
def test_validate_accepts(D):
    assert qf.validate_discriminant(D) == D


# ---------------------------------------------------------------------------
# Kronecker symbol

def test_kronecker_frozen():
    # split/inert/ramified classification inputs used throughout
    assert qf.kronecker(-7, 2) == 1
    assert qf.kronecker(-7, 11) == 1
    assert qf.kronecker(-7, 23) == 1
    assert qf.kronecker(-7, 3) == -1
    assert qf.kronecker(-7, 7) == 0
    assert qf.kronecker(-23, 3) == 1
    assert qf.kronecker(-23, 13) == 1
    assert qf.kronecker(-23, 29) == 1
    assert qf.kronecker(-15, 17) == 1
    # edge cases of the full extension
    assert qf.kronecker(1, 0) == 1
    assert qf.kronecker(-1, 0) == 1
    assert qf.kronecker(2, 0) == 0
    assert qf.kronecker(0, 5) == 0
    assert qf.kronecker(-1, -1) == -1
    assert qf.kronecker(3, -1) == 1
    assert qf.kronecker(5, 2) == -1
    assert qf.kronecker(7, 2) == 1


def test_kronecker_euler_criterion():
    for q in [3, 5, 7, 11, 13, 17, 19, 23, 101]:
        for a in range(1, q):
            s = pow(a, (q - 1) // 2, q)
            assert qf.kronecker(a, q) == (1 if s == 1 else -1)


@given(st.integers(-300, 300), st.integers(-300, 300), st.integers(-60, 60))
@example(0, -1, -1)
@example(-3, 0, -1)
@example(0, 3, -1)
@example(-1, 0, -1)
@settings(max_examples=300)
def test_kronecker_multiplicative(a, b, n):
    # Multiplicative in each argument except where a zero meets -1:
    # (0/-1) = 1 while (x/-1) = -1 for x < 0, and (-1/0) = 1 while
    # (-1/x) = -1 for some x.  There the product is exactly -1.
    top, top_prod = qf.kronecker(a * b, n), qf.kronecker(a, n) * qf.kronecker(b, n)
    if n == -1 and 0 in (a, b) and min(a, b) < 0:
        assert (top, top_prod) == (1, -1)
    else:
        assert top == top_prod
    bottom, bottom_prod = qf.kronecker(n, a * b), qf.kronecker(n, a) * qf.kronecker(n, b)
    if n == -1 and 0 in (a, b) and qf.kronecker(-1, a + b) == -1:
        assert (bottom, bottom_prod) == (1, -1)
    else:
        assert bottom == bottom_prod


@pytest.mark.parametrize("D", [-7, -15, -23, -47])
def test_kronecker_periodicity(D):
    # (D/n) is periodic mod |D| on positive n
    for n in range(1, 3 * abs(D)):
        assert qf.kronecker(D, n) == qf.kronecker(D, n + abs(D))


# ---------------------------------------------------------------------------
# small integers: isprime, factorint, divisors against sympy as the oracle,
# and the Newton lift of roots

# strong pseudoprimes to several bases (2047 to base 2; psi_12 and psi_13
# fool Miller-Rabin on the first 12 and 13 prime bases), strong Lucas
# pseudoprimes and Carmichael numbers
PSEUDOPRIMES = [2047, 3215031751, 3825123056546413051,
                318665857834031151167461, 3317044064679887385961981,
                5459, 5777, 10877, 16109, 18971, 561, 1105, 1729, 2465,
                2821, 6601, 8911, 41041, 825265, 321197185, 5394826801,
                232250619601, 9746347772161]


def test_isprime_matches_sympy():
    import sympy
    for n in range(-3, 200_000):
        assert qf.isprime(n) == sympy.isprime(n), n
    rng = random.Random(5)
    for _ in range(1800):
        bits = rng.randint(20, 200)
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        assert qf.isprime(n) == sympy.isprime(n), n
    for n in PSEUDOPRIMES:
        assert not qf.isprime(n) and not sympy.isprime(n), n


def test_factorint_and_divisors_match_sympy():
    import sympy
    rng = random.Random(7)
    ns = (list(range(-3, 30_000))
          + [rng.randrange(1, 10 ** 18) for _ in range(300)])
    for _ in range(20):
        q1 = sympy.nextprime(rng.randrange(10 ** 9, 2 * 10 ** 9))
        q2 = sympy.nextprime(rng.randrange(10 ** 9, 2 * 10 ** 9))
        ns.append(q1 * q2)
    for n in ns:
        f = qf.factorint(n)
        assert f == sympy.factorint(n), n
        assert list(f) == sorted(f), n
        assert qf.divisors(n) == sympy.divisors(n), n


def test_factorint_within_the_rho_budget():
    # a 25-digit semiprime of two 13-digit primes splits in about 3.2 million
    # of the 4,194,304 steps
    assert qf._RHO_BUDGET == 1 << 22
    assert qf.factorint(9900000000165900000000533) == {
        3000000000013: 1, 3300000000041: 1}


def test_factorint_past_the_rho_budget(monkeypatch):
    monkeypatch.setattr(qf, "_RHO_BUDGET", 1000)
    n = 100000007 * 1000000007
    with pytest.raises(QuadFieldError) as err:
        qf.factorint(n)
    assert str(err.value) == (
        "hypothesis the factorization of n is within the Pollard rho budget "
        f"of 1000 steps fails: n = {n}")


def test_roots_mod_p_match_enumeration():
    # every unit a and d <= 24 at the odd primes below 200 and four primes
    # with larger 2- and 3-parts in p - 1, against r^d mod p grouped by a
    cases = 0
    for p in [*(p for p in range(3, 200) if qf.isprime(p)), 257, 641, 769,
              1009]:
        for d in range(1, 25):
            roots = {}
            for r in range(1, p):
                roots.setdefault(pow(r, d, p), []).append(r)
            for a in range(1, p):
                assert qf.roots_mod_p(a, d, p) == roots.get(a, []), (p, d, a)
                cases += 1
    assert cases == 164448


def test_roots_mod_p_needs_a_unit():
    for a, d, p in [(0, 2, 7), (14, 3, 7), (-11, 1, 11)]:
        with pytest.raises(QuadFieldError, match="a must be a unit"):
            qf.roots_mod_p(a, d, p)


def test_lift_root_in_zp():
    p, N = 7, 12
    mod = p ** N
    # a cube root in Z_7 (2^3 = 1 mod 7), congruent to its residue root
    a = 1 + 7 ** 3
    x = qf.lift_root(p, 2, a, 3, N)
    assert x % p == 2
    assert pow(x, 3, mod) == a % mod
    # 3 is no cube mod 7: lifting from 1 raises instead of returning
    with pytest.raises(QuadFieldError, match="root lift failed"):
        qf.lift_root(p, 1, 3, 3, N)


# ---------------------------------------------------------------------------
# reduced forms and class numbers

def test_reduced_forms_frozen():
    assert qf.reduced_forms(-7) == ((1, 1, 2),)
    assert qf.reduced_forms(-11) == ((1, 1, 3),)
    assert qf.reduced_forms(-23) == ((1, 1, 6), (2, -1, 3), (2, 1, 3))
    assert qf.class_number(-47) == 5
    assert qf.class_number(-15) == 2


def test_reduced_forms_match_scan_oracle():
    # reduced_forms takes each b from the CRT roots of
    # primitive_ideals_of_norm; the oracle tries every b in (-a, a]
    discs = valid_discs(-19999)
    assert len(discs) == 4054
    for D in discs:
        assert qf.reduced_forms(D) == reduced_forms_by_scan(D), D


def test_reduced_forms_refuse_past_the_disc_bound():
    # checked before any form is listed, so the refusal comes at once
    with pytest.raises(QuadFieldError) as err:
        qf.reduced_forms(-10000000003)
    assert str(err.value) == ("hypothesis |D| <= 10000000000 for the class "
                              "group fails: |D| = 10000000003")


def test_reduced_forms_sorted_and_reduced():
    for D in valid_discs(-200):
        forms = qf.reduced_forms(D)
        assert list(forms) == sorted(forms)
        for f in forms:
            assert qf.form_disc(f) == D
            assert qf.is_reduced(f)


def test_reduce_form_oracle():
    # brute-force oracle: reduction lands on a reduced form of the same class,
    # verified by checking the transform is unimodular and maps values
    rng = random.Random(7)
    for _ in range(200):
        D = rng.choice([-7, -23, -47, -71])
        a = rng.randint(1, 40)
        b = rng.choice([x for x in range(-80, 80) if (x * x - D) % (4 * a) == 0] or [None])
        if b is None:
            continue
        c = (b * b - D) // (4 * a)
        if c <= 0:
            continue
        f = (a, b, c)
        fr, (m00, m01, m10, m11) = qf.reduce_form(f, with_transform=True)
        assert m00 * m11 - m01 * m10 == 1
        for x, y in [(1, 0), (0, 1), (2, -3), (5, 7)]:
            xx, yy = m00 * x + m01 * y, m10 * x + m11 * y
            va = a * xx * xx + b * xx * yy + c * yy * yy
            ar, br, cr = fr
            vb = ar * x * x + br * x * y + cr * y * y
            assert va == vb


# ---------------------------------------------------------------------------
# composition / class group axioms

def test_compose_frozen():
    assert qf.compose((2, 1, 3), (2, -1, 3)) == (1, 1, 6)
    assert qf.compose((2, 1, 3), (2, 1, 3)) == (2, -1, 3)


def test_group_axioms_exhaustive():
    for D in valid_discs(-500):
        G = qf.class_group(D)
        h = G.h
        e = G.identity
        assert G.forms[e] == qf.principal_form(D)
        for i in range(h):
            assert G.mult(e, i) == i
            assert G.mult(i, G.inv(i)) == e
        if h <= 12:
            for i in range(h):
                for j in range(h):
                    assert G.mult(i, j) == G.mult(j, i)
                    for k in range(h):
                        assert G.mult(G.mult(i, j), k) == G.mult(i, G.mult(j, k))
        else:
            rng = random.Random(D)
            for _ in range(50):
                i, j, k = (rng.randrange(h) for _ in range(3))
                assert G.mult(G.mult(i, j), k) == G.mult(i, G.mult(j, k))


def test_generator_decomposition():
    for D in valid_discs(-400):
        G = qf.class_group(D)
        # orders multiply to h and dlog is a bijection
        prod = 1
        for g, d in G.generators:
            prod *= d
            # g has order exactly d
            assert min(e for e in range(1, d + 1)
                       if G.pow(g, e) == G.identity) == d
        assert prod == G.h
        seen = {G.dlog(i) for i in range(G.h)}
        assert len(seen) == G.h


def test_class_group_minus23_cyclic3():
    G = qf.class_group(-23)
    assert [d for _, d in G.generators] == [3]


def test_class_group_decomposition_is_pinned():
    # the generators and every discrete log over the 407 supported fields
    # with -2000 < D <= -7 (h <= 31); a character is fixed by its values on
    # these generators, so any change here changes chi
    import hashlib
    digest = hashlib.sha256()
    discs = valid_discs(-1999)
    assert len(discs) == 407
    for D in discs:
        G = qf.ClassGroup(D)
        digest.update(repr((D, G.generators,
                            [G.dlog(i) for i in range(G.h)])).encode())
    assert digest.hexdigest() == (
        "49100d07d8937c9870a6d054a5262f0826eb1f49bcd9468021248b60cf0a074e")


def test_class_group_decomposition_is_pinned_to_20000():
    # the same pin over the 3,647 supported fields with -20000 < D <= -2000
    # (h <= 213), taken when each class was walked to its order in the
    # quotient: reading the orders off pow keeps every generator and dlog
    import hashlib
    digest = hashlib.sha256()
    discs = [D for D in valid_discs(-19999) if D <= -2000]
    assert len(discs) == 3647
    for D in discs:
        G = qf.ClassGroup(D)
        digest.update(repr((D, G.generators,
                            [G.dlog(i) for i in range(G.h)])).encode())
    assert digest.hexdigest() == (
        "22234d040d5e94b1b9f132ac558fe9cf50b5eaed5eeb13864ab5b5198c30f692")


# ---------------------------------------------------------------------------
# ideals

def test_ideal_norm_and_conj():
    D = -23
    i1 = qf.normalize_ideal(D, 1, 2, 1)
    assert qf.ideal_norm(i1) == 2
    prod = qf.ideal_mult(D, i1, qf.ideal_conj(D, i1))
    assert prod == (2, 1, 1)  # P * P-bar = (2)


def test_ideals_of_norm_small():
    # D=-7: 2 splits (-7 = 1 mod 8): two ideals of norm 2, both principal
    res = qf.ideals_of_norm(-7, 2)
    assert len(res) == 2 and all(ci == 0 for _, ci in res)
    # three ideals of norm 4: (2) and the two squares of primes above 2
    res4 = qf.ideals_of_norm(-7, 4)
    assert len(res4) == 3
    assert (2, 1, 1) in [i for i, _ in res4]
    # inert prime: no ideals
    assert qf.ideals_of_norm(-7, 3) == []
    assert qf.ideals_of_norm(-7, 9) == [((3, 1, 1), 0)]
    # ramified
    assert len(qf.ideals_of_norm(-7, 7)) == 1
    assert qf.ideals_of_norm(-7, 49) == [((7, 1, 1), 0)]


@pytest.mark.parametrize("D", [-7, -15, -23, -39, -55, -195, -255, -1155])
def test_primitive_ideals_match_odd_b_scan(D):
    # powers of 2, ramified primes and odd prime powers (deep ones too, for
    # the bit-by-bit 2-adic lift and the Newton lift of the square roots),
    # against the definition: one ideal (1, n, b) per odd b mod 2n with
    # b^2 = D mod 4n
    for n in [*range(1, 1200), 2 ** 14, 2 ** 17, 3 ** 8, 3 ** 9, 5 ** 6,
              7 ** 5, 11 ** 4]:
        brute = sorted(qf.normalize_ideal(D, 1, n, b)
                       for b in range(1, 2 * n, 2)
                       if (b * b - D) % (4 * n) == 0)
        assert (qf.primitive_ideals_of_norm(D, qf.factorint(n))
                == brute), (D, n)


@pytest.mark.parametrize("D", [-7, -15, -23, -55, -195])
def test_ideals_of_norm_match_every_square_divisor(D):
    # ideals_of_norm reads its e off the factorization of n; the definition
    # tries every e <= sqrt(n) with e^2 | n
    def by_definition(n):
        ideals = [(e, a, b) for e in range(1, isqrt(n) + 1) if n % (e * e) == 0
                  for (_, a, b) in qf.primitive_ideals_of_norm(
                      D, qf.factorint(n // (e * e)))]
        return sorted((i, qf.class_index_of_ideal(D, i)) for i in ideals)
    for n in [*range(1, 3000), 3 ** 4 * 11 ** 2, 2 ** 6 * 5 ** 4, 7 ** 6,
              2 ** 4 * 3 ** 4 * 5 ** 2 * 11 ** 2, 3 ** 8 * 13 ** 3]:
        assert qf.ideals_of_norm(D, n) == by_definition(n), (D, n)


def test_ideals_of_norm_factor_n_once(monkeypatch):
    # every e with e^2 | n comes with the factorization of n / e^2, so no
    # n / e^2 is factored again
    qf.form_index(-7)               # the reduced forms factor each a
    calls, real = [], qf.factorint

    def counted(n):
        calls.append(n)
        return real(n)
    monkeypatch.setattr(qf, "factorint", counted)
    n = 3 ** 4 * 11 ** 2 * 29
    # 3 is inert (only e = 9), 11 and 29 split: 3 * 2 ideals
    assert len(qf.ideals_of_norm(-7, n)) == 6
    # the other calls factor the degree 2 of a square root mod q, and 2
    # does not divide n
    assert [m for m in calls if n % m == 0] == [n]


def test_count_rA_nonpositive_and_fractional():
    assert qf.count_rA(-7, 0, 0) == 0
    assert qf.count_rA(-7, 0, Fraction(3, 2)) == 0
    assert qf.count_rA(-7, 0, -5) == 0


def brute_lattice_counts(D, f, bound):
    """Representation counts of the form f up to bound (oracle)."""
    a, b, c = f
    counts = [0] * (bound + 1)
    smax = isqrt(4 * c * bound // (-D)) + 2
    for s in range(-smax, smax + 1):
        # solve a s^2 + b s t + c t^2 <= bound for t
        tmax = isqrt(4 * a * bound // (-D)) + 2
        for t in range(-tmax, tmax + 1):
            v = a * s * s + b * s * t + c * t * t
            if 0 < v <= bound:
                counts[v] += 1
    return counts


@pytest.mark.parametrize("D,bound", [(-7, 10000), (-23, 10000), (-15, 2000), (-47, 1000)])
def test_norm_counts_vs_lattice_oracle(D, bound):
    # per class: w * r_A(n) = representations of n by the class's form
    forms = qf.reduced_forms(D)
    per_class = [brute_lattice_counts(D, f, bound) for f in forms]
    # accumulate count_rA over all n by one ideals_of_norm sweep
    got = [[0] * (bound + 1) for _ in forms]
    for n in range(1, bound + 1):
        for _, ci in qf.ideals_of_norm(D, n):
            got[ci][n] += 1
    for ci in range(len(forms)):
        for n in range(1, bound + 1):
            assert 2 * got[ci][n] == per_class[ci][n], (D, ci, n)


def test_ideal_class_product_consistency():
    rng = random.Random(11)
    for D in [-7, -23, -47, -71]:
        G = qf.class_group(D)
        pool = []
        for n in range(2, 60):
            pool.extend(qf.ideals_of_norm(D, n))
        for _ in range(100):
            (i1, c1), (i2, c2) = rng.choice(pool), rng.choice(pool)
            prod = qf.ideal_mult(D, i1, i2)
            assert qf.ideal_norm(prod) == qf.ideal_norm(i1) * qf.ideal_norm(i2)
            assert qf.class_index_of_ideal(D, prod) == G.mult(c1, c2)


def test_compose_against_principality_oracle():
    # [a][b] = C iff a*b*conj(rep(C)) is principal; principality is decided
    # by the independent generator-extraction path
    rng = random.Random(13)
    for D in [-23, -47]:
        G = qf.class_group(D)
        pool = []
        for n in range(2, 40):
            pool.extend(qf.ideals_of_norm(D, n))
        for _ in range(40):
            (i1, c1), (i2, c2) = rng.choice(pool), rng.choice(pool)
            c3 = G.mult(c1, c2)
            rep = qf.ideal_of_form(D, G.forms[c3])
            test_ideal = qf.ideal_mult(D, qf.ideal_mult(D, i1, i2),
                                       qf.ideal_conj(D, rep))
            g = qf.principal_generator(D, test_ideal)  # must not raise
            assert g.norm() == qf.ideal_norm(test_ideal)
            for other in range(G.h):
                if other == c3:
                    continue
                rep2 = qf.ideal_of_form(D, G.forms[other])
                bad = qf.ideal_mult(D, qf.ideal_mult(D, i1, i2),
                                    qf.ideal_conj(D, rep2))
                with pytest.raises(QuadFieldError):
                    qf.principal_generator(D, bad)


def test_principal_generator_roundtrip():
    rng = random.Random(17)
    for D in [-7, -23, -39]:
        for _ in range(60):
            u = rng.randint(-15, 15)
            v = rng.randint(-8, 8)
            if v == 0 and u == 0:
                continue
            if (u - v) % 2 != 0:
                u += 1
            gamma = KElem(D, Fraction(u, 2), Fraction(v, 2))
            n = gamma.norm()
            assert n.denominator == 1
            n = int(n)
            # locate the ideal generated by gamma among ideals of norm n
            matches = []
            for ideal, ci in qf.ideals_of_norm(D, n):
                e = ideal[0]
                if qf.element_in_ideal(D, ideal, gamma):
                    # gamma in ideal and norms equal => ideal = (gamma)
                    matches.append(ideal)
            assert matches, (D, u, v)
            ideal = matches[-1]
            g = qf.principal_generator(D, ideal)
            assert g == gamma or g == -gamma


def test_element_arithmetic():
    D = -7
    x = KElem(D, Fraction(1, 2), Fraction(1, 2))   # (1+sqrt(-7))/2
    assert x.norm() == 2
    assert (x ** 4) == x * x * x * x
    y = x.inv()
    assert (x * y) == KElem(D, 1, 0)


# ---------------------------------------------------------------------------
# splitting, ramified ideals, factorizations

def test_split_type():
    assert qf.split_type(-7, 2) == "split"
    assert qf.split_type(-7, 3) == "inert"
    assert qf.split_type(-7, 7) == "ramified"
    assert qf.split_type(-23, 29) == "split"


def test_prime_ideal_above():
    # the ideals of norm p not divisible by an integer: the primes above p
    D = -7
    ps = qf.primitive_ideals_of_norm(D, qf.factorint(11))
    assert len(ps) == 2
    assert qf.ideal_mult(D, ps[0], ps[1]) == (11, 1, 1)
    assert qf.primitive_ideals_of_norm(D, qf.factorint(3)) == []  # inert
    ram = qf.primitive_ideals_of_norm(D, qf.factorint(7))
    assert len(ram) == 1 and qf.ideal_norm(ram[0]) == 7


def test_ramified_ideal():
    assert qf.primitive_ideals_of_norm(-15, qf.factorint(1))[0] == (1, 1, 1)
    r5 = qf.primitive_ideals_of_norm(-15, qf.factorint(5))[0]
    assert qf.ideal_norm(r5) == 5
    assert qf.ideal_pow(-15, r5, 2) == (5, 1, 1)
    r3 = qf.primitive_ideals_of_norm(-15, qf.factorint(3))[0]
    assert qf.ideal_norm(r3) == 3


def test_ramified_ideal_sweep():
    # each factor D1 of D = D1 D2 has exactly one ideal of norm |D1| not
    # divisible by an integer, and its square is the scalar ideal (|D1|)
    discs = valid_discs(-1999)
    assert len(discs) == 407
    for D in discs:
        for D1, _ in qf.discriminant_factorizations(D):
            ideals = qf.primitive_ideals_of_norm(D, qf.factorint(abs(D1)))
            assert len(ideals) == 1, (D, D1)
            assert qf.ideal_pow(D, ideals[0], 2) == (abs(D1), 1, 1), (D, D1)


def test_discriminant_factorizations():
    fs = qf.discriminant_factorizations(-15)
    assert set(fs) == {(1, -15), (-3, 5), (5, -3), (-15, 1)}
    assert set(qf.discriminant_factorizations(-7)) == {(1, -7), (-7, 1)}


def test_class_norm():
    assert qf.class_norm(-7, 0) == 1
    for D in [-23, -47]:
        for ci in range(qf.class_number(D)):
            n = qf.class_norm(D, ci)
            assert gcd(n, D) == 1
            assert qf.count_rA(D, ci, n) > 0
    # -39 has the reduced form (3,3,4) with gcd(a, D) = 3
    forms = qf.reduced_forms(-39)
    ci = forms.index((3, 3, 4))
    n = qf.class_norm(-39, ci)
    assert gcd(n, 39) == 1 and qf.count_rA(-39, ci, n) > 0


def test_class_norm_has_the_genus_of_the_grid_norm():
    # class_norm takes the first value prime to D in diagonal order, not the
    # smallest over the O(|D|) grid; the two may differ, but every norm
    # prime to D of one class lies in one genus, the one thing that callers
    # read
    checked = 0
    for D in valid_discs(-4999):
        splits = qf.discriminant_factorizations(D)
        for ci, (a, _, _) in enumerate(qf.reduced_forms(D)):
            if gcd(a, D) == 1:
                continue
            n, grid = qf.class_norm(D, ci), class_norm_by_grid(D, ci)
            assert gcd(n, D) == 1, (D, ci)
            assert all(qf.kronecker(D2, n) == qf.kronecker(D2, grid)
                       for _, D2 in splits), (D, ci, n, grid)
            checked += 1
    assert checked == 2712


# ---------------------------------------------------------------------------
# admissible parameters

def test_admissible_params_frozen():
    assert qf.admissible_params(-7) == (11, 23)
    assert qf.admissible_params(-7, p=11) == (23, 11)
    assert qf.admissible_params(-23) == (3, 13)


def test_admissible_params_constraints(monkeypatch):
    monkeypatch.setattr(qf, "_SEARCH_BOUND", 10)    # the first level is 11
    with pytest.raises(QuadFieldError, match="search bound exceeded"):
        qf.admissible_params(-7)
    monkeypatch.undo()
    with pytest.raises(QuadFieldError):
        qf.admissible_params(-7, p=3)  # 3 is inert in Q(sqrt(-7))


# fields where the smallest p at which a character of infinity type (2, 0)
# exists needs the quadratic extension of Q_p, so build_char refuses it
ZP_FIXED = {-55: (7, 31), -155: (3, 19), -203: (3, 19), -291: (5, 23),
            -323: (3, 31), -355: (7, 19)}


@pytest.mark.parametrize("D", sorted(ZP_FIXED))
def test_admissible_params_character_in_zp(D):
    from padicheights.heckechar import build_char
    level, p = qf.admissible_params(D, char_ell=2)
    assert (level, p) == ZP_FIXED[D]
    build_char(D, 2, "padic", p=p)      # refuses a character off Z_p


def test_admissible_params_fixed_p_without_zp_character():
    # buildability does not depend on N: the search stops before the N loop
    with pytest.raises(QuadFieldError, match="with values in Z_p"):
        qf.admissible_params(-23, p=3, char_ell=2)
    with pytest.raises(QuadFieldError, match="with values in Z_p"):
        qf.admissible_params(-55, p=13, char_ell=2)
    assert qf.admissible_params(-55, p=31, char_ell=2) == (7, 31)
