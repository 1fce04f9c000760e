"""Hecke character tables, their theta coefficients, and the lattice oracle."""

import hashlib
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicheights.heckechar import (CharBuildError, _residue_root,
                                    build_char, lattice_theta_coeffs,
                                    theta_coeffs)
from padicheights.quadfield import (KElem, class_index_of_ideal,
                                    count_rA, discriminant_factorizations,
                                    element_in_ideal, ideal_conj, ideal_mult,
                                    ideal_norm, ideal_of_form, ideals_of_norm,
                                    primitive_ideals_of_norm, unit_ideal)


@lru_cache(maxsize=None)
def char(D, ell, mode, p=None, prec=None, twist=None):
    return build_char(D, ell, mode, p=p, prec=prec, twist=twist)


# ---------------------------------------------------------------------------
# construction and error paths

def test_build_rejects_bad_infinity_type():
    for ell in (0, -2, 1, 3):
        with pytest.raises(CharBuildError):
            build_char(-7, ell, "exact")


def test_build_rejects_unknown_mode():
    with pytest.raises(CharBuildError):
        build_char(-7, 2, "float")


def test_exact_mode_needs_class_number_one():
    with pytest.raises(CharBuildError, match="class number 1"):
        build_char(-23, 2, "exact")


def test_padic_mode_validates_p():
    with pytest.raises(CharBuildError):
        build_char(-7, 2, "padic")            # p missing
    with pytest.raises(CharBuildError):
        build_char(-7, 2, "padic", p=2)
    with pytest.raises(CharBuildError):
        build_char(-7, 2, "padic", p=9)       # not prime
    with pytest.raises(CharBuildError, match="split"):
        build_char(-7, 2, "padic", p=5)       # inert


def test_padic_obstruction_is_reported():
    # the order-3 generator target has no cube root mod 13, not even in the
    # quadratic extension
    with pytest.raises(CharBuildError, match="X\\^3"):
        build_char(-23, 2, "padic", p=13, prec=8)


def test_twist_length_checked():
    with pytest.raises(CharBuildError, match="twist"):
        build_char(-15, 2, "padic", p=23, twist=(1, 0))


def test_build_is_deterministic():
    a = build_char(-23, 2, "padic", p=29, prec=10)
    b = build_char(-23, 2, "padic", p=29, prec=10)
    assert a.audit == b.audit
    assert all(a.chi_value(ideal_of_form(-23, f))
               == b.chi_value(ideal_of_form(-23, f)) for f in a.group.forms)
    c1 = build_char(-23, 2, "complex")
    c2 = build_char(-23, 2, "complex")
    assert c1.audit == c2.audit


# (audit, str(s_D)) of every padic build_char of the sweep below, or the
# message it was refused with, hashed in order; recorded when characters
# with values off Z_p began to be refused, which left the other 2584 lines
# unchanged
_CHAR_SWEEP_SHA256 = (
    "4430155a10a47925545b0878df5c605d3b9c3f2ae500bcad9c5111a7d7764383")

_OFF_ZP = "hypothesis chi takes values in Z_p fails: at p = "


def test_build_char_sweep_is_pinned():
    # 2730 cases, 146 of them refused as extension-valued
    h = hashlib.sha256()
    cases = ext = 0
    for D in (-7, -15, -23, -31, -39, -47, -51, -55, -59, -71, -87, -95,
              -143, -195):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
            for ell in (2, 4, 6):
                for twist in (None, (1,), (2,), (3,), (1, 1)):
                    try:
                        ch = build_char(D, ell, "padic", p=p, prec=40,
                                        twist=twist)
                        out = (ch.audit, str(ch.s_D))
                    except ValueError as e:
                        out = (type(e).__name__, str(e))
                        ext += str(e).startswith(_OFF_ZP)
                    cases += 1
                    h.update(repr(((D, p, ell, twist), out)).encode())
    assert (cases, ext) == (2730, 146)
    assert h.hexdigest() == _CHAR_SWEEP_SHA256


def _fp2_roots(p, d):
    """Oracle: the roots of X^d = a in F_{p^2} = F_p(s), s^2 = c for the
    smallest nonresidue c, by enumeration; a -> the roots in F_p, sorted,
    then the roots off F_p as sorted pairs (x, y) for x + y s."""
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    roots = {a: [] for a in range(1, p)}
    for x, y in sorted((x, y) for x in range(p) for y in range(p)):
        u, v = 1, 0
        for _ in range(d):
            u, v = (u * x + c * v * y) % p, (u * y + v * x) % p
        if u and not v:
            roots[u].append((x, y))
    return {a: sorted(r, key=lambda xy: (xy[1] != 0, xy))
            for a, r in roots.items()}


def test_residue_root_matches_fp2_enumeration():
    # the pick among the enumerated roots: in F_p alone at twist 0 when
    # there is one, else among all; 0 marks a pick off F_p
    cases = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
        for d in range(1, 13):
            for a, roots in _fp2_roots(p, d).items():
                ground = [r for r in roots if not r[1]]
                for twist in range(13):
                    listed = ground if ground and not twist else roots
                    want = None
                    if listed:
                        x, y = listed[twist % len(listed)]
                        want = 0 if y else x
                    assert _residue_root(p, a, d, twist) == want, (p, a, d,
                                                                   twist)
                    cases += 1
    assert cases == 65832


def test_complex_root_verifies_cube():
    ch = char(-23, 2, "complex")
    (gen_ideal, root, _), = ch._gen_roots
    from padicheights.quadfield import ideal_pow, principal_generator
    alpha = principal_generator(-23, ideal_pow(-23, gen_ideal, 3))
    with mpmath.workdps(ch.prec):
        assert ch.close(root ** 3, ch.embed(alpha) ** 2, scale=4)


# ---------------------------------------------------------------------------
# chi values on ideals

def test_unit_ideal_value():
    for ch in (char(-7, 2, "exact"), char(-23, 2, "complex"),
               char(-23, 2, "padic", 29, 12)):
        v = ch.chi_value(unit_ideal(ch.D))
        assert ch.close(v, 1)


def test_principal_norm_two_value():
    # the ideal containing (1 + sqrt(-7))/2 maps to its generator squared
    ch = char(-7, 2, "exact")
    g = KElem(-7, Fraction(1, 2), Fraction(1, 2))
    ideal = next(i for i, _ in ideals_of_norm(-7, 2)
                 if element_in_ideal(-7, i, g))
    assert ch.chi_value(ideal) == KElem(-7, Fraction(-3, 2), Fraction(1, 2))


def test_chi_of_sqrtD_ideal_is_D_to_k():
    cases = [char(-7, 2, "exact"), char(-7, 4, "exact"),
             char(-15, 2, "padic", 23, 12), char(-23, 2, "padic", 29, 12),
             char(-23, 2, "complex"), char(-23, 4, "complex")]
    for ch in cases:
        dk = ch.D ** ch.k
        v = ch.chi_value(primitive_ideals_of_norm(ch.D, abs(ch.D))[0])
        assert ch.close(v, ch.embed(KElem(ch.D, dk, 0)), scale=abs(dk))


def test_conjugate_pair_multiplies_to_norm_power():
    for ch in (char(-7, 2, "exact"), char(-15, 2, "padic", 23, 12),
               char(-23, 2, "padic", 29, 12), char(-23, 4, "complex")):
        with ch._ctx():
            for n in (2, 3, 4, 9, 11):
                for ideal, _ in ideals_of_norm(ch.D, n):
                    lhs = ch.chi_value(ideal) * ch.chi_value(ideal_conj(ch.D, ideal))
                    assert ch.close(lhs, ch.embed(KElem(ch.D, n ** ch.ell, 0)),
                                    scale=n ** ch.ell)


def test_ideal_multiplicativity():
    for ch in (char(-15, 2, "padic", 23, 14), char(-23, 2, "padic", 29, 14),
               char(-23, 2, "complex")):
        D = ch.D
        reps = [ideal_of_form(D, f) for f in ch.group.forms]
        pool = reps + [i for n in (2, 3, 4, 6) for i, _ in ideals_of_norm(D, n)]
        with ch._ctx():
            for i1 in pool:
                for i2 in pool:
                    lhs = ch.chi_value(i1) * ch.chi_value(i2)
                    rhs = ch.chi_value(ideal_mult(D, i1, i2))
                    n1, n2 = ideal_norm(i1), ideal_norm(i2)
                    assert ch.close(lhs, rhs, scale=(n1 * n2) ** ch.k)


@settings(max_examples=40, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.booleans())
def test_principal_ideals_take_generator_powers(u, v, half):
    # chi((gamma)) = gamma^ell independent of the class decomposition path
    ch = char(-23, 2, "padic", 29, 14)
    if half:
        if (u - v) % 2:
            v += 1
        g = KElem(-23, Fraction(u, 2), Fraction(v, 2))
    else:
        g = KElem(-23, u, v)
    n = g.norm()
    if n == 0 or n > 4000:
        return
    candidates = [i for i, _ in ideals_of_norm(-23, int(n))
                  if element_in_ideal(-23, i, g)]
    assert len(candidates) == 1
    assert ch.chi_value(candidates[0]) == ch.embed(g) ** ch.ell


# ---------------------------------------------------------------------------
# theta coefficients

def test_r_chi_frozen_values():
    ch = char(-7, 2, "exact")
    assert ch.r_chi(0, 1) == KElem(-7, 1, 0)
    assert ch.r_chi(0, 2) == KElem(-7, -3, 0)   # 2 * (1/4 - 7/4)
    assert ch.r_chi(0, 3) == KElem(-7, 0, 0)    # 3 inert
    assert theta_coeffs(ch, 0, 4) == [
        KElem(-7, 1, 0), KElem(-7, -3, 0), KElem(-7, 0, 0), KElem(-7, 5, 0)]


def test_r_chi_outside_positive_integers_is_zero():
    ch = char(-7, 2, "exact")
    for t in (0, -1, Fraction(1, 2), Fraction(22, 7)):
        assert ch.r_chi(0, t) == KElem(-7, 0, 0)


def test_theta_bound_one_per_class():
    ch = char(-23, 2, "complex")
    with ch._ctx():
        assert ch.close(theta_coeffs(ch, 0, 1)[0], 1)
        for ci in (1, 2):
            assert ch.close(theta_coeffs(ch, ci, 1)[0], ch.zero())


def test_conjugate_series_complex():
    ch = char(-23, 2, "complex")
    # the character table of the conjugate classes gives conjugate series
    G = ch.group
    with ch._ctx():
        for ci in range(G.h):
            for n in range(1, 40):
                a = ch.r_chi(ci, n)
                b = ch.r_chi(G.inv(ci), n)
                assert ch.close(a, mpmath.conj(b), scale=n)


def test_theta_bound_below_one_is_refused():
    with pytest.raises(ValueError):
        theta_coeffs(char(-7, 2, "exact"), 0, 0)
    with pytest.raises(ValueError):
        lattice_theta_coeffs(char(-7, 2, "exact"), (1, 1, 1), 0)


# ---------------------------------------------------------------------------
# the lattice enumeration oracle

def test_lattice_norm_two_enumeration():
    ch = char(-7, 2, "exact")
    lat = lattice_theta_coeffs(ch, unit_ideal(-7), 2)
    assert lat[1] == KElem(-7, -6, 0)     # four points, paired sum


def test_lattice_equals_twice_r_chi():
    # every class, both weights, three fields; unit count w = 2
    for D, mode in ((-7, "exact"), (-11, "exact"), (-23, "complex")):
        for ell in (2, 4):
            ch = char(D, ell, mode)
            G = ch.group
            with ch._ctx():
                for ci in range(G.h):
                    lat = lattice_theta_coeffs(ch, ideal_of_form(D, G.forms[ci]), 120)
                    rc = theta_coeffs(ch, ci, 120)
                    for n in range(1, 121):
                        assert ch.close(lat[n - 1], rc[n - 1] * 2,
                                        scale=2 * n ** (ell // 2) * 8), (D, ell, ci, n)


def test_lattice_identity_padic_modes():
    for ch in (char(-15, 2, "padic", 17, 12), char(-23, 2, "padic", 29, 12),
               char(-23, 4, "padic", 29, 12)):
        G = ch.group
        for ci in range(G.h):
            lat = lattice_theta_coeffs(ch, ideal_of_form(ch.D, G.forms[ci]), 60)
            for n in range(1, 61):
                assert lat[n - 1] == ch.r_chi(ci, n) * 2


def test_lattice_invariant_under_representative_choice():
    ch = char(-23, 2, "complex")
    # replace the class representative by a non-reduced ideal in the class
    base = ideal_of_form(-23, ch.group.forms[1])
    other = ideal_mult(-23, base, next(
        i for i, ci in ideals_of_norm(-23, 4) if ci == ch.group.identity))
    assert class_index_of_ideal(-23, other) == 1 and other != base
    with ch._ctx():
        a = lattice_theta_coeffs(ch, base, 60)
        b = lattice_theta_coeffs(ch, other, 60)
        for n in range(1, 61):
            assert ch.close(a[n - 1], b[n - 1], scale=n)


def test_extension_valued_char_is_refused():
    # order-4 generator, p = 5: the fourth root lives outside Z_5
    with pytest.raises(CharBuildError) as e:
        build_char(-39, 2, "padic", p=5, prec=10)
    assert str(e.value) == (
        "hypothesis chi takes values in Z_p fails: at p = 5 the character "
        "needs the quadratic extension")


def test_triangle_bound_complex():
    ch = char(-23, 2, "complex")
    with ch._ctx():
        for ci in range(3):
            for n in range(1, 200):
                v = abs(ch.r_chi(ci, n))
                assert v <= n ** ch.k * count_rA(-23, ci, n) + mpmath.mpf(10) ** -20


# ---------------------------------------------------------------------------
# genus decomposition of coefficients

def genus_cases(ch, j_bound):
    D = ch.D
    G = ch.group
    with ch._ctx():
        for D1, D2 in discriminant_factorizations(D):
            r1, r2 = (primitive_ideals_of_norm(D, abs(Di))[0]
                      for Di in (D1, D2))
            c1 = class_index_of_ideal(D, r1)
            chi2 = ch.chi_value(r2)
            inv2 = 1 / chi2 if ch.mode == "complex" else chi2.inv()
            for A in range(G.h):
                shifted = G.mult(A, G.inv(c1))
                for j in range(1, j_bound + 1):
                    lhs = ch.r_chi(shifted, j)
                    rhs = inv2 * ch.r_chi(A, j * abs(D2))
                    yield lhs, rhs, (j * abs(D2)) ** ch.k * 8


def test_genus_relation_split_discriminant():
    ch = char(-15, 2, "complex")
    for lhs, rhs, scale in genus_cases(ch, 60):
        assert ch.close(lhs, rhs, scale=scale)


def test_genus_relation_prime_discriminant():
    ch = char(-23, 2, "complex")
    for lhs, rhs, scale in genus_cases(ch, 60):
        assert ch.close(lhs, rhs, scale=scale)


def test_genus_relation_padic():
    for ch in (char(-15, 2, "padic", 17, 12), char(-23, 2, "padic", 29, 12)):
        for lhs, rhs, scale in genus_cases(ch, 30):
            assert lhs == rhs


# ---------------------------------------------------------------------------
# Hecke shift relations at a split prime

def hecke_pair(ch, A, m, p):
    """LHS/RHS pairs for the degree-p and degree-p^2 shift relations."""
    D = ch.D
    G = ch.group
    P = primitive_ideals_of_norm(D, p)[0]
    Pb = ideal_conj(D, P)
    cP = class_index_of_ideal(D, P)
    cPb = class_index_of_ideal(D, Pb)
    with ch._ctx():
        chiP = ch.chi_value(P)
        chiPb = ch.chi_value(Pb)
        out = []
        lhs = ch.r_chi(A, m * p) + ch.r_chi(A, Fraction(m, p)) * (p ** ch.ell)
        rhs = (chiPb * ch.r_chi(G.mult(A, cP), m)
               + chiP * ch.r_chi(G.mult(A, cPb), m))
        out.append((lhs, rhs))
        rhs2 = (chiPb ** 2 * ch.r_chi(G.mult(A, G.pow(cP, 2)), m)
                + chiP ** 2 * ch.r_chi(G.mult(A, G.pow(cPb, 2)), m))
        if m % p == 0:
            lhs2 = (ch.r_chi(A, m * p * p)
                    + ch.r_chi(A, Fraction(m, p * p)) * (p ** (2 * ch.ell)))
        else:
            lhs2 = ch.r_chi(A, m * p * p) - ch.r_chi(A, m) * (p ** ch.ell)
        out.append((lhs2, rhs2))
        return out


@pytest.mark.parametrize("D,mode,p,kw", [
    (-7, "exact", 11, {}),
    (-15, "padic", 17, {"p": 17, "prec": 14}),
    (-23, "complex", 3, {}),
])
def test_hecke_shift_relations(D, mode, p, kw):
    ch = char(D, 2, mode, kw.get("p"), kw.get("prec"))
    G = ch.group
    for A in range(G.h):
        for m in list(range(1, 41)) + [p, 2 * p, p * p, 3 * p * p]:
            for lhs, rhs in hecke_pair(ch, A, m, p):
                assert ch.close(lhs, rhs, scale=(m * p * p) ** ch.k * 12), (A, m)


def test_hecke_shift_relations_h3_padic():
    ch = char(-23, 2, "padic", 29, 12)
    for A in range(3):
        for m in list(range(1, 21)) + [29, 58]:
            for lhs, rhs in hecke_pair(ch, A, m, 29):
                assert lhs == rhs, (A, m)


# ---------------------------------------------------------------------------
# twists

def test_twist_flips_order_two_root():
    base = char(-15, 2, "padic", 23, 12)
    tw = char(-15, 2, "padic", 23, 12, twist=(1,))
    r0 = base._gen_roots[0][1]
    r1 = tw._gen_roots[0][1]
    assert r0 == -r1 and not (r0 == r1)
    assert base.audit[0]["twist"] == 0 and tw.audit[0]["twist"] == 1


def test_twisted_char_still_a_character():
    tw = char(-15, 2, "padic", 23, 12, twist=(1,))
    G = tw.group
    for ci in range(G.h):
        lat = lattice_theta_coeffs(tw, ideal_of_form(-15, G.forms[ci]), 40)
        for n in range(1, 41):
            assert lat[n - 1] == tw.r_chi(ci, n) * 2
    for lhs, rhs in hecke_pair(tw, 0, 17, 17):
        assert lhs == rhs


def test_complex_twist_rotates_root():
    base = char(-23, 2, "complex")
    tw = char(-23, 2, "complex", twist=(1,))
    with mpmath.workdps(base.prec):
        zeta = mpmath.expjpi(mpmath.mpf(2) / 3)
        assert abs(base._gen_roots[0][1] * zeta - tw._gen_roots[0][1]) < 1e-30


# ---------------------------------------------------------------------------
# the embedding and the distinguished prime

def test_prime_above_matches_embedding():
    for D, p in ((-7, 11), (-7, 23), (-15, 17), (-23, 29), (-15, 23)):
        ch = char(D, 2, "padic", p, 12)
        e, a, b = ch.prime_above
        assert (e, a) == (1, p) and ideal_norm(ch.prime_above) == p
        # omega = (-b + sqrt(D))/2 embeds with positive valuation
        omega = KElem(D, Fraction(-b, 2), Fraction(1, 2))
        v = ch.embed(omega)
        assert v.valuation() >= 1
        # and the conjugate prime embeds as a unit
        omega_bar = KElem(D, Fraction(-b, 2), Fraction(-1, 2))
        assert ch.embed(omega_bar).valuation() == 0


def test_chi_valuations_at_prime_above():
    ch = char(-7, 2, "padic", 11, 12)
    P = ch.prime_above
    assert ch.chi_value(P).valuation() == ch.ell
    assert ch.chi_value(ideal_conj(-7, P)).valuation() == 0
