"""Coefficient sequences, shift operators, and the residual verifiers.

The independent oracles here are the per-index theta coefficients from
heckechar, the reference divisor sum from padic, and brute-force lattice
enumeration in plain integers.  The residual sweeps themselves are the
package's purpose; the mutation tests check that they can actually fail.
"""

import json
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicheights.heights import (HeightContext, HeightError, _hf_sides,
                                  apply_UF, b_seq, bc_report, bc_residual,
                                  c_seq, crosscheck_report, fourier_am,
                                  height_fourier_residual, local_height_sum,
                                  uf_terms)
from padicheights.padic import PadicNumber, sigma_A
from padicheights.quadfield import QuadFieldError, class_norm


@pytest.fixture(scope="module")
def ctx21():
    return HeightContext(-7, 23, 11, 2, 1, n_prec=30)


@pytest.fixture(scope="module")
def ctx31():
    return HeightContext(-7, 23, 11, 3, 1, n_prec=30)


@pytest.fixture(scope="module")
def ctx32():
    return HeightContext(-7, 23, 11, 3, 2, n_prec=30)


@pytest.fixture(scope="module")
def ctx_big():
    return HeightContext(-7, 11, 23, 2, 1, n_prec=30)


@pytest.fixture(scope="module")
def ctx_h2():
    return HeightContext(-15, 17, 23, 2, 1, n_prec=30)


# ---------------------------------------------------------------------------
# context validation


class TestContextValidation:
    def test_bad_discriminant(self):
        with pytest.raises(QuadFieldError):
            HeightContext(-8, 11, 23, 2, 1)

    def test_level_too_small(self):
        with pytest.raises(HeightError, match="level"):
            HeightContext(-7, 2, 23, 2, 1)

    def test_weight_order(self):
        with pytest.raises(HeightError, match="0 < k < r"):
            HeightContext(-7, 11, 23, 1, 1)
        with pytest.raises(HeightError, match="0 < k < r"):
            HeightContext(-7, 11, 23, 2, 0)

    def test_p_must_be_odd_prime(self):
        with pytest.raises(HeightError, match="odd prime"):
            HeightContext(-7, 11, 2, 2, 1)
        with pytest.raises(HeightError, match="odd prime"):
            HeightContext(-7, 11, 15, 2, 1)

    def test_p_coprime_to_level_and_disc(self):
        with pytest.raises(HeightError, match="divide"):
            HeightContext(-7, 23, 23, 2, 1)
        with pytest.raises(HeightError, match="divide"):
            HeightContext(-7, 11, 7, 2, 1)

    def test_p_must_split(self):
        with pytest.raises(HeightError, match="split"):
            HeightContext(-7, 11, 5, 2, 1)

    def test_level_factors_must_split(self):
        # 3 is inert in Q(sqrt(-7))
        with pytest.raises(HeightError, match="level factor 3"):
            HeightContext(-7, 9, 11, 2, 1)

    def test_character_obstruction_reported(self):
        # no type-(2,0) character with values in Z_13 exists for h = 3
        with pytest.raises(HeightError, match="character unavailable"):
            HeightContext(-23, 3, 13, 2, 1)

    def test_target_precision_positive(self):
        with pytest.raises(HeightError, match="precision"):
            HeightContext(-7, 11, 23, 2, 1, n_prec=0)


def test_ledger_slack_zero(ctx21, ctx31, ctx32, ctx_big):
    # everything runs in integer residues mod p^W, so no step loses digits
    for ctx in (ctx21, ctx31, ctx32, ctx_big):
        assert ctx.slack == 0
        assert ctx.slack <= 2 * (ctx.r + ctx.k)
        led = ctx.ledger.to_json()
        assert led["total"] == 0
        assert {e["source"] for e in led["entries"]} >= {
            "weight polynomial denominator p-part",
            "binomial normalizer p-part"}


# ---------------------------------------------------------------------------
# theta bank against the per-index oracle


def test_bank_matches_theta_coefficients(ctx21):
    for m in (100, 101):
        md = m * 7
        for n in range(1, (md - 1) // 23 + 1):
            want = ctx21.chi.r_chi(0, md - 23 * n).residue(ctx21.W)
            assert ctx21.theta_residue(0, m, n) == want


def test_bank_matches_theta_coefficients_two_classes(ctx_h2):
    for ci in (0, 1):
        md = 50 * 15
        for n in range(1, (md - 1) // 17 + 1):
            want = ctx_h2.chi.r_chi(ci, md - 17 * n).residue(ctx_h2.W)
            assert ctx_h2.theta_residue(ci, 50, n) == want


def _brute_series(form, D, ell, m, aD, level):
    a, b, c = form
    md = m * aD
    smax = isqrt(4 * c * md // aD) + 1
    tmax = isqrt(4 * a * md // aD) + 1
    acc = {}
    for s in range(-smax, smax + 1):
        for t in range(-tmax, tmax + 1):
            q = a * s * s + b * s * t + c * t * t
            if 0 < q < md and (md - q) % level == 0:
                u, v = 2 * a * s + b * t, t
                if ell == 2:
                    U, V = u * u + D * v * v, 2 * u * v
                else:
                    U = u ** 4 + 6 * D * u * u * v * v + D * D * v ** 4
                    V = 4 * u * v * (u * u + D * v * v)
                n = (md - q) // level
                su, sv = acc.get(n, (0, 0))
                acc[n] = (su + U, sv + V)
    return {n: p for n, p in acc.items() if p != (0, 0)}


def test_strided_split_bank_vs_bruteforce():
    # tiny dense budget forces the per-index storage; the quartic weights at
    # this size overflow a single float64 word, forcing the 26-bit split
    ctx = HeightContext(-7, 23, 11, 3, 2, n_prec=30, dense_budget=1)
    m = 40_000
    ctx.prefetch([(0, m)])
    bank = ctx._bank(0)
    assert m in bank.per_m and bank.split
    ns, sus, svs = bank.series(m)
    want = _brute_series(ctx.group.forms[0], -7, 4, m, 7, 23)
    assert dict(zip(ns, zip(sus, svs))) == want


def test_strided_direct_bank_vs_bruteforce():
    ctx = HeightContext(-7, 23, 11, 2, 1, n_prec=30, dense_budget=1)
    m = 2000
    ctx.prefetch([(0, m)])
    bank = ctx._bank(0)
    assert m in bank.per_m and not bank.split
    ns, sus, svs = bank.series(m)
    want = _brute_series(ctx.group.forms[0], -7, 2, m, 7, 23)
    assert dict(zip(ns, zip(sus, svs))) == want


def test_scan_rejects_norms_past_float64_bound(ctx21):
    # the lattice count bound behind the exact float64 bins is proven only
    # for norms below 10^9; the request must fail before any allocation
    with pytest.raises(HeightError, match="exactness bound"):
        ctx21.prefetch([(0, 10 ** 9 // 7 + 1)])


def test_strided_equals_dense(ctx21):
    forced = HeightContext(-7, 23, 11, 2, 1, n_prec=30, dense_budget=1)
    forced.prefetch([(0, 1500)])
    ctx21.prefetch([(0, 1500)])
    assert 1500 in forced._bank(0).per_m
    assert 1500 * 7 <= ctx21._bank(0).dense_hi
    assert forced._bank(0).series(1500) == ctx21._bank(0).series(1500)


# ---------------------------------------------------------------------------
# divisor-sum fast path against the reference


def test_sigma_res_oracle(ctx21):
    na = class_norm(-7, 0)
    for n in (1, 2, 3, 4, 6, 11, 12, 30, 49, 77, 121, 720, 2310, 5040):
        want = sigma_A(-7, 23, na, n, 11, ctx21.W).residue(ctx21.W)
        assert ctx21.sigma_res(0, n) == want


def test_sigma_res_oracle_all_classes(ctx_h2):
    for ci in (0, 1):
        na = class_norm(-15, ci)
        for n in range(1, 80):
            want = sigma_A(-15, 17, na, n, 23, ctx_h2.W).residue(ctx_h2.W)
            assert ctx_h2.sigma_res(ci, n) == want


def test_sigma_value_wraps_residue(ctx21):
    v = ctx21.sigma_value(0, 33)
    assert v.residue(ctx21.W) == ctx21.sigma_res(0, 33)


# ---------------------------------------------------------------------------
# the B/C pair


def test_c_seq_empty_sum_is_zero(ctx21):
    # m|D| < N leaves no summation index at all
    for m in (1, 2, 3):
        v = c_seq(ctx21, 0, m)
        assert v.is_zero()
        assert v.valuation() >= ctx21.n_prec


def test_b_equals_c_when_range_below_p(ctx_big):
    # m|D|/N < p: no index divisible by p
    for m in (5, 12):
        assert (c_seq(ctx_big, 0, m) - b_seq(ctx_big, 0, m)).is_zero()


def test_c_minus_b_matches_direct_p_part(ctx21):
    # at m = 109 exactly one index in range is divisible by p = 11:
    # n = 33, with theta argument 109*7 - 33*23 = 4 (weight H is constant 1)
    d = c_seq(ctx21, 0, 109) - b_seq(ctx21, 0, 109)
    direct = ctx21.chi.r_chi(0, 4) * sigma_A(-7, 23, class_norm(-7, 0), 33,
                                             11, ctx21.W)
    assert not d.is_zero()
    assert (d - direct).is_zero()


def test_m_must_be_positive(ctx21):
    with pytest.raises(HeightError, match="positive"):
        c_seq(ctx21, 0, 0)


def test_recomputation_bit_exact(ctx21):
    a = c_seq(ctx21, 0, 109)
    fresh = HeightContext(-7, 23, 11, 2, 1, n_prec=30)
    b = c_seq(fresh, 0, 109)
    assert (a.val, a.unit, a.prec) == (b.val, b.unit, b.prec)


# ---------------------------------------------------------------------------
# operator expansion


def test_uf_quartic_expansion_h1(ctx_big):
    # h = 1: all class shifts trivial; compare against the elementary
    # expansion of (x - c a)^2 (x - c b)^2 with c = p^(r-k-1)
    terms = uf_terms(ctx_big)
    assert [(du, sh) for _, du, sh in terms] == [(i, 0) for i in range(5)]
    a = ctx_big.chiP.residue(ctx_big.W)
    b = ctx_big.chiPb.residue(ctx_big.W)
    cf = ctx_big.p ** ctx_big.m_H
    want = {4: 1,
            3: -2 * cf * (a + b),
            2: cf ** 2 * (a * a + b * b + 4 * a * b),
            1: -2 * cf ** 3 * a * b * (a + b),
            0: cf ** 4 * a * a * b * b}
    mod = ctx_big.p ** 30
    for coef, du, _ in terms:
        assert coef.residue(30) == want[du] % mod


def test_shift_action_is_class_multiplication(ctx_h2):
    g = ctx_h2.group
    assert g.mult(ctx_h2.cP, ctx_h2.cPb) == g.identity
    dus = sorted({du for _, du, _ in uf_terms(ctx_h2)})
    assert dus == [0, 1, 2, 3, 4]


def test_apply_uf_zero_sequence(ctx21):
    z = apply_UF(ctx21, lambda ci, m: PadicNumber.zero(11, ctx21.W), 0, 3)
    assert z.is_zero()


def test_apply_uf_linearity(ctx_h2):
    W = ctx_h2.W

    def s1(ci, m):
        return PadicNumber(23, 0, (ci + 1) * m * m + 3, W)

    def s2(ci, m):
        return PadicNumber(23, 0, 7 * m + ci + 1, W)

    tot = apply_UF(ctx_h2, lambda ci, m: s1(ci, m) + s2(ci, m), 1, 4)
    split = apply_UF(ctx_h2, s1, 1, 4) + apply_UF(ctx_h2, s2, 1, 4)
    assert (tot - split).is_zero()


@given(st.integers(min_value=1, max_value=23 ** 12),
       st.integers(min_value=1, max_value=23 ** 12))
@settings(max_examples=15, deadline=None)
def test_apply_uf_additive_random(ctx_h2, u1, u2):
    W = ctx_h2.W

    def s1(ci, m):
        return PadicNumber(23, 0, u1 * (ci + 1) + m, W)

    def s2(ci, m):
        return PadicNumber(23, 0, u2 + m * m * (ci + 2), W)

    tot = apply_UF(ctx_h2, lambda ci, m: s1(ci, m) + s2(ci, m), 0, 2)
    split = apply_UF(ctx_h2, s1, 0, 2) + apply_UF(ctx_h2, s2, 0, 2)
    assert (tot - split).is_zero()


def test_index_and_shift_operators_commute(ctx_h2):
    g = ctx_h2.group

    def seq(ci, m):
        return PadicNumber(23, 0, (ci + 2) ** 3 + m, ctx_h2.W)

    def op_u(s):
        return lambda ci, m: s(ci, m * 23)

    def op_sp(s):
        return lambda ci, m: s(g.mult(ci, ctx_h2.cP), m)

    lhs, rhs = op_u(op_sp(seq)), op_sp(op_u(seq))
    for ci in range(ctx_h2.h):
        for m in (1, 2, 5):
            assert (lhs(ci, m) - rhs(ci, m)).is_zero()


# ---------------------------------------------------------------------------
# the operator identity


def test_bc_residuals_certify(ctx21, ctx31, ctx32):
    for ctx in (ctx21, ctx31, ctx32):
        thr = ctx.n_prec - ctx.slack
        for m in range(1, 5):
            assert bc_residual(ctx, 0, m) >= thr


def test_bc_residuals_large_p(ctx_big):
    rep = bc_report(ctx_big, 2)
    assert rep["pass"] is True
    assert [row["m"] for row in rep["results"]] == [1, 2]
    for row in rep["results"]:
        assert row["residual"] >= rep["threshold"] == 30


def test_bc_residuals_both_classes(ctx_h2):
    for ci in (0, 1):
        assert bc_residual(ctx_h2, ci, 1) == 30


def test_bc_residual_twisted_character():
    # the identity holds for any unramified character of the right type,
    # so twisting by a class-group character must not break it
    ctx = HeightContext(-15, 17, 23, 2, 1, n_prec=30, twist=(1,))
    assert bc_residual(ctx, 0, 1) == 30
    assert bc_residual(ctx, 1, 1) == 30


def test_mutations_break_residual(ctx31):
    thr = ctx31.n_prec - ctx31.slack
    for mu in ("h_plus_one", "chi_perturb", "drop_euler_square"):
        assert bc_residual(ctx31, 0, 1, mutate=mu) < thr, mu


def test_h_plus_one_invisible_at_degree_zero(ctx21):
    # r - k - 1 = 0 makes the weight fault a uniform rescaling of a linear
    # identity; it is detectable only at degree >= 1 (see the ledger)
    assert bc_residual(ctx21, 0, 1, mutate="h_plus_one") == 30


def test_bc_report_shape_and_determinism(ctx31):
    r1 = bc_report(ctx31, 3)
    r2 = bc_report(HeightContext(-7, 23, 11, 3, 1, n_prec=30), 3)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["pass"] is True
    assert r1["threshold"] == 30
    assert r1["slack"]["total"] == 0
    assert [(row["class"], row["m"]) for row in r1["results"]] == [
        (0, 1), (0, 2), (0, 3)]
    mut = bc_report(ctx31, 1, mutate="chi_perturb")
    assert mut["pass"] is False and mut["mutation"] == "chi_perturb"


# ---------------------------------------------------------------------------
# Fourier coefficients


def test_fourier_requires_p_dividing_m(ctx21):
    with pytest.raises(HeightError, match=r"p \| m"):
        fourier_am(ctx21, 0, 7)


def test_fourier_zero_weight_gives_zero(ctx21):
    z = fourier_am(ctx21, 0, 11, lam=lambda x: PadicNumber.zero(11))
    assert z.is_zero()


def test_fourier_two_paths_agree(ctx21, ctx32):
    # class number 1, 3 and 4: the slow log_p divisor-sum oracle against the
    # banked B sequence, over every class
    h3 = HeightContext(-31, 7, 5, 2, 1, n_prec=30)
    h4 = HeightContext(-55, 13, 7, 2, 1, n_prec=30)
    cases = ((ctx21, (11, 22)), (ctx32, (11,)), (h3, (5, 10)), (h4, (7,)))
    for ctx, ms in cases:
        for ci in range(ctx.h):
            for m in ms:
                base = fourier_am(ctx, ci, m)
                banked = fourier_am(ctx, ci, m, fast=True)
                assert (base - banked).is_zero()
                assert not base.is_zero()


def test_fourier_concrete_value_stable(ctx_big):
    a30 = fourier_am(ctx_big, 0, 23)
    ctx20 = HeightContext(-7, 11, 23, 2, 1, n_prec=20)
    a20 = fourier_am(ctx20, 0, 23)
    assert not a30.is_zero()
    assert a30.residue(25) == a20.residue(25)


# ---------------------------------------------------------------------------
# local height coefficient sum


def test_local_height_hypothesis_errors(ctx21):
    with pytest.raises(HeightError, match="gcd"):
        local_height_sum(ctx21, 0, 23)
    with pytest.raises(HeightError, match="r_A"):
        local_height_sum(ctx21, 0, 2)


def test_local_height_two_paths(ctx21):
    # 5, 13, 41 are inert in Q(sqrt(-7)) and coprime to the level
    for m in (5, 13, 41):
        direct = local_height_sum(ctx21, 0, m, fast=False)
        banked = local_height_sum(ctx21, 0, m, fast=True)
        assert (direct - banked).is_zero()
    assert not local_height_sum(ctx21, 0, 13, fast=False).is_zero()


# ---------------------------------------------------------------------------
# the height/Fourier cross identity


def test_height_fourier_certifies(ctx21, ctx32):
    assert height_fourier_residual(ctx21, 0, 33) == 30
    assert height_fourier_residual(ctx32, 0, 33) == 30


def test_height_fourier_hypothesis_errors(ctx21):
    with pytest.raises(HeightError, match=r"p \| m"):
        height_fourier_residual(ctx21, 0, 3)
    with pytest.raises(HeightError, match="gcd"):
        height_fourier_residual(ctx21, 0, 11 * 23)
    with pytest.raises(HeightError, match="r_A"):
        height_fourier_residual(ctx21, 0, 11)


def test_crosscheck_report_passes(ctx21):
    rep = crosscheck_report(ctx21, 0, 33)
    assert rep["pass"] is True
    assert rep["residual"] == 30
    assert "sign_flip_residual" not in rep
    assert rep["slack"]["total"] == 0


def test_crosscheck_detects_constant_faults(ctx21):
    # doubling the closed-form constant, or flipping its sign, must both
    # destroy the residual; this pins the normalization, not just the shape
    lhs, rhs = _hf_sides(ctx21, 0, 33)
    thr = ctx21.n_prec - ctx21.slack
    assert min((lhs - rhs * 2).valuation(), 30) < thr
    assert min((lhs + rhs).valuation(), 30) < thr
