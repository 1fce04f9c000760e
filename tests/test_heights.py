"""Coefficient sequences, shift operators, and the residual verifiers.

The independent oracles here are the per-index theta coefficients from
heckechar, the reference divisor sum from padic, and brute-force lattice
enumeration in plain integers.  The residual sweeps themselves are the
package's purpose; test_faults.py implants faults to check that they can
actually fail.
"""

import json
import random
import tracemalloc
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicheights import heights
from padicheights.heights import (HeightContext, HeightError, _Cosets,
                                  _hf_sides, apply_UF, b_seq, bc_report,
                                  bc_residual, c_seq, crosscheck_report,
                                  fourier_am, fourier_am_direct,
                                  local_height_sum, local_height_sum_direct,
                                  uf_terms)
from padicheights.padic import PadicNumber, sigma_A
from padicheights.quadfield import (QuadFieldError, admissible_params,
                                   class_norm, discriminant_factorizations,
                                   isprime, kronecker, reduced_forms)


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
        got = _theta_residues(ctx21, 0, m)
        for n in range(1, (md - 1) // 23 + 1):
            want = ctx21.chi.r_chi(0, md - 23 * n).residue(ctx21.W)
            assert got.get(n, 0) == want


def test_bank_matches_theta_coefficients_two_classes(ctx_h2):
    for ci in (0, 1):
        md = 50 * 15
        got = _theta_residues(ctx_h2, ci, 50)
        for n in range(1, (md - 1) // 17 + 1):
            want = ctx_h2.chi.r_chi(ci, md - 17 * n).residue(ctx_h2.W)
            assert got.get(n, 0) == want


def test_theta_residue_mirror_classes():
    # classes 1 and 2 of D = -31 are inverse: class 2 reads class 1's bank
    ctx = HeightContext(-31, 7, 5, 2, 1, n_prec=30)
    assert ctx._bank_of[2] == (1, -1)
    for ci in (1, 2):
        for m in (20, 21):
            md = m * 31
            got = _theta_residues(ctx, ci, m)
            for n in range(1, (md - 1) // 7 + 1):
                want = ctx.chi.r_chi(ci, md - 7 * n).residue(ctx.W)
                assert got.get(n, 0) == want, (ci, m, n)
    assert list(ctx._banks) == [1]


def _exact(digits):
    """The python ints sum_i digits[i] 2^(16 i) of one sum's digit rows."""
    return [sum(x << 16 * i for i, x in enumerate(col))
            for col in zip(*digits.tolist())]


def _series(bank, m):
    """bank.series(m) with its chunks concatenated; each chunk must be
    non-empty, its digits int16 and the n strictly increasing."""
    ns, sus, svs = [], [], []
    for chunk_ns, digits in bank.series(m):
        assert chunk_ns.size and digits.dtype == np.int16
        ns.extend(chunk_ns.tolist())
        sus.extend(_exact(digits[0]))
        svs.extend(_exact(digits[1]))
    assert all(a < b for a, b in zip(ns, ns[1:]))
    return ns, sus, svs


def _class_series(ctx, ci, m):
    """Class ci's own series: its inverse pair's bank, with SUM V negated
    when ci is not the class the bank was scanned for."""
    ns, sus, svs = _series(ctx._bank(ci), m)
    sign = ctx._bank_of[ci][1]
    return ns, sus, [sign * sv for sv in svs]


def _digit_counts(bank):
    """{rho: the number of digits the bank stores per sum of residue rho}."""
    return {rho: digits.shape[1] for rho, (_, digits) in bank.arrays.items()}


def _theta_residue(ctx, ci, su, sv):
    """r_chi mod p^W from class ci's exact sums, as _cb weighs them:
    (SUM U + SUM V shat) times the class theta constant."""
    return (su + sv * ctx.shat) * ctx._class_theta_const(ci) % ctx.pW


def _theta_residues(ctx, ci, m):
    """{n: r_chi(class ci, m|D| - nN) mod p^W} over the n of class ci's
    series for index m (r_chi is 0 at every other n)."""
    ctx.prefetch([(ci, m)])
    return {n: _theta_residue(ctx, ci, su, sv)
            for n, su, sv in zip(*_class_series(ctx, ci, m))}


@pytest.fixture
def split_bound(monkeypatch):
    """A check that the largest weight bound of the scans so far lies in
    [2^51, 2^62): its weights take four digits, and they are still int64."""
    bounds = []
    real = heights._weight_bound

    def recording(*args):
        out = real(*args)
        bounds.append(max(out))
        return out

    monkeypatch.setattr(heights, "_weight_bound", recording)
    return lambda: 1 << 51 <= max(bounds) < 1 << 62


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
                U, V = _expand(2 * a * s + b * t, t, D, ell)
                n = (md - q) // level
                su, sv = acc.get(n, (0, 0))
                acc[n] = (su + U, sv + V)
    return {n: p for n, p in acc.items() if p != (0, 0)}


def test_strided_split_bank_vs_bruteforce(split_bound):
    # the sextic weights at this size take four digits, and so do the sums
    ctx = HeightContext(-7, 23, 11, 4, 3, n_prec=30)
    m = 2000
    ctx.prefetch([(0, m)])
    bank = ctx._bank(0)
    assert _digit_counts(bank) == {16: 4} and split_bound()
    ns, sus, svs = _series(bank, m)
    want = _brute_series(ctx.group.forms[0], -7, 6, m, 7, 23)
    assert dict(zip(ns, zip(sus, svs))) == want


def test_strided_direct_bank_vs_bruteforce():
    ctx = HeightContext(-7, 23, 11, 2, 1, n_prec=30)
    m = 2000
    ctx.prefetch([(0, m)])
    bank = ctx._bank(0)
    assert _digit_counts(bank) == {16: 2}
    ns, sus, svs = _series(bank, m)
    want = _brute_series(ctx.group.forms[0], -7, 2, m, 7, 23)
    assert dict(zip(ns, zip(sus, svs))) == want


def test_strided_wide_bank_vs_bruteforce():
    # the ell = 14 weight bound passes 2^67 (five digits), so the weights
    # are computed in python ints
    ctx = HeightContext(-7, 23, 11, 8, 7, n_prec=30)
    m = 60
    ctx.prefetch([(0, m)])
    bank = ctx._bank(0)
    assert _digit_counts(bank) == {6: 5}
    ns, sus, svs = _series(bank, m)
    want = _brute_series(ctx.group.forms[0], -7, 14, m, 7, 23)
    assert dict(zip(ns, zip(sus, svs))) == want


def _expand(u, v, D, ell):
    """(U, V) with (u + v sqrt(D))^ell = U + V sqrt(D), in python ints."""
    terms = [comb(ell, j) * u ** (ell - j) * v ** j * D ** (j // 2)
             for j in range(ell + 1)]
    return sum(terms[0::2]), sum(terms[1::2])


@pytest.mark.parametrize("D", (-7, -23, -55, -195))
def test_weights_exact_up_to_the_bound(D):
    # _weights against the binomial expansion, on points whose weight bound
    # is just under the 2^62 below which _ThetaBank._scan runs it on int64,
    # corners included; past the bound, on python ints
    rng = random.Random(D)
    for ell in (2, 4, 6, 8, 10):
        for ratio in (1, 16):

            def bound(umax):
                return max(heights._weight_bound(
                    umax, max(1, umax // ratio), D, ell))

            lo, hi = 1, 1 << 31         # bound(lo) < 2^62 <= bound(hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if bound(mid) < 1 << 62 else (lo, mid)
            umax, vmax = lo, max(1, lo // ratio)
            assert bound(umax) < 1 << 62 <= bound(umax + 1)
            pts = [(su * umax, sv * vmax) for su in (1, -1) for sv in (1, -1)]
            pts += [(rng.randint(-umax, umax), rng.randint(-vmax, vmax))
                    for _ in range(200)]
            u = np.array([a for a, _ in pts], dtype=np.int64)
            v = np.array([b for _, b in pts], dtype=np.int64)
            U, V = heights._weights(u, v, D, ell)
            assert U.dtype == V.dtype == np.int64
            assert list(zip(U.tolist(), V.tolist())) == [
                _expand(a, b, D, ell) for a, b in pts], (ell, ratio)
            pts = [(a * 16 + 1, b * 16 - 1) for a, b in pts]
            u = np.array([a for a, _ in pts], dtype=object)
            v = np.array([b for _, b in pts], dtype=object)
            U, V = heights._weights(u, v, D, ell)
            assert list(zip(U.tolist(), V.tolist())) == [
                _expand(a, b, D, ell) for a, b in pts], (ell, ratio)


def test_scan_rejects_norms_past_float64_bound(ctx21):
    # the lattice count bound behind the int64 bins is proven only for
    # norms below 10^9; the request must fail before any allocation
    with pytest.raises(HeightError, match="exactness bound"):
        ctx21.prefetch([(0, 10 ** 9 // 7 + 1)])


@given(st.lists(st.integers(min_value=1, max_value=399), min_size=6,
                max_size=6, unique=True))
@settings(max_examples=10, deadline=None)
def test_residue_bank_prefetch_order(ms):
    # one index at a time: later indices land below a residue's top or open
    # a new residue, which rescans the bank
    ctx = HeightContext(-7, 23, 11, 2, 1)
    bank = ctx._bank(0)
    for m in ms:
        ctx.prefetch([(0, m)])
    for m in ms:
        ns, sus, svs = _series(bank, m)
        want = _brute_series(ctx.group.forms[0], -7, 2, m, 7, 23)
        assert dict(zip(ns, zip(sus, svs))) == want


@pytest.mark.parametrize("D, N", [
    (-7, 22),     # q = 2
    (-15, 34),    # q = 2 divides a and c of (2, 1, 2)
    (-23, 3),     # 3 divides c of every reduced form
    (-31, 7),
    (-55, 13),
    (-7, 8),      # prime powers: the level need not be squarefree
    (-7, 121),
    (-7, 667),    # composite level, on a sample of residues
])
def test_cosets_vs_bruteforce(D, N):
    rhos = range(N) if N < 200 else [0, 1, 2, 28, 333, 666] + \
        random.Random(N).sample(range(N), 10)
    for form in reduced_forms(D):
        a, b, c = form
        by_rho = {}
        for s in range(N):
            for t in range(N):
                by_rho.setdefault((a * s * s + b * s * t + c * t * t) % N,
                                  set()).add((s, t))
        cosets = _Cosets(form, D, N)
        for rho in rhos:
            s0, t0 = cosets(rho)
            got = list(zip(s0.tolist(), t0.tolist()))
            assert len(got) == len(set(got))
            assert set(got) == by_rho.get(rho, set()), (form, rho)


def _assert_bank_matches_brute(ctx, ci, ms):
    # each class against a scan of its own reduced form
    for m in ms:
        ns, sus, svs = _class_series(ctx, ci, m)
        want = _brute_series(ctx.group.forms[ci], ctx.D, ctx.ell, m, ctx.aD,
                             ctx.level)
        assert dict(zip(ns, zip(sus, svs))) == want, (ci, m)


def test_bank_many_residues_vs_bruteforce():
    # five residues at once at a large level; 667 and 1334 share rho = 0
    ctx = HeightContext(-7, 667, 11, 2, 1)
    ms = [55, 363, 667, 1000, 1334, 6655]
    ctx.prefetch([(0, m) for m in ms])
    assert len(ctx._bank(0).tops) == 5
    _assert_bank_matches_brute(ctx, 0, ms)


@pytest.mark.parametrize("args", [
    (-23, 3, 29, 2, 1), (-31, 7, 5, 2, 1),
    # h = 4: classes 1 and 2 are inverse, 0 and 3 are their own inverses
    (-55, 13, 7, 2, 1),
    # the sextic weights of m = 500 take four digits
    (-31, 7, 5, 4, 3)])
def test_bank_every_class_vs_bruteforce(split_bound, args):
    ctx = HeightContext(*args)
    split = ctx.ell == 6
    ms = [1, 2, 3, 5, 7, 21, 60] + ([500] if split else [])
    ctx.prefetch([(ci, m) for ci in range(ctx.h) for m in ms])
    # in each field class 2 is the inverse of class 1 and reads its bank
    assert ctx._bank_of[2] == (1, -1)
    assert sorted(ctx._banks) == [ci for ci in range(ctx.h) if ci != 2]
    assert (max(_digit_counts(ctx._bank(1)).values()) == 4) == split \
        == split_bound()
    for ci in range(ctx.h):
        _assert_bank_matches_brute(ctx, ci, ms)


@pytest.mark.parametrize("cells", [7, 300])
def test_bank_blocks_cut_inside_cosets(monkeypatch, cells):
    # at N = 3 one coset's rows hold thousands of points, so small blocks
    # end inside a row as well as between rows
    monkeypatch.setattr(heights, "_BLOCK_CELLS", cells)
    blocks = []
    real_bin = heights._ThetaBank._bin

    def counting_bin(self, store, idx, U, V):
        blocks.append(idx.size)
        real_bin(self, store, idx, U, V)

    monkeypatch.setattr(heights._ThetaBank, "_bin", counting_bin)
    ctx = HeightContext(-23, 3, 29, 2, 1)
    ms = [100, 200]
    ctx.prefetch([(ci, m) for ci in range(ctx.h) for m in ms])
    assert len(blocks) > 10 and max(blocks) <= cells
    for ci in range(ctx.h):
        _assert_bank_matches_brute(ctx, ci, ms)


@pytest.fixture
def scanned(monkeypatch):
    """The residues that _ThetaBank._scan_residue scans, in order."""
    rhos = []
    real = heights._ThetaBank._scan_residue

    def recording(self, rho, top):
        rhos.append(rho)
        return real(self, rho, top)

    monkeypatch.setattr(heights._ThetaBank, "_scan_residue", recording)
    return rhos


def test_bank_split_switch_keeps_held_residues(split_bound, scanned):
    # a later index whose weights take four digits opens residue 16; the
    # residues 5 and 12 already held keep their own digit counts and are
    # not rescanned
    ctx = HeightContext(-7, 23, 11, 4, 3)
    ctx.prefetch([(0, 50), (0, 51)])
    bank = ctx._bank(0)
    held = dict(bank.arrays)
    assert scanned == [5, 12] and _digit_counts(bank) == {5: 3, 12: 3}
    ctx.prefetch([(0, 2000)])
    assert scanned == [5, 12, 16] and split_bound()
    assert _digit_counts(bank) == {5: 3, 12: 3, 16: 4}
    assert all(bank.arrays[rho] is arrays for rho, arrays in held.items())
    _assert_bank_matches_brute(ctx, 0, [50, 51])


def test_bank_keeps_norms_with_only_a_v_sum(monkeypatch):
    # no small case has SUM U = 0 beside SUM V != 0, so the weights become
    # (0, V): every norm the bank keeps then has only a v sum
    real = heights._weights
    monkeypatch.setattr(heights, "_weights",
                        lambda u, v, D, ell: (0 * u, real(u, v, D, ell)[1]))
    ctx = HeightContext(-31, 7, 5, 2, 1)
    ctx.prefetch([(2, 60)])
    ns, sus, svs = _class_series(ctx, 2, 60)
    want = _brute_series(ctx.group.forms[2], ctx.D, ctx.ell, 60, ctx.aD,
                         ctx.level)
    assert not any(sus)
    assert dict(zip(ns, svs)) == {n: sv for n, (_, sv) in want.items() if sv}
    assert len(ns) > 10


def test_bank_digit_counts_follow_the_largest_sum(monkeypatch):
    # rig the weights of three norms of the bank that classes 1 and 2 of
    # D = -31 share, each a single pair +-(u, v) with uv > 0: residue 5's
    # sums reach +-(2^31 - 1) and residue 1's +-2^31, past the
    # 2^31 - 2^15 - 1 that two balanced digits hold, and residue 4's
    # +-(2^53 + 1), past three digits.  The weight bound is raised to
    # 2^53 + 1 with them, so every weight is binned in four digits, and each
    # residue stores the fewest that hold its sums.  U is even and V odd in
    # v, as real weights are, so the mirror class still reads SUM V negated
    ctx = HeightContext(-31, 7, 5, 2, 1)
    a = ctx.group.forms[1][0]
    rig = {19: ((1 << 31) - 1, 1 - (1 << 31)), 71: (1 << 31, -(1 << 31)),
           95: ((1 << 53) + 1, -(1 << 53) - 1)}

    def rigged(u, v, U, V):
        q, hi = (u * u + ctx.aD * v * v) // (4 * a), u > 0
        for j, (tu, tv) in rig.items():
            U = np.where(q == j, np.where(hi, tu - tu // 2, tu // 2), U)
            V = np.where(q == j, np.sign(u * v)
                         * np.where(hi, tv - tv // 2, tv // 2), V)
        return U, V

    real = heights._weights
    monkeypatch.setattr(heights, "_weights", lambda u, v, D, ell:
                        rigged(u, v, *real(u, v, D, ell)))
    monkeypatch.setitem(globals(), "_expand", lambda u, v, D, ell, e=_expand:
                        tuple(map(int, rigged(u, v, *e(u, v, D, ell)))))
    bound = heights._weight_bound
    monkeypatch.setattr(heights, "_weight_bound", lambda *args: tuple(
        max(b, (1 << 53) + 1) for b in bound(*args)))
    ctx.prefetch([(1, 60), (2, 61), (1, 62)])
    assert _digit_counts(ctx._bank(1)) == {5: 3, 1: 3, 4: 4}
    for ci in (1, 2):
        sign = ctx._bank_of[ci][1]
        for m, j in ((60, 19), (61, 71), (62, 95)):
            want = _brute_series(ctx.group.forms[ci], ctx.D, ctx.ell, m,
                                 ctx.aD, ctx.level)
            K = m * ctx.aD // ctx.level
            assert want[K - j // ctx.level] == (rig[j][0], sign * rig[j][1])
            ns, sus, svs = _class_series(ctx, ci, m)
            assert dict(zip(ns, zip(sus, svs))) == want, (ci, m)
            got = _theta_residues(ctx, ci, m)
            assert all(got.get(n, 0) == _theta_residue(
                ctx, ci, *want.get(n, (0, 0))) for n in range(K + 2)), (ci, m)
            # the B/C sum reads the extreme digits: the rigged n (263 and
            # 261 prime to p, 260 = 0 mod p) carry nonzero sigma
            n = K - j // ctx.level
            assert ctx.sigma_res(ci, n) and (n % ctx.p == 0) == (m == 61)
            cv, bv = ctx._cb(ci, m)
            assert (cv.residue(ctx.W), bv.residue(ctx.W)) == \
                _termwise_cb(ctx, ci, m), (ci, m)


def test_bank_split_switch_seen_through_mirror_class(split_bound, scanned):
    # class 2 of D = -31 reads class 1's bank with SUM V negated; its own
    # later index opens a four-digit residue of that shared bank, and the
    # residues held stay as they were scanned
    ctx = HeightContext(-31, 7, 5, 4, 3)
    assert ctx._bank_of[1:] == [(1, 1), (1, -1)]
    ctx.prefetch([(2, 50), (2, 51)])
    bank = ctx._bank(2)
    held = dict(bank.arrays)
    assert scanned == [3, 6] and _digit_counts(bank) == {3: 3, 6: 3}
    ctx.prefetch([(2, 500)])
    assert list(ctx._banks) == [1] and scanned == [3, 6, 2]
    assert _digit_counts(bank) == {2: 4, 3: 3, 6: 3} and split_bound()
    assert all(bank.arrays[rho] is arrays for rho, arrays in held.items())
    for ci in (1, 2):
        _assert_bank_matches_brute(ctx, ci, [50, 51, 500])


def _bank_bytes(ctx):
    return sum(pos.nbytes + digits.nbytes for bk in ctx._banks.values()
               for pos, digits in bk.arrays.values())


def test_scan_scratch_is_bounded_by_the_block(monkeypatch):
    # the operator cells of crosscheck (-7, 23, 11, 3, 2) at m = 33 reach
    # m p^4 = 483153: the dense digit rows of their norms take 4.9 MiB, and
    # a scan that binned whole residues at once took 33 MiB of scratch on
    # top of them.  The scan holds the dense rows of the residue it bins
    # (4.5 MiB for the largest) and fewer than 24 eight-byte words per
    # block point (0.75 MiB for blocks of 2^12 points), a sixth of those
    # rows, and compaction carries a block of columns at a time.  The bank
    # it fills takes 0.59 MiB, and blocks of 2^16 points took 4.7 MiB beside
    # a 1.1 MiB bank
    dense, fresh = [], []
    scan, bin_ = heights._ThetaBank._scan_residue, heights._ThetaBank._bin

    def noting_scan(self, rho, top):
        fresh.append(rho)
        return scan(self, rho, top)

    def noting_bin(self, rows, idx, U, V):
        if fresh:
            dense.append(sum(row.nbytes for row in rows))
            fresh.clear()
        bin_(self, rows, idx, U, V)

    monkeypatch.setattr(heights._ThetaBank, "_scan_residue", noting_scan)
    monkeypatch.setattr(heights._ThetaBank, "_bin", noting_bin)
    ctx = HeightContext(-7, 23, 11, 3, 2)
    tracemalloc.start()
    try:
        ctx.prefetch(heights._op_pairs(ctx, 0, 33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(dense) > 4 << 20
    block = 24 * 8 * heights._BLOCK_CELLS
    assert 4 * block < max(dense)
    assert peak - _bank_bytes(ctx) < block + max(dense)


def test_bc_report_banks_one_per_inverse_pair():
    # the prefetch of bc-check (-31, 7, 5, 2, 1) at mmax 30: classes 1 and 2
    # share one bank, and each bank keeps only its nonzero norms (dense
    # arrays of every norm, one set per class, take 23.9 MiB), every sum in
    # two int16 digits: 12 bytes per norm, 2.3 MiB (8-byte words take
    # 3.9 MiB)
    ctx = HeightContext(-31, 7, 5, 2, 1)
    ctx.prefetch([c for ci in range(ctx.h) for m in range(1, 31)
                  for c in heights._op_pairs(ctx, ci, m)])
    assert sorted(ctx._banks) == [0, 1]
    norms = sum(pos.size for bk in ctx._banks.values()
                for pos, _ in bk.arrays.values())
    assert _bank_bytes(ctx) == 12 * norms
    assert _bank_bytes(ctx) < 5 << 19


# ---------------------------------------------------------------------------
# divisor-sum fast path against the reference


def test_sigma_res_oracle(ctx21):
    na = class_norm(-7, 0)
    for n in (1, 2, 3, 4, 6, 11, 12, 30, 49, 77, 121, 720, 2310, 5040):
        want = sigma_A(-7, 23, na, n, 11, ctx21.W).residue(ctx21.W)
        assert ctx21.sigma_res(0, n) == want


def _sigma_oracle_ns(D, p, seed):
    """Small n, high powers of the primes of D, multiples of p and p^2, and
    a random sample below 4000."""
    rng = random.Random(seed)
    qs = [q for q in (3, 5, 7, 11, 13, 31) if D % q == 0]
    ns = set(range(1, 80))
    ns |= {q ** e for q in qs for e in range(1, 6)}
    ns |= {3 ** 3 * 5 ** 2 * 13, 5 ** 4, 3 ** 4 * 13 ** 2, -D, D * D}
    ns |= {p * j for j in range(1, 40)} | {p * p * j for j in range(1, 12)}
    ns |= {p ** 3, p * -D, p * p * D * D}
    ns |= {rng.randrange(1, 4000) for _ in range(120)}
    return sorted(ns)


def _genus_case_ns(D, p):
    """n for each case of the closed form of sigma: two distinct primes
    inert to odd powers (sigma = 0), an inert prime cubed, an inert prime
    times a power of a ramified one, and an inert square times split
    primes (p among them)."""
    primes = [q for q in range(2, 100) if all(q % r for r in range(2, q))]
    i1, i2, i3 = [q for q in primes if kronecker(D, q) == -1][:3]
    s1, s2 = [q for q in primes if kronecker(D, q) == 1][:2]
    ram = [q for q in primes if D % q == 0]
    zero = {i1 * i2, i1 ** 3 * i2, i1 * i2 ** 3 * s1, i1 * i3 * s1 * s2,
            i1 * i2 * i3 ** 2 * ram[0] ** 2, i1 * i2 * i3 * p}
    ns = {i1 ** 3, i2 ** 3, i1 ** 3 * s1 ** 2, i1 ** 5 * p}
    ns |= {i * r ** e for i in (i1, i2) for r in ram for e in (1, 2, 3)}
    ns |= {i1 ** 3 * r * s1 for r in ram} | {i1 * D * D}
    ns |= {i1 ** 2 * s1 * s2, i2 ** 2 * s1 ** 2 * p, i1 ** 2 * i2 ** 2 * s2,
           i1 ** 4 * s1 ** 3 * s2, i1 ** 2 * s1 * ram[-1] ** 2}
    return sorted(zero), sorted(ns)


def test_sigma_res_oracle_all_classes(ctx_h2):
    # h = 2, 4, 4, 1 with 4, 4, 8, 2 genus splits; the last at level 4
    for ctx in (ctx_h2, HeightContext(-55, 13, 7, 2, 1, n_prec=30),
                HeightContext(-195, 7, 11, 2, 1, n_prec=30),
                HeightContext(-7, 4, 11, 2, 1, n_prec=30)):
        D, N, p = ctx.D, ctx.level, ctx.p
        zero, cases = _genus_case_ns(D, p)
        ns = _sigma_oracle_ns(D, p, -D) + zero + cases
        for ci in range(ctx.h):
            na = class_norm(D, ci)
            for n in ns:
                want = sigma_A(D, N, na, n, p, ctx.W).residue(ctx.W)
                assert ctx.sigma_res(ci, n) == want, (D, ci, n)
            assert all(ctx.sigma_res(ci, n) == 0 for n in zero)


def test_sigma_res_refuses_n_past_the_sieve_bound():
    # a sieve sized to this n alone would ask for 9.94 GiB of int32; every n
    # a bank reads has nN < 10^9, so the refusal costs no report anything
    ctx = HeightContext(-195, 7, 11, 2, 1, n_prec=30)
    with pytest.raises(HeightError, match="sigma sieve"):
        ctx.sigma_res(0, 2_668_571_213)
    assert ctx._spf is None


@pytest.mark.parametrize("D", [-7, -15, -23, -31, -51, -55, -59, -195])
def test_character_tables_match_kronecker(D):
    level, p = admissible_params(D, char_ell=2)
    ctx = HeightContext(D, level, p, 2, 1, n_prec=10)
    splits = discriminant_factorizations(D)
    assert len(ctx._splits) == len(splits)
    for (g, chi1, chi2, _), (D1, D2) in zip(ctx._splits, splits):
        assert (len(chi1), len(chi2), g) == (abs(D1), abs(D2), abs(D2))
        for a in range(1, 4 * abs(D) + 1):
            assert chi1[a % abs(D1)] == kronecker(D1, a), (D1, a)
            assert chi2[a % abs(D2)] == kronecker(D2, a), (D2, a)
    for q in range(3, 2000):
        if isprime(q) and D % q:
            assert ctx._chiD[q % -D] == kronecker(D, q), q


# ---------------------------------------------------------------------------
# the B/C pair


def _termwise_cb(ctx, ci, m):
    """(C_m, B_m) residues by the per-term loop: each term reduced mod p^W,
    with the terms where r_chi or sigma vanishes mod p^W skipped."""
    pW, N, MD = ctx.pW, ctx.level, m * ctx.aD
    gam = [int(c * ctx.delta) for c in ctx.Hpoly.coeffs]
    tot_c = tot_b = 0
    for n, su, sv in zip(*_class_series(ctx, ci, m)):
        t = (su + sv * ctx.shat) % pW
        sg = ctx.sigma_res(ci, n)
        if not (t and sg):
            continue
        w = MD - 2 * N * n
        pol = sum(g * MD ** (ctx.m_H - j) * w ** j for j, g in enumerate(gam))
        term = t * sg % pW * pol
        tot_c += term
        if n % ctx.p:
            tot_b += term
    konst = ctx._class_theta_const(ci) * pow(ctx.delta * ctx.aD ** ctx.m_H,
                                             -1, pW)
    return tot_c * konst % pW, tot_b * konst % pW


def test_cb_matches_termwise_sum():
    # (3, 1) has m_H = 1; the indices m p put p | n into the sums
    cases = [(HeightContext(-7, 23, 11, 2, 1, n_prec=30), 0),
             (HeightContext(-7, 23, 11, 3, 1, n_prec=30), 0)]
    ctx = HeightContext(-31, 7, 5, 2, 1, n_prec=30)
    cases += [(ctx, ci) for ci in range(ctx.h)]
    assert cases[1][0].m_H == 1
    p_part = 0
    for ctx, ci in cases:
        for m in (7, 7 * ctx.p):
            ctx.prefetch([(ci, m)])
            want = _termwise_cb(ctx, ci, m)
            cv, bv = ctx._cb(ci, m)
            got = (cv.residue(ctx.W), bv.residue(ctx.W))
            assert got == want, (ctx.D, ctx.r, ctx.k, ci, m)
            p_part += want[0] != want[1]
    assert p_part


@pytest.mark.parametrize("args, m, split", [((-7, 23, 11, 2, 1), 2000, False),
                                            ((-7, 23, 11, 4, 3), 2000, True)])
def test_series_chunks_cut_anywhere(monkeypatch, split_bound, args, m, split):
    # 7-position chunks: the series and the B/C sum read every chunk boundary
    monkeypatch.setattr(heights, "_BLOCK_CELLS", 7)
    ctx = HeightContext(*args, n_prec=30)
    ctx.prefetch([(0, m)])
    bank = ctx._bank(0)
    assert (_digit_counts(bank) == {16: 4}) == split == split_bound()
    chunks = list(bank.series(m))
    assert len(chunks) > 50
    assert all(ns[-1] - ns[0] < 7 for ns, _ in chunks)
    ns, sus, svs = _series(bank, m)
    want = _brute_series(ctx.group.forms[0], ctx.D, ctx.ell, m, ctx.aD,
                         ctx.level)
    assert dict(zip(ns, zip(sus, svs))) == want
    # m itself reads the top digits of the four-digit sums
    for mm in (7, 7 * ctx.p ** 2, m):
        ctx.prefetch([(0, mm)])
        cv, bv = ctx._cb(0, mm)
        assert (cv.residue(ctx.W), bv.residue(ctx.W)) == \
            _termwise_cb(ctx, 0, mm)


def test_sigma_store_rows_are_sigma_times_powers_of_n():
    # m_H = 1: each row holds sigma(n) and sigma(n) n, in 16-bit limbs
    ctx = HeightContext(-7, 23, 11, 3, 1, n_prec=30)
    assert ctx.m_H == 1
    for m in (77, 847):
        ctx.prefetch([(0, m)])
        ctx._cb(0, m)
    store = ctx._store(0)
    assert (store.degs, store.limbs) == (2, -(-ctx.pW.bit_length() // 16))
    ns = np.flatnonzero(store.index >= 0)
    assert ns.size == store.size > 50
    for n, row in zip(ns.tolist(), store.rows[store.index[ns]].tolist()):
        got = [sum(x << 16 * l for l, x in enumerate(row[i:i + store.limbs]))
               for i in range(0, len(row), store.limbs)]
        sg = ctx.sigma_res(0, n)
        assert got == [sg, sg * n % ctx.pW], n


@pytest.mark.parametrize("top", [0, 1 << 15, 1 << 31, (1 << 53) - 1,
                                 (1 << 63) - 1, 3 ** 90, 1 << 200])
def test_limbs_rebuild_every_word(top):
    # weights of size up to top + 1 or 2^15 (int64 below 2^62, python ints
    # past it, as the scan has them) are cut into balanced digits and
    # binned, each bin adding up to _COUNT_BOUND of them; carried, the
    # digits of every bin lie in [-2^15, 2^15) and rebuild its sum, and the
    # weights 2^15 and -2^15 carry to a zero sum
    rng = random.Random(top)
    ws = [top, -top, -top - 1, -1, 1, 0]
    ws += [rng.randint(-top, top) for _ in range(200)]
    idx = [j % 7 for j in range(len(ws))]
    ws += [-top - 1] * heights._COUNT_BOUND + [1 << 15, -(1 << 15)]
    idx += [7] * heights._COUNT_BOUND + [8, 8]
    w = np.array(ws, dtype=np.int64 if top < 1 << 62 else object)
    count = heights._digit_count(max(map(abs, ws)))
    digits = heights._cut(w, count)
    assert len(digits) == count
    assert all(d.dtype == np.int32 and -(1 << 15) <= d.min() <= d.max()
               < 1 << 15 for d in digits)
    assert [sum(x << 16 * i for i, x in enumerate(col))
            for col in zip(*(d.tolist() for d in digits))] == ws
    dense = np.zeros((2 * count, 9), dtype=np.int32)
    heights._ThetaBank._bin(None, list(dense), np.array(idx), w, -w)
    got = heights._carry(dense.reshape(2, count, 9))
    assert got.dtype == np.int16 and got.shape[1] == count + 1
    sums = [sum(x for x, j in zip(ws, idx) if j == b) for b in range(9)]
    assert sums[8] == 0 and dense[:, 8].any()
    assert _exact(got[0]) == sums and _exact(got[1]) == [-x for x in sums]


def test_sum_exactness_bounds_are_guarded(monkeypatch):
    # 2^22 cells of products below 2^32 can sum past 2^53 in float64
    ctx = HeightContext(-7, 23, 11, 2, 1, n_prec=30)
    monkeypatch.setattr(heights, "_BLOCK_CELLS", 1 << 22)
    with pytest.raises(HeightError,
                       match=r"_BLOCK_CELLS \* 2\^32 < 2\^53 .* fails"):
        ctx._cb(0, 33)
    assert not ctx._sums
    monkeypatch.undo()
    # the int64 accumulator holds K * 2^32 for every K below _QMAX_LIMIT
    heights._require_sum_bounds(heights._QMAX_LIMIT)
    with pytest.raises(HeightError, match=r"K \* 2\^32 < 2\^63 .* fails"):
        heights._require_sum_bounds(1 << 31)


def test_c_seq_empty_sum_is_zero(ctx21):
    # m|D| < N leaves no summation index at all: an exact zero, as the
    # term-by-term oracles give
    for m in (1, 2, 3):
        v = c_seq(ctx21, 0, m)
        assert v.is_zero()
        assert v.valuation() >= ctx21.n_prec
        assert v.is_exact_zero()
        assert b_seq(ctx21, 0, m).is_exact_zero()


def test_b_without_prime_to_p_term_is_exact_zero():
    # at level 38 every lattice term of index 25 has 5 | n: B and a_25 are
    # exact zeros, as fourier_am_direct gives, while C is not
    ctx = HeightContext(-31, 38, 5, 2, 1, n_prec=10)
    assert fourier_am_direct(ctx, 0, 25).is_exact_zero()
    assert fourier_am(ctx, 0, 25).is_exact_zero()
    assert b_seq(ctx, 0, 25).is_exact_zero()
    assert not c_seq(ctx, 0, 25).is_zero()


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


def test_hypothesis_messages_are_pinned(ctx21):
    # whole messages, one per hypothesis, through every public entry point
    index = "index m must be a positive integer"
    p_m = "hypothesis p | m fails: p = 11, m = 7"
    level = "hypothesis gcd(m, N) = 1 fails: m = 46, N = 23"
    cases = [(lambda: c_seq(ctx21, 0, 0), index),
             (lambda: ctx21.prefetch([(0, 0)]), index),
             (lambda: fourier_am(ctx21, 0, 7), p_m),
             (lambda: fourier_am_direct(ctx21, 0, 7), p_m),
             (lambda: crosscheck_report(ctx21, 0, 7), p_m),
             (lambda: local_height_sum(ctx21, 0, 46), level),
             (lambda: local_height_sum_direct(ctx21, 0, 46), level),
             (lambda: crosscheck_report(
                 ctx21, 0, 253), level.replace("46", "253"))]
    for call, message in cases:
        with pytest.raises(HeightError) as err:
            call()
        assert str(err.value) == message


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


def test_bc_report_refusal_expands_the_operator_once(monkeypatch):
    # mmax 200000 reaches norms past the 10^9 bound; bc_report refuses
    # before it lists a cell, so it expands no operator.  A certifying
    # report expands it once per context, not once per listed cell
    builds = []
    real = heights.uf_terms
    monkeypatch.setattr(heights, "uf_terms",
                        lambda ctx: builds.append(ctx) or real(ctx))
    ctx = HeightContext(-7, 23, 11, 2, 1, n_prec=30)
    with pytest.raises(HeightError, match=r"^lattice norms up to 20497400000 "
                       r"exceed the exactness bound 1000000000$"):
        bc_report(ctx, 200_000)
    assert builds == []
    assert bc_report(ctx, 3)["pass"] is True
    assert builds == [ctx]


def test_bc_report_shape_and_determinism(ctx31):
    r1 = bc_report(ctx31, 3)
    r2 = bc_report(HeightContext(-7, 23, 11, 3, 1, n_prec=30), 3)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["pass"] is True
    assert r1["threshold"] == 30
    assert r1["slack"]["total"] == 0
    assert [(row["class"], row["m"]) for row in r1["results"]] == [
        (0, 1), (0, 2), (0, 3)]
    assert r1["mutation"] is None


# ---------------------------------------------------------------------------
# Fourier coefficients


def test_fourier_requires_p_dividing_m(ctx21):
    for am in (fourier_am, fourier_am_direct):
        with pytest.raises(HeightError, match=r"p \| m"):
            am(ctx21, 0, 7)


def test_fourier_two_paths_agree(ctx21, ctx32):
    # class number 1, 3 and 4: the slow log_p divisor-sum oracle against the
    # banked B sequence, over every class
    h3 = HeightContext(-31, 7, 5, 2, 1, n_prec=30)
    h4 = HeightContext(-55, 13, 7, 2, 1, n_prec=30)
    cases = ((ctx21, (11, 22)), (ctx32, (11,)), (h3, (5, 10)), (h4, (7,)))
    for ctx, ms in cases:
        for ci in range(ctx.h):
            for m in ms:
                base = fourier_am_direct(ctx, ci, m)
                banked = fourier_am(ctx, ci, m)
                assert (base - banked).is_zero()
                assert not base.is_zero()


def test_fourier_concrete_value_stable(ctx_big):
    a30 = fourier_am_direct(ctx_big, 0, 23)
    ctx20 = HeightContext(-7, 11, 23, 2, 1, n_prec=20)
    a20 = fourier_am_direct(ctx20, 0, 23)
    assert not a30.is_zero()
    assert a30.residue(25) == a20.residue(25)


# ---------------------------------------------------------------------------
# local height coefficient sum


def test_local_height_hypothesis_errors(ctx21):
    for hs in (local_height_sum, local_height_sum_direct):
        with pytest.raises(HeightError, match="gcd"):
            hs(ctx21, 0, 23)
        with pytest.raises(HeightError, match="r_A"):
            hs(ctx21, 0, 2)


@pytest.mark.parametrize("args, counts", [
    ((-7, 23, 11, 2, 1), (7, 4, 0)),
    ((-7, 23, 11, 3, 1), (7, 4, 0)),
    ((-31, 7, 5, 2, 1), (24, 0, 1)),
    ((-31, 7, 5, 3, 2), (24, 0, 1)),
    ((-51, 11, 5, 2, 1), (21, 0, 2)),
    ((-55, 13, 7, 2, 1), (42, 2, 0)),
    # weights past 2^62: ell = 14 and ell = 10
    ((-7, 23, 11, 8, 7), (7, 4, 0)),
    ((-31, 7, 5, 6, 5), (24, 0, 1)),
])
def test_local_height_sum_prints_the_oracle_at_working_precision(args, counts):
    # the bank path prints the oracle's bytes, the oracle cut to absolute
    # precision W unless it is an exact zero, on every admissible cell of
    # m <= 16; counts = (cells, exact zeros, cells where the oracle claims
    # digits past W)
    ctx = HeightContext(*args, n_prec=30)
    cells = zeros = cut = 0
    for ci in range(ctx.h):
        for m in range(1, 17):
            try:
                want = local_height_sum_direct(ctx, ci, m)
            except HeightError:
                continue
            cells += 1
            if want.is_exact_zero():
                zeros += 1
            elif want.abs_prec() > ctx.W:
                cut += 1
                want = want.truncate_abs(ctx.W)
            got = local_height_sum(ctx, ci, m)
            assert got.to_json() == want.to_json(), (ci, m)
    assert (cells, zeros, cut) == counts


def test_local_height_two_paths(ctx21):
    # 5, 13, 41 are inert in Q(sqrt(-7)) and coprime to the level
    for m in (5, 13, 41):
        direct = local_height_sum_direct(ctx21, 0, m)
        banked = local_height_sum(ctx21, 0, m)
        assert (direct - banked).is_zero()
    assert not local_height_sum_direct(ctx21, 0, 13).is_zero()


# ---------------------------------------------------------------------------
# the height/Fourier cross identity


def test_height_fourier_certifies(ctx21, ctx32):
    assert crosscheck_report(ctx21, 0, 33)["residual"] == 30
    assert crosscheck_report(ctx32, 0, 33)["residual"] == 30


def test_height_fourier_hypothesis_errors(ctx21):
    with pytest.raises(HeightError, match=r"p \| m"):
        crosscheck_report(ctx21, 0, 3)
    with pytest.raises(HeightError, match="gcd"):
        crosscheck_report(ctx21, 0, 11 * 23)
    with pytest.raises(HeightError, match="r_A"):
        crosscheck_report(ctx21, 0, 11)


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
