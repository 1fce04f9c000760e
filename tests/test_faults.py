"""Faults implanted in the verifier, and which certified check catches each.

Every fault is implanted by monkeypatch on a fresh HeightContext (the
context caches its B/C sums, prime logs and class constants, so a fault
must be in place before the first value is computed, and act on every
value alike).  Each implant changes one layer of the pipeline:

- scan: every residue loses the first coset that _Cosets lists;
- bank: every compacted residue loses its top stored digit row, of both
  sums; class c^-1 reads its pair's bank with SUM V unnegated;
- sigma: every prime log is doubled, so sigma is doubled;
- class constant: the class theta constant is tripled;
- sum: the sums over n prime to p and over p | n are swapped;
- operator: H -> H + 1 in the weight, chi of the conjugate prime times
  1 + p, and the square dropped from the Euler factor of the prime above p.

The checks are the `bc-check` sweep (bc_report), the `crosscheck` report
(crosscheck_report) and the test-only two-path comparison
fourier_am == fourier_am_direct at class 0.  The recorded matrix is the
verifier's mutation analysis (DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978); its "passes" entries are the known
gaps that the README lists.
"""

from math import comb

import pytest

from padicheights import heights
from padicheights.heights import (HeightContext, _Cosets, _ThetaBank,
                                  bc_report, crosscheck_report, fourier_am,
                                  fourier_am_direct)
from padicheights.padic import PadicNumber

# ---------------------------------------------------------------------------
# the implants: each takes (monkeypatch, fresh context)


def drop_coset(monkeypatch, ctx):
    cosets = _Cosets.__call__
    monkeypatch.setattr(_Cosets, "__call__", lambda self, rho: tuple(
        a[1:] for a in cosets(self, rho)))


def drop_top_digit(monkeypatch, ctx):
    scan_residue = _ThetaBank._scan_residue

    def faulty(self, rho, top):
        pos, digits = scan_residue(self, rho, top)
        return pos, digits[:, :-1]

    monkeypatch.setattr(_ThetaBank, "_scan_residue", faulty)


def unnegated_inverse(monkeypatch, ctx):
    monkeypatch.setattr(ctx, "_bank_of", [(key, 1) for key, _ in ctx._bank_of])


def sigma_times_two(monkeypatch, ctx):
    prime_log = HeightContext._prime_log
    monkeypatch.setattr(HeightContext, "_prime_log",
                        lambda self, q: 2 * prime_log(self, q) % self.pW)


def class_const_times_three(monkeypatch, ctx):
    const = HeightContext._class_theta_const
    monkeypatch.setattr(HeightContext, "_class_theta_const",
                        lambda self, ci: 3 * const(self, ci) % self.pW)


def swapped_p_split(monkeypatch, ctx):
    bc_sums = HeightContext._bc_sums
    monkeypatch.setattr(HeightContext, "_bc_sums",
                        lambda self, ci, m: bc_sums(self, ci, m)[::-1])


def h_plus_one(monkeypatch, ctx):
    """Add 1 to the weight factor m^(r-k-1) H(t_n) of every term.

    _bc_sums weighs each term by delta m^(r-k-1) H(t_n) |D|^(r-k-1), so the
    fault adds delta |D|^(r-k-1) times the sums with weight 1, which are the
    real _bc_sums with H = 1 and r - k - 1 = 0.  The degree-homogeneous
    replacement H -> H + 1 would cancel in the operator identity (a weight
    that is a function of nN/(m|D|) telescopes); this one does not, except
    at r - k = 1, where m^(r-k-1) H is constant and the fault is a uniform
    rescaling."""
    bc_sums = HeightContext._bc_sums

    def faulty(self, ci, m):
        sums = bc_sums(self, ci, m)
        gam, m_H = self._gam, self.m_H
        self._gam, self.m_H = [1], 0
        try:
            ones = bc_sums(self, ci, m)
        finally:
            self._gam, self.m_H = gam, m_H
        off = self.delta * self.aD ** m_H
        return tuple(None if s is None else
                     tuple((x + off * y) % self.pW for x, y in zip(s, o))
                     for s, o in zip(sums, ones))

    monkeypatch.setattr(HeightContext, "_bc_sums", faulty)


def chi_perturb(monkeypatch, ctx):
    monkeypatch.setattr(ctx, "chiPb", ctx.chiPb * (1 + ctx.p))


def drop_euler_square(monkeypatch, ctx):
    """heights.uf_terms with exponent 1 on the factor of the prime P above p:
    (U - p^(r-k-1) chi(Pbar) S_P) (U - p^(r-k-1) chi(P) S_Pbar)^2."""

    def uf_terms(ctx):
        cf = ctx.p ** (ctx.r - ctx.k - 1)
        one = PadicNumber(ctx.p, 0, 1, ctx.W)

        def factor_terms(exp, coeff_val, shift_gen):
            out = []
            for i in range(exp + 1):
                c = one * (comb(exp, i) * (-cf) ** i)
                if i:
                    c = c * coeff_val ** i
                out.append((c, exp - i, ctx.group.pow(shift_gen, i)))
            return out

        combined = {}
        for c1, u1, s1 in factor_terms(1, ctx.chiPb, ctx.cP):
            for c2, u2, s2 in factor_terms(2, ctx.chiP, ctx.cPb):
                key = (u1 + u2, ctx.group.mult(s1, s2))
                c = c1 * c2
                combined[key] = combined[key] + c if key in combined else c
        return [(c, du, sh) for (du, sh), c in sorted(combined.items())]

    monkeypatch.setattr(heights, "uf_terms", uf_terms)


OPERATOR_FAULTS = {"h_plus_one": h_plus_one, "chi_perturb": chi_perturb,
                   "drop_euler_square": drop_euler_square}

FAULTS = {"drop_coset": drop_coset,
          "drop_top_digit": drop_top_digit,
          "unnegated_inverse": unnegated_inverse,
          "sigma_times_two": sigma_times_two,
          "class_const_times_three": class_const_times_three,
          "swapped_p_split": swapped_p_split,
          **OPERATOR_FAULTS}

# ---------------------------------------------------------------------------
# the catch matrix

# field: (context, bc-check mmax, crosscheck and two-path index m)
FIELDS = {"h1": ((-7, 23, 11, 2, 1), 3, 33),
          "h3": ((-31, 7, 5, 2, 1), 2, 15)}

C, P = "catches", "passes"
# fault: {field: (bc-check, crosscheck, two-path)}
MATRIX = {
    "drop_coset": {"h1": (C, C, C), "h3": (C, C, C)},
    # at h = 3 the two-path index 15 reads sums below 2^15 from residue 3,
    # which bc-check's indices made two digits wide: its low digit holds
    # them whole
    "drop_top_digit": {"h1": (C, C, C), "h3": (C, C, P)},
    # c and c^-1 are one class at h = 1
    "unnegated_inverse": {"h1": (P, P, P), "h3": (C, C, P)},
    # a unit scaling of sigma or of the class constant scales both sides of
    # the B/C identity alike; only fourier_am_direct computes neither
    "sigma_times_two": {"h1": (P, P, C), "h3": (P, P, C)},
    "class_const_times_three": {"h1": (P, P, C), "h3": (P, P, C)},
    "swapped_p_split": {"h1": (C, C, C), "h3": (C, C, C)},
    # r - k = 1 on both fields: a uniform rescaling (see h_plus_one)
    "h_plus_one": {"h1": (P, P, C), "h3": (P, P, C)},
    # the two-path comparison applies no operator
    "chi_perturb": {"h1": (C, C, P), "h3": (C, C, P)},
    "drop_euler_square": {"h1": (C, C, P), "h3": (C, C, P)},
}


@pytest.mark.parametrize("fault, field", [(f, fld) for f in MATRIX
                                          for fld in FIELDS])
def test_catch_matrix(monkeypatch, fault, field):
    args, mmax, m = FIELDS[field]
    ctx = HeightContext(*args, n_prec=20)
    FAULTS[fault](monkeypatch, ctx)
    passes = (bc_report(ctx, mmax)["pass"],
              crosscheck_report(ctx, 0, m)["pass"],
              fourier_am(ctx, 0, m) == fourier_am_direct(ctx, 0, m))
    assert tuple(P if ok else C for ok in passes) == MATRIX[fault][field]


def test_catch_matrix_clean_baseline():
    # the matrix means something only if every check passes without a fault
    for args, mmax, m in FIELDS.values():
        ctx = HeightContext(*args, n_prec=20)
        assert bc_report(ctx, mmax)["pass"]
        assert crosscheck_report(ctx, 0, m)["pass"]
        assert fourier_am(ctx, 0, m) == fourier_am_direct(ctx, 0, m)


# bc_report residuals to mmax 2 at precision 30, every class and index
OPERATOR_RESIDUALS = {
    (-7, 23, 11, 3, 1): {"h_plus_one": [1, 1], "chi_perturb": [3, 3],
                         "drop_euler_square": [1, 1]},
    # r - k = 1: h_plus_one is invisible (see h_plus_one)
    (-7, 23, 11, 2, 1): {"h_plus_one": [30, 30], "chi_perturb": [2, 2],
                         "drop_euler_square": [1, 1]},
    (-31, 7, 5, 2, 1): {"h_plus_one": [30] * 6, "chi_perturb": [2] * 6,
                        "drop_euler_square": [1] * 6},
    (-7, 23, 11, 3, 2): {"h_plus_one": [30, 30], "chi_perturb": [2, 2],
                         "drop_euler_square": [1, 2]},
}


@pytest.mark.parametrize("args", list(OPERATOR_RESIDUALS),
                         ids=lambda args: ",".join(map(str, args)))
def test_operator_fault_residuals(monkeypatch, args):
    for fault, want in OPERATOR_RESIDUALS[args].items():
        with monkeypatch.context() as mp:
            ctx = HeightContext(*args, n_prec=30)
            OPERATOR_FAULTS[fault](mp, ctx)
            rep = bc_report(ctx, 2)
        assert [row["residual"] for row in rep["results"]] == want, fault
        assert rep["pass"] is (min(want) >= rep["threshold"]), fault
        assert rep["mutation"] is None
