"""End-to-end acceptance runs: ten criteria, one printed line each.

Run `pytest -s tests/test_acceptance.py` to watch the lines appear as the
criteria complete.  Each test fails loudly when its identity misses the
stated tolerance or its runtime budget; the printed line carries the
verdict either way.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import mpmath
from jsonschema import Draft7Validator

from padicheights import cli
from padicheights.cli import _hpoly_identity
from padicheights.heckechar import build_char, lattice_theta_coeffs, theta_coeffs
from padicheights.heights import (HeightContext, bc_report, crosscheck_report,
                                  fourier_am, fourier_am_direct)
from padicheights.padic import iwasawa_log
from padicheights.polykit import h_poly, jacobi_poly
from padicheights.quadfield import (QuadFieldError, admissible_params,
                                    class_group, class_number, ideal_of_form,
                                    validate_discriminant)
from test_faults import OPERATOR_FAULTS
from testkit import (coeff_identity_check, laplace_integral_oracle,
                     schema_path, teichmuller)


def report(num, label, ok, elapsed, budget, detail=""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d}  {label:<36} {status}  "
          f"{elapsed:6.1f}s / {budget:.0f}s{tail}")
    assert ok, f"criterion {num} ({label}): {detail or 'check failed'}"
    assert elapsed < budget, \
        f"criterion {num} ({label}) over budget: {elapsed:.1f}s"


def fundamental_discs(lo):
    for D in range(-3, lo - 1, -4):
        try:
            validate_discriminant(D)
        except QuadFieldError:
            continue
        yield D


def test_criterion_01_polynomial_identities():
    t0 = time.monotonic()
    ok = True
    for m in range(9):
        for k in range(6):
            ok = ok and _hpoly_identity(m, k, "combo")
            ok = ok and _hpoly_identity(m, k, "jacobi")
    for m in range(1, 11):
        for k in range(6):
            ok = ok and _hpoly_identity(m, k, "recur")
    for m in range(11):
        ok = ok and h_poly(m, 0) == jacobi_poly(m, 0, 0)
    report(1, "polynomial identity suite", ok, time.monotonic() - t0, 10.0,
           "combo+jacobi m<=8 k<=5, recur m<=10, Legendre at k=0")


def test_criterion_02_kernel_integral_closed_form():
    t0 = time.monotonic()
    ok = True
    worst = mpmath.mpf(0)
    with mpmath.workdps(40):
        tol = mpmath.mpf(10) ** -25
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
                            ok = ok and abs(got) < mpmath.mpf(10) ** -30
                        else:
                            rel = abs(got - closed) / abs(closed)
                            worst = max(worst, rel)
                            ok = ok and rel <= tol
        detail = f"worst relative error {mpmath.nstr(worst, 3)}"
    report(2, "kernel integral vs closed form", ok,
           time.monotonic() - t0, 5.0, detail)


def test_criterion_03_coefficient_extraction():
    t0 = time.monotonic()
    rng = random.Random(20260816)
    ok = True
    done = 0
    while done < 100:
        m = rng.randint(0, 6)
        k = rng.randint(0, 6)
        a, b, c, d = (Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(4))
        if a * d == b * c:
            continue
        ok = ok and coeff_identity_check(m, k, a, b, c, d) == 0
        done += 1
    report(3, "coefficient extraction residual", ok,
           time.monotonic() - t0, 5.0, "100 random tuples, exactly zero")


def test_criterion_04_class_groups():
    t0 = time.monotonic()
    ok = True
    for D, want in ((-7, 1), (-11, 1), (-23, 3), (-47, 5)):
        ok = ok and class_number(D) == want
    checked = 0
    for D in fundamental_discs(-500):
        G = class_group(D)
        e = G.identity
        for i in range(G.h):
            ok = ok and G.mult(e, i) == i and G.mult(i, G.inv(i)) == e
        if G.h <= 12:
            checked += 1
            for i in range(G.h):
                for j in range(G.h):
                    ok = ok and G.mult(i, j) == G.mult(j, i)
                    for l in range(G.h):
                        ok = ok and (G.mult(G.mult(i, j), l)
                                     == G.mult(i, G.mult(j, l)))
    report(4, "class group table and axioms", ok, time.monotonic() - t0,
           5.0, f"exhaustive axioms on {checked} fields with h <= 12")


def test_criterion_05_theta_lattice_identity():
    t0 = time.monotonic()
    ok = True
    # exact arithmetic, class number one
    for ell in (2, 4):
        ch = build_char(-7, ell, "exact")
        lat = lattice_theta_coeffs(ch, ideal_of_form(-7, ch.group.forms[0]),
                                   500)
        rc = theta_coeffs(ch, 0, 500)
        for n in range(1, 501):
            ok = ok and lat[n - 1] == rc[n - 1] * 2
    spot = theta_coeffs(build_char(-7, 2, "exact"), 0, 2)
    ok = ok and spot[1] == -3
    # complex embeddings at 40 digits
    tol = mpmath.mpf(10) ** -30
    for D in (-11, -23):
        for ell in (2, 4):
            ch = build_char(D, ell, "complex", prec=40)
            with ch._ctx():
                for ci in range(ch.group.h):
                    lat = lattice_theta_coeffs(
                        ch, ideal_of_form(D, ch.group.forms[ci]), 500)
                    rc = theta_coeffs(ch, ci, 500)
                    for n in range(1, 501):
                        u, v = lat[n - 1], rc[n - 1] * 2
                        scale = max(abs(u), abs(v), mpmath.mpf(1))
                        ok = ok and abs(u - v) <= tol * scale
    report(5, "theta lattice against ideal sums", ok,
           time.monotonic() - t0, 60.0,
           "exact D=-7, complex D=-11,-23 at 40 digits, spot r(2)=-3")


def _genus_cases(ch, j_bound):
    from padicheights.quadfield import (class_index_of_ideal,
                                        discriminant_factorizations,
                                        factorint, primitive_ideals_of_norm)
    D = ch.D
    G = ch.group
    for D1, D2 in discriminant_factorizations(D):
        r1, r2 = (primitive_ideals_of_norm(D, factorint(abs(Di)))[0]
                  for Di in (D1, D2))
        c1 = class_index_of_ideal(D, r1)
        chi2 = ch.chi_value(r2)
        inv2 = chi2.inv()
        for A in range(G.h):
            shifted = G.mult(A, G.inv(c1))
            for j in range(1, j_bound + 1):
                yield ch.r_chi(shifted, j), inv2 * ch.r_chi(A, j * abs(D2))


def _hecke_cases(ch, p, m_bound):
    from padicheights.quadfield import (class_index_of_ideal, factorint,
                                        ideal_conj, primitive_ideals_of_norm)
    D = ch.D
    G = ch.group
    P = primitive_ideals_of_norm(D, factorint(p))[0]
    Pb = ideal_conj(D, P)
    cP = class_index_of_ideal(D, P)
    cPb = class_index_of_ideal(D, Pb)
    chiP = ch.chi_value(P)
    chiPb = ch.chi_value(Pb)
    for A in range(G.h):
        for m in range(1, m_bound + 1):
            # degree p shift
            lhs = ch.r_chi(A, m * p) + ch.r_chi(A, Fraction(m, p)) * p ** ch.ell
            rhs = (chiPb * ch.r_chi(G.mult(A, cP), m)
                   + chiP * ch.r_chi(G.mult(A, cPb), m))
            yield lhs, rhs
            # degree p^2 shift, separate shapes for p | m and p coprime m
            rhs2 = (chiPb ** 2 * ch.r_chi(G.mult(A, G.pow(cP, 2)), m)
                    + chiP ** 2 * ch.r_chi(G.mult(A, G.pow(cPb, 2)), m))
            if m % p == 0:
                lhs2 = (ch.r_chi(A, m * p * p)
                        + ch.r_chi(A, Fraction(m, p * p)) * p ** (2 * ch.ell))
            else:
                lhs2 = ch.r_chi(A, m * p * p) - ch.r_chi(A, m) * p ** ch.ell
            yield lhs2, rhs2


def test_criterion_06_genus_and_shift_relations():
    t0 = time.monotonic()
    ok = True
    cases = ((-7, "exact", 11, None, None),
             (-15, "padic", 17, 17, 14),
             (-23, "padic", 29, 29, 14))
    for D, mode, p, pp, prec in cases:
        ch = build_char(D, 2, mode, p=pp, prec=prec)
        for lhs, rhs in _genus_cases(ch, 200):
            ok = ok and lhs == rhs
        for lhs, rhs in _hecke_cases(ch, p, 200):
            ok = ok and lhs == rhs
    report(6, "genus and prime shift relations", ok,
           time.monotonic() - t0, 60.0,
           "D=-7,-15,-23 at ell=2, indices to 200, exact equality")


def test_criterion_07_operator_identity_sweep(monkeypatch):
    t0 = time.monotonic()
    ok = True
    worst = 99
    h1_contexts = ((-7, 11, 23, 2, 1), (-7, 23, 11, 2, 1),
                   (-7, 23, 11, 3, 1), (-7, 23, 11, 3, 2))
    for D, level, p, r, k in h1_contexts:
        ctx = HeightContext(D, level, p, r, k, n_prec=30)
        ok = ok and ctx.slack <= 10
        rep = bc_report(ctx, 20)
        ok = ok and rep["pass"]
        worst = min(worst, min(row["residual"] for row in rep["results"]))
        del ctx, rep
    # the class number three field: same identity, shallower index sweep
    # (bank sizes grow with m * p^4; m <= 2 is what fits the box)
    level3, p3 = admissible_params(-23, char_ell=2)
    ctx3 = HeightContext(-23, level3, p3, 2, 1, n_prec=30)
    rep3 = bc_report(ctx3, 2)
    ok = ok and rep3["pass"] and len(rep3["results"]) == 6
    worst = min(worst, min(row["residual"] for row in rep3["results"]))
    del ctx3, rep3
    # every operator fault, implanted on a fresh context, must break at least
    # one residual
    caught = 0
    for implant in OPERATOR_FAULTS.values():
        with monkeypatch.context() as mp:
            ctx_mut = HeightContext(-7, 23, 11, 3, 1, n_prec=30)
            implant(mp, ctx_mut)
            caught += not bc_report(ctx_mut, 1)["pass"]
    ok = ok and caught == len(OPERATOR_FAULTS)
    report(7, "operator identity residual sweep", ok,
           time.monotonic() - t0, 600.0,
           f"min residual {worst}/30; h=3 field swept to m=2; "
           f"{caught}/{len(OPERATOR_FAULTS)} faults detected")


def test_criterion_08_height_fourier_crosscheck():
    t0 = time.monotonic()
    ok = True
    notes = []
    cases = ((-7, 11, 23, 2, 1, 69), (-7, 23, 11, 2, 1, 33),
             (-7, 23, 11, 3, 1, 33), (-7, 23, 11, 3, 2, 33))
    for D, level, p, r, k, m in cases:
        ctx = HeightContext(D, level, p, r, k, n_prec=30)
        two_path = fourier_am(ctx, 0, m) == fourier_am_direct(ctx, 0, m)
        rep = crosscheck_report(ctx, 0, m)
        ok = ok and two_path and rep["pass"]
        if not rep["pass"] and "sign_flip_residual" in rep:
            notes.append(f"sign discrepancy at ({D},{level},{p},{r},{k}): "
                         f"flipped constant reaches "
                         f"{rep['sign_flip_residual']}/30")
        del ctx, rep
    # h = 3 field: two-path agreement holds at m = p; the operator residual
    # needs m = 145 (p | m, coprime to the level, vanishing counts at every
    # touched index), whose top lattice norm 145 * 29^4 * 23 ~ 2.4e9 is past
    # the 1e9 bound where the lattice count bound behind the int64 bank sums
    # is proven
    level3, p3 = admissible_params(-23, char_ell=2)
    ctx3 = HeightContext(-23, level3, p3, 2, 1, n_prec=30)
    ok = ok and fourier_am(ctx3, 0, p3) == fourier_am_direct(ctx3, 0, p3)
    notes.append("h=3 residual check SKIPPED: smallest admissible m is 145, "
                 "whose top lattice norm 145*29^4*23 ~ 2.4e9 is past the "
                 "1e9 exactness bound; two-path agreement ran at m=29")
    report(8, "height against Fourier closed form", ok,
           time.monotonic() - t0, 300.0,
           "; ".join(notes) if notes else "all residuals 30/30")


def test_criterion_09_padic_suite():
    t0 = time.monotonic()
    ok = iwasawa_log(5, 6, 5).residue(3) == 55
    ok = ok and teichmuller(5, 2, 4).residue(2) == 7
    for p in (5, 11):
        rng = random.Random(p)
        done = 0
        while done < 100:
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
            y = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
            if x == 0 or y == 0:
                continue
            lx = iwasawa_log(p, x, 12)
            ly = iwasawa_log(p, y, 12)
            ok = ok and iwasawa_log(p, x * y, 12) == lx + ly
            done += 1
    rng = random.Random(3)
    for p in (5, 13):
        for _ in range(40):
            x = Fraction(rng.randint(1, 200), rng.randint(1, 200))
            N = rng.randint(3, 15)
            a = iwasawa_log(p, x, N)
            b = iwasawa_log(p, x, N + 5).truncate_abs(N)
            ok = ok and (a.val, a.unit, a.prec) == (b.val, b.unit, b.prec)
    report(9, "p-adic log and Teichmuller", ok, time.monotonic() - t0, 5.0,
           "log_5(6) = 55 mod 125, w(2) = 7 mod 25, 200 pairs, truncation")


CLI_TOUR = (
    ("classgroup", "--disc", "-23"),
    ("ideals", "--disc", "-7", "--norm", "8"),
    ("theta", "--disc", "-7", "--ell", "2", "--class", "0", "--bound", "5",
     "--mode", "exact"),
    ("theta", "--disc", "-23", "--ell", "2", "--class", "1", "--bound", "4",
     "--mode", "complex", "--prec", "25"),
    ("theta", "--disc", "-7", "--ell", "4", "--class", "0", "--bound", "4",
     "--mode", "padic", "--p", "11", "--prec", "8"),
    ("hpoly", "--m", "1", "--k", "1"),
    ("hpoly", "--m", "4", "--k", "2", "--check", "jacobi"),
    ("sigma", "--disc", "-7", "--level", "23", "--class", "0", "--n", "12",
     "--p", "11", "--prec", "8"),
    ("bc-check", "--disc", "-7", "--level", "23", "--p", "11", "--r", "2",
     "--k", "1", "--mmax", "2", "--prec", "12"),
    ("bc-check", "--disc", "-7", "--level", "23", "--p", "11", "--r", "2",
     "--k", "1", "--mmax", "2", "--prec", "12", "--format", "csv"),
    ("fourier", "--disc", "-7", "--level", "23", "--p", "11", "--r", "2",
     "--k", "1", "--m", "11", "--prec", "12"),
    ("heightsum", "--disc", "-7", "--level", "23", "--p", "11", "--r", "2",
     "--k", "1", "--m", "13", "--prec", "12"),
    ("crosscheck", "--disc", "-7", "--level", "23", "--p", "11", "--r", "2",
     "--k", "1", "--m", "33", "--prec", "12"),
    ("params", "--disc", "-23", "--ell", "2"),
)


def test_criterion_10_cli_tour():
    t0 = time.monotonic()
    ok = True
    validated = 0
    for argv in CLI_TOUR:
        runs = [subprocess.run([sys.executable, "-m", "padicheights"]
                               + list(argv), capture_output=True, text=True,
                               timeout=120) for _ in range(2)]
        ok = ok and runs[0].returncode == runs[1].returncode == 0
        ok = ok and runs[0].stdout == runs[1].stdout and runs[0].stdout
        if "--format" in argv:        # flat CSV table, no schema applies
            continue
        doc = json.loads(runs[0].stdout)
        schema = json.loads(schema_path(argv[0]).read_text())
        ok = ok and not list(Draft7Validator(schema).iter_errors(doc))
        ok = ok and cli.dump_json(doc) == runs[0].stdout
        validated += 1
    report(10, "CLI determinism and schemas", ok, time.monotonic() - t0,
           120.0, f"{len(CLI_TOUR)} invocations x2, {validated} validated")
