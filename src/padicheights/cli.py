"""Command line front end.

Every subcommand prints one deterministic report to standard output (or to
--output PATH): JSON by default, CSV where the result is a flat table.
Exit status 0 means success and, for the verification subcommands, that
every residual certified; 1 means a verification ran and failed; 2 means
the request was rejected before computing, with a one line diagnostic on
the error stream naming the violated hypothesis.
"""

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from math import factorial

from .heckechar import CharBuildError, build_char, theta_coeffs
from .heights import (HeightContext, HeightError, bc_report,
                      crosscheck_report, fourier_am, local_height_sum)
from .padic import PadicError, sigma_A
from .polykit import PolyError, RationalPoly, g_poly, h_poly, jacobi_poly
from .quadfield import (QuadFieldError, admissible_params, class_group,
                        class_norm, class_number, ideals_of_norm, isprime)


class UsageError(ValueError):
    """Request rejected before any computation ran."""


# every library error type that marks a violated hypothesis rather than a bug
_REJECTIONS = (UsageError, QuadFieldError, CharBuildError, PolyError,
               HeightError, PadicError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # single diagnostic line, no usage dump
        self.exit(2, f"{self.prog}: {message}\n")


# ---------------------------------------------------------------------------
# serialization helpers

def _rat(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _require_printable(values):
    """Refuse exact rationals past the interpreter's int-to-str limit of
    `limit` digits (none when 0 or on an interpreter without it), from bit
    lengths, before any string is built: an integer of at most
    floor(limit log2 10) bits is below 10^limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        return
    bits = (10 ** limit).bit_length() - 1
    need = max(max(abs(v.numerator).bit_length(), v.denominator.bit_length())
               for v in values)
    if need > bits:
        raise UsageError(f"hypothesis every exact coefficient fits the "
                         f"{limit}-digit int-to-str limit fails: one needs "
                         f"{need} bits, more than {bits}")


def dump_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _dump_csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _check_output(path):
    """Reject an --output PATH that cannot be opened for writing, before any
    computation runs and without creating it."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write --output {path}: it is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"cannot write --output {path}: no such directory")


def _write(text: str, path):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(
                f"cannot write --output {path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _check_class(D: int, class_index: int) -> int:
    h = class_number(D)
    if not 0 <= class_index < h:
        raise UsageError(f"class index {class_index} out of range for "
                         f"class number {h}")
    return h


def _positive(value: int, name: str):
    if value < 1:
        raise UsageError(f"{name} must be a positive integer")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classgroup(args) -> int:
    g = class_group(args.disc)
    doc = {"discriminant": g.D,
           "class_number": g.h,
           "identity": g.identity,
           "forms": [list(f) for f in g.forms],
           "generators": [[i, d] for i, d in g.generators]}
    _write(dump_json(doc), args.output)
    return 0


def _cmd_ideals(args) -> int:
    _positive(args.norm, "norm")
    class_number(args.disc)  # validates the discriminant
    rows = ideals_of_norm(args.disc, args.norm)
    doc = {"discriminant": args.disc,
           "norm": args.norm,
           "count": len(rows),
           "ideals": [{"e": e, "a": a, "b": b, "class": ci}
                      for (e, a, b), ci in rows]}
    _write(dump_json(doc), args.output)
    return 0


def _cmd_theta(args) -> int:
    _check_class(args.disc, args.class_index)
    _positive(args.bound, "bound")
    if args.mode == "padic":
        if args.p is None or args.prec is None:
            raise UsageError("padic mode needs --p and --prec")
        _positive(args.prec, "prec")
        char = build_char(args.disc, args.ell, "padic", p=args.p,
                          prec=args.prec)
    elif args.mode == "complex":
        if args.p is not None:
            raise UsageError("--p applies only to padic mode")
        if args.prec is None:
            raise UsageError("complex mode needs --prec")
        _positive(args.prec, "prec")
        char = build_char(args.disc, args.ell, "complex", prec=args.prec)
    else:
        if args.p is not None or args.prec is not None:
            raise UsageError("exact mode takes neither --p nor --prec")
        char = build_char(args.disc, args.ell, "exact")
    series = theta_coeffs(char, args.class_index, args.bound)

    if args.mode == "exact":
        _require_printable([c for v in series for c in (v.x, v.y)])
        coeffs = [{"x": _rat(v.x), "y": _rat(v.y)} for v in series]
    elif args.mode == "complex":
        from mpmath import nstr, workdps
        with workdps(args.prec):
            coeffs = [{"re": nstr(v.real, args.prec),
                       "im": nstr(v.imag, args.prec)} for v in series]
    else:
        coeffs = [v.to_json() for v in series]

    if args.format == "csv":
        rows = [(n, *c.values()) for n, c in enumerate(coeffs, start=1)]
        text = _dump_csv(("n", *coeffs[0]), rows)
    else:
        doc = {"discriminant": args.disc,
               "ell": args.ell,
               "class": args.class_index,
               "bound": args.bound,
               "mode": args.mode}
        if args.p is not None:
            doc["p"] = args.p
        if args.prec is not None:
            doc["prec"] = args.prec
        doc["coefficients"] = coeffs
        text = dump_json(doc)
    _write(text, args.output)
    return 0


def _hpoly_identity(m: int, k: int, which: str) -> bool:
    if which == "combo":
        rhs = h_poly(m, k).compose(RationalPoly([1, -2])) \
            * Fraction(factorial(m + 2 * k), factorial(m))
        return g_poly(m, k) == rhs
    if which == "recur":
        if m < 1:
            raise PolyError("the three term recurrence needs m >= 1")
        lhs = g_poly(m + 1, k) * ((m + 1) ** 2 * (m + k))
        bracket = RationalPoly([m * m + m + 2 * k * m + k,
                                -(m + k) * (2 * m + 2 * k + 2)])
        rhs = (bracket * g_poly(m, k) * (2 * m + 2 * k + 1)
               - g_poly(m - 1, k) * ((m + k + 1) * (m + 2 * k) ** 2))
        return lhs == rhs
    lhs = RationalPoly([1, 1]) ** (2 * k) * h_poly(m, k)
    return lhs == jacobi_poly(m + 2 * k, 0, -2 * k) * 4 ** k


def _cmd_hpoly(args) -> int:
    poly = h_poly(args.m, args.k)
    doc = {"coeffs": [_rat(c) for c in poly.coeffs]}
    code = 0
    if args.check:
        ok = _hpoly_identity(args.m, args.k, args.check)
        doc["check"] = args.check
        doc["pass"] = ok
        code = 0 if ok else 1
    _write(dump_json(doc), args.output)
    return code


def _cmd_sigma(args) -> int:
    _check_class(args.disc, args.class_index)
    _positive(args.level, "level")
    _positive(args.n, "n")
    _positive(args.prec, "prec")
    if args.p == 2 or not isprime(args.p):
        raise UsageError("p must be an odd prime")
    val = sigma_A(args.disc, args.level, class_norm(args.disc,
                  args.class_index), args.n, args.p, args.prec)
    doc = {"discriminant": args.disc,
           "level": args.level,
           "class": args.class_index,
           "n": args.n,
           "p": args.p,
           "prec": args.prec,
           "value": val.to_json()}
    _write(dump_json(doc), args.output)
    return 0


def _context(args) -> HeightContext:
    _positive(args.prec, "prec")
    return HeightContext(args.disc, args.level, args.p, args.r, args.k,
                         n_prec=args.prec)


def _cmd_bc_check(args) -> int:
    _positive(args.mmax, "mmax")
    _positive(args.jobs, "jobs")
    ctx = _context(args)
    report = bc_report(ctx, args.mmax)
    if args.format == "csv":
        rows = [(r["class"], r["m"], r["residual"],
                 "true" if r["pass"] else "false")
                for r in report["results"]]
        text = _dump_csv(("class", "m", "residual", "pass"), rows)
    else:
        text = dump_json(report)
    _write(text, args.output)
    return 0 if report["pass"] else 1


def _cmd_index_value(args, func, key: str) -> int:
    """fourier and heightsum: one p-adic value func(ctx, class, m)."""
    _positive(args.m, "m")
    ctx = _context(args)
    _check_class(args.disc, args.class_index)
    val = func(ctx, args.class_index, args.m)
    doc = {"context": ctx.to_json(),
           "class": args.class_index,
           "m": args.m,
           key: val.to_json()}
    _write(dump_json(doc), args.output)
    return 0


def _cmd_crosscheck(args) -> int:
    _positive(args.m, "m")
    ctx = _context(args)
    _check_class(args.disc, args.class_index)
    report = crosscheck_report(ctx, args.class_index, args.m)
    _write(dump_json(report), args.output)
    return 0 if report["pass"] else 1


def _cmd_params(args) -> int:
    level, p = admissible_params(args.disc, p=args.p, char_ell=args.ell)
    doc = {"discriminant": args.disc, "level": level, "p": p}
    _write(dump_json(doc), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_ctx_flags(p):
    p.add_argument("--disc", type=int, required=True,
                   help="fundamental discriminant < 0")
    p.add_argument("--level", type=int, required=True,
                   help="level, a product of distinct split primes")
    p.add_argument("--p", type=int, required=True,
                   help="odd split prime not dividing level or disc")
    p.add_argument("--r", type=int, required=True,
                   help="half weight parameter, r > k")
    p.add_argument("--k", type=int, required=True,
                   help="character weight parameter, k >= 1")
    p.add_argument("--prec", type=int, required=True,
                   help="certified digits requested")


def build_parser() -> _Parser:
    top = _Parser(prog="padicheights",
                  description="exact class group, theta coefficient and "
                              "p-adic height coefficient reports")
    sub = top.add_subparsers(dest="command", required=True,
                             metavar="command")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--output", metavar="PATH",
                     help="write the report to PATH instead of stdout")

    p = sub.add_parser("classgroup", parents=[out],
                       help="reduced forms, class number, generators")
    p.add_argument("--disc", type=int, required=True,
                   help="fundamental discriminant < 0")
    p.set_defaults(func=_cmd_classgroup)

    p = sub.add_parser("ideals", parents=[out],
                       help="integral ideals of a given norm with classes")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--norm", type=int, required=True,
                   help="ideal norm to enumerate")
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("theta", parents=[out],
                       help="character-weighted theta coefficients")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--ell", type=int, required=True,
                   help="even infinity type of the character")
    p.add_argument("--class", dest="class_index", type=int, required=True,
                   help="ideal class index")
    p.add_argument("--bound", type=int, required=True,
                   help="largest coefficient index")
    p.add_argument("--mode", choices=("exact", "complex", "padic"),
                   required=True)
    p.add_argument("--p", type=int, help="prime, padic mode only")
    p.add_argument("--prec", type=int,
                   help="digits (padic) or decimal places (complex)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("hpoly", parents=[out],
                       help="weight polynomial coefficients")
    p.add_argument("--m", type=int, required=True, help="degree")
    p.add_argument("--k", type=int, required=True,
                   help="weight shift parameter")
    p.add_argument("--check", choices=("combo", "recur", "jacobi"),
                   help="verify one defining identity at (m, k)")
    p.set_defaults(func=_cmd_hpoly)

    p = sub.add_parser("sigma", parents=[out],
                       help="genus-weighted divisor log sum")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--class", dest="class_index", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="argument index")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--prec", type=int, required=True)
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("bc-check", parents=[out],
                       help="operator identity residuals over all classes "
                            "and m <= mmax")
    _add_ctx_flags(p)
    p.add_argument("--mmax", type=int, required=True,
                   help="largest index in the sweep")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for existing command lines; the sweep "
                        "always runs serially")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_bc_check)

    p = sub.add_parser("fourier", parents=[out],
                       help="Fourier coefficient of the log-weighted "
                            "measure")
    _add_ctx_flags(p)
    p.add_argument("--m", type=int, required=True, help="coefficient index")
    p.add_argument("--class", dest="class_index", type=int, default=0)
    p.set_defaults(func=lambda args: _cmd_index_value(args, fourier_am,
                                                      "coefficient"))

    p = sub.add_parser("heightsum", parents=[out],
                       help="local height coefficient sum")
    _add_ctx_flags(p)
    p.add_argument("--m", type=int, required=True, help="coefficient index")
    p.add_argument("--class", dest="class_index", type=int, default=0)
    p.set_defaults(func=lambda args: _cmd_index_value(args, local_height_sum,
                                                      "value"))

    p = sub.add_parser("crosscheck", parents=[out],
                       help="operator image of the height sums against the "
                            "closed form from Fourier coefficients")
    _add_ctx_flags(p)
    p.add_argument("--m", type=int, required=True, help="coefficient index")
    p.add_argument("--class", dest="class_index", type=int, default=0)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("params", parents=[out],
                       help="smallest admissible (level, p) for a field")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--p", type=int, help="fix the prime")
    p.add_argument("--ell", type=int,
                   help="require a p-adic character of this infinity type")
    p.set_defaults(func=_cmd_params)

    return top


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.output:
            _check_output(args.output)
        return args.func(args)
    except _REJECTIONS as exc:
        sys.stderr.write(f"padicheights: {exc}\n")
        return 2


def main():
    sys.exit(run())
