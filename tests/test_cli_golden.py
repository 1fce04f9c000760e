"""Golden digests of cheap CLI command lines.

Each entry of cli_golden.json maps a command line to the sha256 of its exit
code, standard output and standard error.  The lines cover what the
benchmark digests in perfbench/digests.json do not: theta in all three
modes, sigma, fourier, heightsum at small and large m, bc-check with CSV
output, cross-checks on fields with class number 2 and 3 (and one where p
divides binom(2r-2, r-k-1)), and the exit-2 rejections.

The tests only read the table.  After a change that is meant to alter
report bytes, rewrite it with

    PYTHONPATH=src python3 tests/test_cli_golden.py --record

and say in CHANGES.md which lines changed and why.
"""

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from padicheights import cli

TABLE = Path(__file__).with_name("cli_golden.json")

LINES = [
    # theta, all three modes and both formats
    "theta --disc -7 --ell 2 --class 0 --bound 10 --mode exact",
    "theta --disc -7 --ell 4 --class 0 --bound 12 --mode exact --format csv",
    "theta --disc -23 --ell 2 --class 1 --bound 8 --mode complex --prec 20",
    "theta --disc -23 --ell 2 --class 2 --bound 8 --mode complex --prec 12 "
    "--format csv",
    "theta --disc -23 --ell 2 --class 1 --bound 8 --mode padic --p 29 "
    "--prec 8",
    "theta --disc -7 --ell 2 --class 0 --bound 10 --mode padic --p 11 "
    "--prec 10 --format csv",
    "params --disc -23 --ell 2",
    "params --disc -31 --ell 2",
    # sigma on a field with four genera
    "sigma --disc -195 --level 7 --class 1 --n 60 --p 11 --prec 20",
    "sigma --disc -195 --level 7 --class 3 --n 1001 --p 11 --prec 20",
    "fourier --disc -7 --level 23 --p 11 --r 2 --k 1 --m 11 --prec 30",
    "fourier --disc -31 --level 7 --p 5 --r 2 --k 1 --m 15 --class 2 "
    "--prec 20",
    # heightsum on its one (bank) path: m = 5 is an empty sum, an exact
    # zero, and m = 14291 a large index
    "heightsum --disc -7 --level 23 --p 11 --r 2 --k 1 --m 5 --prec 30",
    "heightsum --disc -7 --level 23 --p 11 --r 2 --k 1 --m 13 --prec 30",
    "heightsum --disc -7 --level 23 --p 11 --r 2 --k 1 --m 14291 --prec 30",
    "bc-check --disc -7 --level 23 --p 11 --r 2 --k 1 --mmax 3 --prec 20 "
    "--format csv",
    "bc-check --disc -31 --level 7 --p 5 --r 2 --k 1 --mmax 2 --prec 20 "
    "--format csv",
    # cross-checks on h = 3, h = 2 (non-trivial genus) and p | binom
    *(f"crosscheck --disc -31 --level 7 --p 5 --r 2 --k 1 --m 15 --class {c} "
      "--prec 30" for c in range(3)),
    *(f"crosscheck --disc -51 --level 11 --p 5 --r 2 --k 1 --m 10 --class {c} "
      "--prec 30" for c in range(2)),
    *(f"crosscheck --disc -59 --level 3 --p 5 --r 2 --k 1 --m 10 --class {c} "
      "--prec 30" for c in range(2)),
    *(f"crosscheck --disc -31 --level 7 --p 5 --r 4 --k 1 --m 15 --class {c} "
      "--prec 30" for c in range(2)),
    # exit 2: one named hypothesis on stderr
    "bc-check --disc -7 --level 23 --p 13 --r 2 --k 1 --mmax 2 --prec 10",
    "bc-check --disc -47 --level 7 --p 3 --r 2 --k 1 --mmax 3 --prec 10",
    "fourier --disc -7 --level 23 --p 11 --r 2 --k 1 --m 7 --prec 10",
    "fourier --disc -7 --level 5 --p 11 --r 2 --k 1 --m 11 --prec 10",
    "crosscheck --disc -7 --level 23 --p 11 --r 2 --k 1 --m 253 --prec 30",
    "crosscheck --disc -7 --level 23 --p 11 --r 2 --k 1 --m 11 --prec 30",
    "crosscheck --disc -7 --level 23 --p 11 --r 2 --k 1 --m 19305 --prec 30",
    "heightsum --disc -7 --level 23 --p 11 --r 2 --k 1 --m 23 --prec 30",
    "heightsum --disc -7 --level 23 --p 11 --r 2 --k 1 --m 2 --prec 30",
    "theta --disc -7 --ell 2 --class 5 --bound 3 --mode exact",
    "theta --disc -55 --ell 2 --class 0 --bound 3 --mode padic --p 13 "
    "--prec 3",
    "sigma --disc -7 --level 23 --class 0 --n 3 --p 9 --prec 5",
    "params --disc -7 --ell 3",
    "bc-check --disc -7 --level 23 --p 11 --r 2 --k 1 --prec 10",
    "hpoly --m 0 --k 1 --check recur",
]


def digest(line: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(shlex.split(line))
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


# heightsum cells whose lattice weights pass 2^62 (ell = 14 and ell = 10),
# with the digests the term-by-term oracle prints for them
WIDE = {
    "heightsum --disc -7 --level 23 --p 11 --r 8 --k 7 --m 5 --prec 30":
    "8e16b5285f023e08cc88fbc5b9cf959e9a5a680be634defdc7ef262189076108",
    "heightsum --disc -7 --level 23 --p 11 --r 8 --k 7 --m 13 --prec 30":
    "edbe5ad41f32d10c7477177a9025bd074e1f439081fc4b40f367e8f74538adbe",
    "heightsum --disc -31 --level 7 --p 5 --r 6 --k 5 --m 3 --class 1 "
    "--prec 30":
    "077348e857384a45059c1663b620a5fbb82f982dc7a9f9edef5c517f7ec3d514",
}


@pytest.mark.parametrize("line", sorted(WIDE))
def test_wide_weight_heightsum_digest(line):
    assert digest(line) == WIDE[line]


def test_table_lists_every_line():
    assert sorted(json.loads(TABLE.read_text())) == sorted(LINES)


@pytest.mark.parametrize("line", LINES)
def test_golden_digest(line):
    assert digest(line) == json.loads(TABLE.read_text())[line]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_cli_golden.py "
                 "--record")
    TABLE.write_text(json.dumps({line: digest(line) for line in LINES},
                                indent=1) + "\n")
