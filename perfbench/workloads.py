"""The workload pools: command lines of the padicheights CLI.

Every member certifies (exit 0, "pass": true) at the commit that recorded
digests.json. One pass of a workload runs each member of its pool once;
README.md says why each pool stresses the layer it does.
"""

_PREC = ["--prec", "30"]


def _crosscheck(D, N, p, r, k, m, cls=0):
    return ["crosscheck", "--disc", str(D), "--level", str(N), "--p", str(p),
            "--r", str(r), "--k", str(k), "--m", str(m), "--class", str(cls),
            *_PREC]


POOLS = {
    # nearly every n is a sigma-cache miss; the h=4 field runs the class
    # number > 1 cross-check
    "crosscheck-sigma":
        [_crosscheck(-7, 23, 11, r, k, 33) for r, k in ((2, 1), (3, 1), (3, 2))]
        + [_crosscheck(-55, 13, 7, 2, 1, 21, cls) for cls in range(4)],
    # one sweep over 3 classes x 30 indices that reads the same banks and
    # sigma values many times
    "bcsweep-h3":
        [["bc-check", "--disc", "-31", "--level", "7", "--p", "5", "--r", "2",
          "--k", "1", "--mmax", "30", "--jobs", "1", *_PREC]],
    # a large level divides the sigma work by N while the lattice scan
    # still covers every point; (3, 2) takes the split 26-bit bins
    "scan-wide":
        [_crosscheck(-7, 667, 11, r, k, m)
         for m in (33, 55) for r, k in ((2, 1), (3, 2))],
}


def key(argv):
    """The digests.json key of a command line."""
    return " ".join(argv)
