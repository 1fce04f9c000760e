"""Class-indexed coefficient sequences and the operator identity verifiers.

For a context (D, level N, odd split prime p, weights r > k > 0) with the
p-adic theta character chi of infinity type (2k, 0), this module computes

    C_m = m^(r-k-1) * sum_{1 <= n <= m|D|/N} r_chi(m|D| - nN) sigma(n) H(t_n),
    B_m = the same sum restricted to n coprime to p,

where t_n = 1 - 2nN/(m|D|), H is the weight-(r-k-1, k) shifted Jacobi
polynomial and sigma the genus-weighted p-adic log divisor sum.  On top of
these it provides the index/class shift operators, the residual verifier for
the quartic operator identity relating B and C (the bc identity), the
Fourier coefficients of the log-weighted measure, the local height
coefficient sum, and the end-to-end height/Fourier residual.

Everything runs in plain integer arithmetic mod p^W with W = n_prec + 10
guard digits.  Theta coefficients come from a vectorized lattice enumeration
that holds every integer as balanced 16-bit digits in [-2^15, 2^15): each
weight (in python ints where it could pass 2^62) is cut into as many
digits as its residue's weight bound needs, and each digit is binned into
an int32 row, which a bin of at most _COUNT_BOUND digits cannot overflow.
The scan bins one block of _BLOCK_CELLS = 2^12 points at a time into the
dense rows of the residue it scans, and the series are read out in chunks
of as many n, so the scratch memory of a scan is fewer than 24 8-byte
words per block cell (0.75 MiB) beside one residue's dense rows, and that
of a sum is bounded by the block, whatever the bank's size.
Index m only reads norms in the residue class of m|D| mod N, and the scan
visits only those points: the cosets of N Z^2 on which the form takes a
requested residue (see _Cosets), each inside that residue's own ellipse.
Classes c and c^-1 share one bank, since (s, t) -> (s, -t) maps the lattice of
the reduced form (a, b, c) onto that of (a, -b, c) and negates SUM V; so c^-1
reads the bank of c with SUM V negated, and their B/C sums come from one pass.
Per residue the bank keeps one int32 position and the int16 digits of both
sums, as many as its largest sum needs, for each nonzero norm below the
largest requested norm (see _ThetaBank), per inverse pair, with no cap.
The divisor sums sigma(n) n^d mod p^W are kept once per genus signature as
rows of 16-bit limbs (see _SigmaStore), and the B/C sums are exact integer
sums of digit-times-limb products, taken one chunk at a time as float64
matrix products (see _bc_sums and _require_sum_bounds).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb, gcd, isqrt, lcm, prod

import numpy as np

from .heckechar import CharBuildError, build_char
from .padic import PadicNumber, _vp, epsilon_A, iwasawa_log, sigma_A
from .polykit import h_poly
from .quadfield import (class_index_of_ideal, class_norm, count_rA,
                        discriminant_factorizations, divisors, factorint,
                        ideal_conj, ideal_of_form, isprime, kronecker,
                        split_type, validate_discriminant)

GUARD = 10
# crude but provable bound on the number of lattice points of a given norm
# (2 * sum over divisors of |kronecker| <= 2 * d(n), and d(n) < 2^11 for
# n < 10^9, which _require_norm_bound enforces through _QMAX_LIMIT).  A bin
# adds one balanced 16-bit digit of the weight of each point of its norm, so
# its partial sums are of size <= _COUNT_BOUND * 2^15 = 2^27: no int32 bin
# overflows
_COUNT_BOUND = 1 << 12
_QMAX_LIMIT = 10 ** 9
# points per scan block and positions per series chunk: the scratch memory
# of a scan (a few dozen int64 arrays of this length) and of a sum (a few
# dozen float64 rows of this length) is bounded by it, not by the bank's
# size.  The bcsweep-h3 benchmark peaks at 48 MiB of RSS with 2^12 and at
# 55 MiB with 2^16, at the same speed (BENCH_15.json)
_BLOCK_CELLS = 1 << 12


def _require_sum_bounds(K: int):
    """The exactness hypotheses of the sums of _bc_sums.  Each term is a
    bank digit in [-2^15, 2^15) times a 16-bit limb of the sigma store, below
    2^31 < 2^32 in size.  A chunk's float64 matrix product adds at
    most _BLOCK_CELLS terms, so its sums are integers below
    _BLOCK_CELLS * 2^32 < 2^53 in every order of addition; the int64
    accumulator adds the terms of at most K positions, below
    K * 2^32 < 2^63, which holds since K < _QMAX_LIMIT < 2^30."""
    if _BLOCK_CELLS << 32 >= 1 << 53:
        raise HeightError(f"hypothesis _BLOCK_CELLS * 2^32 < 2^53 of the "
                          f"float64 limb sums fails: _BLOCK_CELLS = "
                          f"{_BLOCK_CELLS}")
    if K << 32 >= 1 << 63:
        raise HeightError(f"hypothesis K * 2^32 < 2^63 of the int64 limb "
                          f"sums fails: K = {K}")


class HeightError(ValueError):
    pass


def _require_norm_bound(qmax: int):
    """The bound on the lattice norms a bank may scan (see _COUNT_BOUND)."""
    if qmax >= _QMAX_LIMIT:
        raise HeightError(f"lattice norms up to {qmax} exceed the "
                          f"exactness bound {_QMAX_LIMIT}")


def _require_index(m):
    if not (isinstance(m, int) and m >= 1):
        raise HeightError("index m must be a positive integer")


class PrecisionLedger:
    """Accumulated worst-case digit loss, entry by entry."""

    def __init__(self):
        self.entries = []

    def log(self, source: str, digits: int):
        self.entries.append((source, int(digits)))

    @property
    def total(self) -> int:
        return sum(d for _, d in self.entries)

    def to_json(self) -> dict:
        return {"entries": [{"source": s, "digits": d} for s, d in self.entries],
                "total": self.total}


def _weight_bound(umax: int, vmax: int, D: int, ell: int):
    """Worst-case |U|, |V| with (u + v sqrt(D))^ell = U + V sqrt(D)."""
    bu = bv = 0
    for j in range(ell + 1):
        t = comb(ell, j) * umax ** (ell - j) * vmax ** j * abs(D) ** (j // 2)
        if j % 2:
            bv += t
        else:
            bu += t
    return bu, bv


def _weights(u, v, D: int, ell: int):
    """(U, V) arrays with (u + v sqrt(D))^ell = U + V sqrt(D), exact.

    One binary power of the pair (u, v) in Z[sqrt(D)], from its square
    since ell is even.  It runs on int64 arrays when _weight_bound < 2^62,
    and on object arrays of python ints otherwise.  That check bounds every
    int64 intermediate: with (bu_j, bv_j) the bound at exponent j, each part
    of a product of x^i and x^j (i + j <= ell) adds terms of size at most
    bu_i bu_j, |D| bv_i bv_j or bu_i bv_j, whose sums are bu_(i+j) and
    bv_(i+j), and these grow with the exponent."""

    def square(x):
        return x[0] * x[0] + D * (x[1] * x[1]), 2 * (x[0] * x[1])

    x, r, e = square((u, v)), None, ell // 2
    while e:
        if e & 1:
            r = x if r is None else (r[0] * x[0] + D * (r[1] * x[1]),
                                     r[0] * x[1] + r[1] * x[0])
        e >>= 1
        if e:
            x = square(x)
    return r


def _digit_count(bound: int) -> int:
    """The fewest count with bound < (2^15 - 1) 2^(16 (count - 1))."""
    return 1 + ((bound // 0x7FFF).bit_length() + 15) // 16


def _cut(w, count: int):
    """The `count` balanced 16-bit digits of the integer array w (int64 or
    python ints), low first, as int32 arrays: w = sum_i digit_i 2^(16 i).
    The low ones lie in [-2^15, 2^15) and add up to less than
    2^(16 (count - 1)) in size, so the top one does too once
    count >= _digit_count(max |w|)."""
    digits = []
    for _ in range(count - 1):
        d = ((w + 0x8000) & 0xFFFF) - 0x8000
        digits.append(d.astype(np.int32))
        w = (w - d) >> 16
    return digits + [w.astype(np.int32)]


def _carry(sums):
    """The int32 digit sums (2, d, n), each of size <= 2^27, as balanced
    16-bit digits in int16 (2, d + 1, n): each carry is below 2^12 in size."""
    out = np.empty((2, sums.shape[1] + 1, sums.shape[2]), dtype=np.int16)
    c = 0
    for i in range(sums.shape[1]):
        out[:, i], c = _cut(sums[:, i] + c, 2)
    out[:, -1] = c
    return out


class _Cosets:
    """The classes (s, t) mod N with Q(s, t) = rho (mod N), for a primitive
    form Q = (a, b, c) of discriminant D = 1 mod 4 and any N >= 1.

    A unimodular change of variables (s, t) = (x s' + u t', y s' + w t')
    makes the t'^2 coefficient C = Q(u, w) prime to N (a primitive form
    represents a class prime to each q | N, so the search ends).  The new
    form (A, B, C) has 4C Q = (2C t' + B s')^2 - D s'^2, and C(Q - rho) = 0
    (mod N) is 4C(Q - rho) = 0 (mod 4N), so Q = rho (mod N) exactly when
    z = 2C t' + B s' solves z^2 = D s'^2 + 4C rho (mod 4N).  That root set
    is closed under z -> z + 2N, and its z in [0, 2N) give each t' mod N
    once: t' = ((z - B s') / 2) C^-1, where z - B s' is even because B and
    z - s' are (D = 1 mod 4).  The roots are read from one table of z^2
    mod 4N, so a residue costs O(N) and no N x N table is built."""

    def __init__(self, form, D: int, N: int):
        a, b, c = form

        def q(s, t):
            return a * s * s + b * s * t + c * t * t

        u, w = next((u, h - u) for h in count(1) for u in range(h + 1)
                    if gcd(u, h - u) == 1 and gcd(q(u, h - u), N) == 1)
        x = pow(w, -1, u) if u else 1
        y = (x * w - 1) // u if u else 0
        A, C = q(x, y), q(u, w)
        self.B = q(x + u, y + w) - A - C
        self.N, self.M4 = N, 4 * N
        self.move = (x, u, y, w)
        self.C4, self.invC = 4 * C, pow(C, -1, N)
        z = np.arange(2 * N, dtype=np.int64)
        sq = z * z % self.M4
        self.roots = np.argsort(sq, kind="stable")
        self.first = np.zeros(self.M4 + 1, dtype=np.int64)
        np.cumsum(np.bincount(sq, minlength=self.M4), out=self.first[1:])
        self.s = np.arange(N, dtype=np.int64)
        self.ds2 = (D % self.M4) * (self.s * self.s % self.M4) % self.M4

    def __call__(self, rho: int):
        """(s0, t0) int64 arrays in [0, N): every class of Q = rho once."""
        N = self.N
        v = (self.ds2 + self.C4 * rho) % self.M4
        lo = self.first[v]
        cnt = self.first[v + 1] - lo
        sp = np.repeat(self.s, cnt)
        k = np.arange(sp.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        z = self.roots[np.repeat(lo, cnt) + k]
        tp = (z - self.B * sp) // 2 * self.invC % N
        x, u, y, w = self.move
        return (x * sp + u * tp) % N, (y * sp + w * tp) % N


class _ThetaBank:
    """Exact sums (SUM U, SUM V) of xbar^ell over the lattice points of one
    inverse-class pair {c, c^-1}, grouped by norm j.

    The reduced forms of c and c^-1 are (a, b, c) and (a, -b, c) (a class
    with an ambiguous form is its own inverse), and (s, t) -> (s, -t) maps
    the lattice of one onto the other, keeping the norm and sending
    u + v sqrt(D) to u - v sqrt(D).  So the bank scans the form of the
    pair's smaller class index, and the other class reads the same sums
    with SUM V negated (see HeightContext._cb).

    Index m reads j = m|D| - nN for 1 <= n < m|D|/N, an arithmetic
    progression in the residue rho = m|D| mod N.  For each requested
    residue the bank keeps the sorted int32 positions i of the nonzero sums
    at j = rho + iN, for j below the largest m|D| requested in that residue
    (its top), and both sums there as balanced 16-bit digits: one int16
    array (2, d, positions), SUM U then SUM V, row i of weight 2^(16 i), d
    the fewest rows that hold the residue's sums.  Index m reads its n-th
    term at position K - n (K = (m|D| - rho)/N).  The residues never
    overlap, so the bank of a pair holds 4 + 4d bytes for each nonzero norm
    below the largest requested m|D| (12 at ell = 2, where two digits hold
    every sum); it needs no memory cap of its own.

    The scan visits only points that some residue reads.  The points with
    Q = rho (mod N) are the cosets (s0, t0) + N Z^2 that _Cosets lists, and
    each coset is cut into rows s = s0 + Ni, whose exact t-span inside the
    residue's own ellipse Q < top follows from 4cQ = (2ct + bs)^2 + |D|s^2.
    A residue is binned, _BLOCK_CELLS points at a time, into int32 rows, as
    many per weight as its own weight bound needs, and compacted when its
    scan ends, so only the residue being scanned is ever dense.  It is
    rescanned only when its top grows, so the residues a bank holds stay."""

    def __init__(self, ctx, class_index: int):
        # no reference back to ctx: without a cycle, a context and its
        # banks are freed as soon as the last caller drops the context
        self.D, self.aD, self.N, self.ell = ctx.D, ctx.aD, ctx.level, ctx.ell
        self.form = ctx.group.forms[class_index]
        self.tops = {}             # rho -> largest m|D| requested in rho
        self.arrays = {}           # rho -> (positions, digits)
        self._cosets = _Cosets(self.form, ctx.D, ctx.level)

    # -- public -------------------------------------------------------------

    def ensure(self, m_values):
        aD, N = self.aD, self.N
        tops = dict(self.tops)
        for m in m_values:
            _require_index(m)
            MD = m * aD
            rho = MD % N
            tops[rho] = max(tops.get(rho, 0), MD)
        if tops != self.tops:
            self._scan(tops)

    def series(self, m: int):
        """Yield (ns, digits), one chunk of at most _BLOCK_CELLS
        consecutive n at a time, in increasing n: ns is the int64 array of
        the n with a nonzero lattice sum for index m, and digits the int16
        view of shape (2, d, ns.size) that holds SUM U and SUM V at those n
        (sum s at n is sum_i digits[s, i] 2^(16 i)).  Chunks with no such n
        are skipped."""
        rho, K = self._position(m)
        pos, digits = self.arrays[rho]
        # chunk j holds n in (jB, (j+1)B] (B = _BLOCK_CELLS), at positions
        # K - (j+1)B .. K - jB - 1; one search finds the ends of every chunk,
        # since each search with int64 keys copies the whole of pos to int64
        cuts = np.searchsorted(pos, K - np.minimum(
            np.arange(0, K + _BLOCK_CELLS, _BLOCK_CELLS), K)).tolist()
        for hi, lo in zip(cuts, cuts[1:]):
            if lo < hi:
                yield (K - pos[lo:hi][::-1].astype(np.int64),
                       digits[:, :, lo:hi][:, :, ::-1])

    def _position(self, m: int):
        """(rho, K): index m reads n at position K - n of residue rho."""
        N = self.N
        MD = m * self.aD
        rho = MD % N
        if MD > self.tops.get(rho, 0):
            raise HeightError("theta bank not prepared for this index")
        return rho, (MD - rho) // N

    # -- internals ------------------------------------------------------------

    def _scan(self, tops):
        _require_norm_bound(max(tops.values()))
        # a residue keeps its arrays unless its top grew
        self.arrays = {rho: self.arrays[rho] if top == self.tops.get(rho)
                       else self._scan_residue(rho, top)
                       for rho, top in sorted(tops.items())}
        self.tops = tops

    def _scan_residue(self, rho: int, top: int):
        """Residue rho's dense columns with a nonzero digit sum, carried a
        block at a time (no scratch spans them), less those with sums 0
        (weights +-2^15 bin -2^16 and 1), in the fewest digit rows, at their
        positions (< top / N, so int32)."""
        rows = self._dense(rho, top)
        pos = rows[0] != 0          # the nonzero columns, then their indices
        for i in range(1, len(rows)):
            pos |= rows[i] != 0
        pos = np.flatnonzero(pos).astype(np.int32)
        digits = np.empty((2, len(rows) // 2 + 1, pos.size), dtype=np.int16)
        for j in range(0, pos.size, _BLOCK_CELLS):
            cols = pos[j:j + _BLOCK_CELLS]
            digits[:, :, j:j + _BLOCK_CELLS] = _carry(np.array(
                [row[cols] for row in rows]).reshape(2, -1, cols.size))
        del rows
        keep = digits.any(axis=(0, 1))
        d = 1 + max(np.flatnonzero(digits.any(axis=(0, 2))), default=-1)
        return pos[keep], digits[:, :d, keep]

    def _dense(self, rho: int, top: int):
        """The int32 rows, one per digit of SUM U then of SUM V, that bin the
        points of Q = rho (mod N) with Q < top at position Q // N."""
        aD, N = self.aD, self.N
        a, b, c = self.form
        smax = isqrt(4 * c * top // aD) + 1
        tmax = isqrt(4 * a * top // aD) + 1
        bound = max(_weight_bound(2 * a * smax + abs(b) * tmax, tmax, self.D,
                                  self.ell))
        # weights past int64 are python ints; each is cut into the fewest
        # digits whose top one holds it (see _cut)
        wide = bound >= 1 << 62
        rows = [np.zeros((top - rho) // N, dtype=np.int32)
                for _ in range(2 * _digit_count(bound))]
        s0, t0 = self._cosets(rho)
        # one row per coset and s = s0 + Ni in [-smax, smax]
        ilo = -((smax + s0) // N)
        ni = (smax - s0) // N - ilo + 1
        k = np.repeat(np.arange(s0.size), ni)
        s = s0[k] + N * (ilo[k] + np.arange(k.size)
                         - np.repeat(np.cumsum(ni) - ni, ni))
        t0 = t0[k]
        # the row's t with Q(s, t) < top: (2ct + bs)^2 < 4c top - |D| s^2;
        # float rounding moves an end by at most one step, which the exact
        # integer checks take back
        rad = 4 * c * top - aD * s * s
        keep = rad > 0
        s, t0, rad = s[keep], t0[keep], np.sqrt(rad[keep])
        lo = np.ceil((-b * s - rad) / (2 * c)).astype(np.int64)
        hi = np.floor((-b * s + rad) / (2 * c)).astype(np.int64)

        def inside(t):
            return (a * s) * s + (b * s) * t + (c * t) * t < top

        lo -= inside(lo - 1)
        lo += ~inside(lo)
        hi += inside(hi + 1)
        hi -= ~inside(hi)
        # the row's points t = t0 + Nj for ceil((lo-t0)/N) <= j <= (hi-t0)//N
        jlo = -((t0 - lo) // N)
        cnt = (hi - t0) // N - jlo + 1
        keep = cnt > 0
        s, cnt = s[keep], cnt[keep]
        cum = np.zeros(cnt.size + 1, dtype=np.int64)
        np.cumsum(cnt, out=cum[1:])
        # point number p of the residue lies in row r = the last cum[r] <= p,
        # at t = tb[r] + Np
        tb = (t0 + N * jlo)[keep] - N * cum[:-1]
        total = int(cum[-1])
        for p0 in range(0, total, _BLOCK_CELLS):
            p1 = min(p0 + _BLOCK_CELLS, total)
            r0 = int(np.searchsorted(cum, p0, "right")) - 1
            r1 = int(np.searchsorted(cum, p1, "left"))
            row = np.repeat(np.arange(r0, r1),
                            np.minimum(cum[r0 + 1:r1 + 1], p1)
                            - np.maximum(cum[r0:r1], p0))
            S = s[row]
            T = tb[row] + N * np.arange(p0, p1, dtype=np.int64)
            Q = (a * S) * S + (b * S) * T + (c * T) * T
            # rho = 0 meets the origin: Q = 0 at weight 0, a no-op in bin 0
            u = (2 * a) * S + b * T
            if wide:
                u, T = u.astype(object), T.astype(object)
            U, V = _weights(u, T, self.D, self.ell)
            self._bin(rows, Q // N, U, V)
        return rows

    def _bin(self, rows, idx, U, V):
        # np.add.at touches only the block's own bins: no scratch array spans
        # the index range, which for a block that crosses every row is most
        # of the residue
        count = len(rows) // 2
        for row, digit in zip(rows, _cut(U, count) + _cut(V, count)):
            np.add.at(row, idx, digit)


class _SigmaStore:
    """The values sigma(n) n^d mod p^W, d = 0 .. degs - 1, of one genus
    signature, as rows of 16-bit limbs.

    index[n] is the row of n, or -1 while n is not computed.  A row holds
    the values for d = 0, 1, ... in turn, each as `limbs` limbs, least
    significant first.  Rows are appended a batch at a time, in the order
    the sums first read them."""

    def __init__(self, degs: int, limbs: int):
        self.degs, self.limbs = degs, limbs
        self.index = np.full(1, -1, dtype=np.int32)
        self.rows = np.zeros((0, degs * limbs), dtype=np.uint16)
        self.size = 0

    def grow(self, limit: int):
        """Extend the index over 0 <= n <= limit."""
        if self.index.size > limit:
            return
        index = np.full(limit + 1, -1, dtype=np.int32)
        index[:self.index.size] = self.index
        self.index = index

    def gather(self, ns, fill):
        """The rows of the distinct n of the int64 array ns; the missing
        rows are first appended from fill(list of n)."""
        at = self.index[ns]
        new = ns[at < 0]
        if new.size:
            end = self.size + new.size
            if end > len(self.rows):
                rows = np.empty((max(end, 2 * len(self.rows)),
                                 self.rows.shape[1]), dtype=np.uint16)
                rows[:self.size] = self.rows[:self.size]
                self.rows = rows
            self.rows[self.size:end] = fill(new.tolist())
            self.index[new] = np.arange(self.size, end, dtype=np.int32)
            self.size = end
            at = self.index[ns]
        return self.rows[at]


class HeightContext:
    """Validated parameter set (D, N, p, r, k) with its theta character,
    working-precision data, lattice banks and sigma stores.

    The sigma store of a genus signature (see _SigmaStore) holds
    sigma(n) n^d mod p^W for d < r - k, the degrees of the B/C weight
    polynomial in n; that layout is fixed here, whatever the sums later
    read."""

    def __init__(self, D: int, level: int, p: int, r: int, k: int,
                 n_prec: int = 30, twist=None):
        validate_discriminant(D)
        if not (isinstance(level, int) and level >= 3):
            raise HeightError("level must be an integer >= 3")
        if not (isinstance(r, int) and isinstance(k, int) and 0 < k < r):
            raise HeightError("weights must satisfy 0 < k < r")
        if p == 2 or not isprime(p):
            raise HeightError("p must be an odd prime")
        if (level * D) % p == 0:
            raise HeightError("p must not divide N*D")
        if split_type(D, p) != "split":
            raise HeightError(f"p = {p} is {split_type(D, p)} in Q(sqrt({D})), "
                              "but a split prime is required")
        for q in sorted(factorint(level)):
            if split_type(D, q) != "split":
                raise HeightError(f"level factor {q} is {split_type(D, q)} in "
                                  f"Q(sqrt({D})), but every prime of N must split")
        if n_prec < 1:
            raise HeightError("target precision must be >= 1")
        _require_norm_bound(-D)     # every index m >= 1 reads norms to m|D|
        self.D, self.aD = D, -D
        self.level, self.p, self.r, self.k = level, p, r, k
        self.n_prec = n_prec
        self.W = n_prec + GUARD
        self.twist = tuple(twist) if twist is not None else None
        try:
            self.chi = build_char(D, 2 * k, "padic", p=p, prec=self.W,
                                  twist=twist)
        except CharBuildError as e:
            raise HeightError(f"theta character unavailable: {e}") from e
        self.group = self.chi.group
        self.h = self.group.h
        self.ell = 2 * k
        self.m_H = r - k - 1
        self.binom = comb(2 * r - 2, r - k - 1)
        self.Hpoly = h_poly(self.m_H, k)
        self.delta = lcm(*(c.denominator for c in self.Hpoly.coeffs))
        # delta * H has integer coefficients, since delta is their lcm
        self._gam = [(c * self.delta).numerator for c in self.Hpoly.coeffs]
        self.ledger = PrecisionLedger()
        vd = _vp(self.delta, p)
        self.ledger.log("weight polynomial denominator p-part", vd)
        if vd:
            raise HeightError("weight polynomial denominator divisible by p")
        self.ledger.log("binomial normalizer p-part", _vp(self.binom, p))
        self.ledger.log("sigma log values (exact mod p^W)", 0)
        self.ledger.log("theta lattice sums (exact integers)", 0)
        self.slack = self.ledger.total

        P = self.chi.prime_above
        Pb = ideal_conj(D, P)
        self.cP = class_index_of_ideal(D, P)
        self.cPb = class_index_of_ideal(D, Pb)
        self.chiP = self.chi.chi_value(P)
        self.chiPb = self.chi.chi_value(Pb)
        self.pW = p ** self.W
        self.shat = self.chi.s_D.residue(self.W)
        self._hden_inv = pow(self.delta * self.aD ** self.m_H, -1, self.pW)

        # class ci reads the bank of its inverse pair, keyed by the pair's
        # smaller class index, with SUM V times sign (see _ThetaBank)
        self._bank_of = []
        for ci in range(self.h):
            inv = self.group.inv(ci)
            self._bank_of.append((ci, 1) if ci <= inv else (inv, -1))
        self._banks = {}
        self._sums = {}
        self._spf = None
        self._plog = {}
        self._sigma_store = {}
        self._class_const = {}
        self._uf_terms = None
        self._build_splits()

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"D": self.D, "level": self.level, "p": self.p, "r": self.r,
                "k": self.k, "n_prec": self.n_prec,
                "twist": list(self.twist) if self.twist else None}

    # -- genus-weighted divisor sums ------------------------------------------

    def _build_splits(self):
        # D, D1 and D2 are odd fundamental discriminants, so each (Di/.) is a
        # character mod |Di| on the positive integers: one table apiece
        def table(d):
            return [kronecker(d, a) for a in range(abs(d))]

        self._chiD = table(self.D)
        # one genus split D = D1 * D2 per coprime factorization, g = |D2|
        self._splits = [(abs(D2), table(D1), table(D2),
                         kronecker(D2, -self.level))
                        for D1, D2 in discriminant_factorizations(self.D)]
        self._class_sig = []
        for ci in range(self.h):
            na = class_norm(self.D, ci)
            self._class_sig.append(tuple(chi2[na % g]
                                         for g, _, chi2, _ in self._splits))

    def _ensure_spf(self, limit: int):
        if self._spf is not None and self._spf.size > limit:
            return
        # every n a bank reads has nN < m|D| < _QMAX_LIMIT
        if limit * self.level >= _QMAX_LIMIT:
            raise HeightError(f"hypothesis n*N < {_QMAX_LIMIT} of the sigma "
                              f"sieve fails: n = {limit}, N = {self.level}")
        n = limit + 1
        spf = np.zeros(n, dtype=np.int32)
        for i in range(2, isqrt(limit) + 1):
            if spf[i] == 0:
                sl = spf[i * i::i]
                sl[sl == 0] = i
        idx = np.nonzero(spf == 0)[0]
        spf[idx] = idx.astype(np.int32)
        self._spf = spf

    def _prime_log(self, q: int) -> int:
        v = self._plog.get(q)
        if v is None:
            v = iwasawa_log(self.p, q, self.W).residue(self.W)
            self._plog[q] = v
        return v

    def _factor_spf(self, n: int):
        spf = self._spf
        while n > 1:
            q = int(spf[n])
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            yield q, e

    def _store(self, class_index: int) -> _SigmaStore:
        """The sigma store shared by the classes of the genus signature of
        class_index."""
        sig = self._class_sig[class_index]
        store = self._sigma_store.get(sig)
        if store is None:
            store = _SigmaStore(self.r - self.k,
                                (self.pW.bit_length() + 15) // 16)
            self._sigma_store[sig] = store
        return store

    def _sigma_rows(self, class_index: int, ns):
        """The store rows of the n in the list ns: sigma(n) n^d mod p^W for
        each degree d of the store, as 16-bit limbs."""
        pW, store = self.pW, self._store(class_index)
        width = 2 * store.limbs
        out = bytearray()
        for n in ns:
            v = self.sigma_res(class_index, n)
            out += v.to_bytes(width, "little")
            for _ in range(1, store.degs):
                v = v * n % pW
                out += v.to_bytes(width, "little")
        return np.frombuffer(out, dtype="<u2").reshape(len(ns), -1)

    def sigma_res(self, class_index: int, n: int) -> int:
        """Residue mod p^W of sigma(n) = sum_{d | n} eps(d, n/d) log_p(n/d^2).

        Closed form by genus theory.  A genus split D = D1 * D2 (|D2| = g,
        needing g | n) sums over the d holding all of q^e for q | g, none for
        the other q | D and any power of q prime to D, with the sign
        (D1/d)(D2/(n/d)) (D2/-N)(D2/na).  The sign is multiplicative and
        log(n/d^2) additive over the q^e || n, so the sum is sum_q l_q log q
        prod_{q' != q} a_q', where a_q sums the signs over the powers q^i and
        l_q the signs times e - 2i.  For q prime to D and x = (D1/q),
        (a_q, l_q) is ((e + 1) x^e, 0) if q splits, (1, 0) if q is inert and
        e even, and (0, -(e + 1) x^e) if q is inert and e odd.  So each split
        adds tau (D1/(n/n1)) (D2/n1) lam, with tau = prod over split q of
        e + 1, n1 the part of n on the primes of D1, and lam = 0 if two q are
        inert to odd powers, -(e0 + 1) log q0 if one q0^e0 is, and else
        sum_{q | D1} e log q - sum_{q | g} e log q.  p splits, so log_p(p)
        is never needed.  padic.sigma_A is the oracle.

        Nothing is cached here: the B/C sums read sigma from the sigma
        store of the genus signature, which calls this once per n.
        """
        self._ensure_spf(n)
        aD, chiD = self.aD, self._chiD
        tau = 1
        ram = []            # (q, e) for the primes of D
        inert = None        # the one (q0, e0) inert to an odd power
        for q, e in self._factor_spf(n):
            if aD % q == 0:
                ram.append((q, e))
            elif chiD[q % aD] == 1:
                tau *= e + 1
            elif e % 2:
                if inert is not None:
                    return 0
                inert = (q, e)
        if inert is not None:
            q0, e0 = inert
            lam = -(e0 + 1) * self._prime_log(q0)
        acc = 0
        for (g, chi1, chi2, sgn), cs in zip(self._splits,
                                            self._class_sig[class_index]):
            if n % g:
                continue
            n1 = prod(q ** e for q, e in ram if g % q)      # q | D1
            if inert is None:
                lam = sum((-e if g % q == 0 else e) * self._prime_log(q)
                          for q, e in ram)
            acc += sgn * cs * chi1[n // n1 % len(chi1)] * chi2[n1 % g] * lam
        return tau * acc % self.pW

    # -- theta bank ------------------------------------------------------------

    def _bank(self, class_index: int) -> _ThetaBank:
        """The bank of the inverse pair of class_index; the class reads it
        with the sign self._bank_of[class_index][1]."""
        key = self._bank_of[class_index][0]
        bk = self._banks.get(key)
        if bk is None:
            bk = _ThetaBank(self, key)
            self._banks[key] = bk
        return bk

    def prefetch(self, pairs):
        """Prepare lattice banks for an iterable of (class_index, m) cells."""
        byc = {}
        for ci, m in pairs:
            byc.setdefault(self._bank_of[ci][0], set()).add(m)
        for key in sorted(byc):
            self._bank(key).ensure(sorted(byc[key]))

    def _class_theta_const(self, class_index: int) -> int:
        v = self._class_const.get(class_index)
        if v is None:
            form = self.group.forms[class_index]
            ideal = ideal_of_form(self.D, form)
            chib = self.chi.chi_value(ideal_conj(self.D, ideal)).residue(self.W)
            if chib % self.p == 0:
                raise HeightError(
                    f"hypothesis chi(conjugate ideal of class {class_index}) "
                    f"is a p-adic unit fails: p = {self.p} divides the norm "
                    f"{form[0]} of the reduced form {tuple(form)}")
            v = pow(chib * (1 << (self.ell + 1)), -1, self.pW)
            self._class_const[class_index] = v
        return v

    # -- the B/C pair -----------------------------------------------------------

    def _cb(self, class_index: int, m: int):
        """(C_m, B_m) for one class from the cached sums.

        The terms r_chi sigma pol are summed exactly as su sigma pol and
        sv sigma pol, with r_chi = (su + sv shat) * the class theta
        constant, split by p | n (see _bc_sums).  Classes c and c^-1 share
        those sums up to the sign of the sv sums, since they share a bank
        and (having one genus signature) sigma."""
        _require_index(m)
        bank_key, sign = self._bank_of[class_index]
        skey = (bank_key, m)
        if skey not in self._sums:
            self._sums[skey] = self._bc_sums(bank_key, m)
        prime, part = self._sums[skey]
        p, pW, shat = self.p, self.pW, self.shat * sign
        konst = self._class_theta_const(class_index) * self._hden_inv % pW

        def value(sums):
            # a sum with no term is an exact zero, as the term-by-term
            # oracles give
            sums = [uv for uv in sums if uv is not None]
            if not sums:
                return PadicNumber.zero(p)
            x = sum(u + v * shat for u, v in sums) * konst % pW
            return PadicNumber(p, 0, x, self.W)

        return value((prime, part)), value((prime,))

    def _bc_sums(self, class_index: int, m: int):
        """The pairs (sum su sigma pol, sum sv sigma pol) over the n prime to
        p and over p | n, as residues mod p^W, on the bank of class_index;
        a pair is None when it has no term (no n of its part whose sigma is
        nonzero mod p^W).

        pol = delta m^(r-k-1) H(t_n) |D|^(r-k-1) is a polynomial
        sum_d c_d n^d, so a sum is sum_d c_d sum_n su (sigma(n) n^d mod p^W),
        and each inner sum is exact: the bank holds su as balanced 16-bit
        digits, the store holds 16-bit limbs, and the digit-times-limb
        products of a chunk are summed by two float64 matrix products, over
        all n and over p | n, then added up in int64 (see
        _require_sum_bounds)."""
        N, p, pW = self.level, self.p, self.pW
        MD = m * self.aD
        _require_sum_bounds(MD // N)
        bank = self._bank(class_index)
        bank.ensure([m])
        store = self._store(class_index)
        L = store.limbs
        # acc[0] over all n, acc[1] over p | n; row s d + i holds digit i of
        # sum s (su, sv), column d' L + l limb l of degree d'
        acc = 0
        has0 = hasp = False         # whether each part has a term
        for ns, digits in bank.series(m):
            # one sieve and one store index for the whole index, built only
            # when a term exists
            self._ensure_spf((MD - 1) // N)
            store.grow((MD - 1) // N)
            rows = store.gather(ns, lambda new: self._sigma_rows(
                class_index, new))
            live = rows[:, :L].any(axis=1)          # sigma(n) != 0 mod p^W
            at_p = ns % p == 0
            has0 = has0 or bool((live & ~at_p).any())
            hasp = hasp or bool((live & at_p).any())
            A = digits.astype(np.float64).reshape(-1, ns.size)
            R = rows.astype(np.float64)
            prods = np.stack([A @ R, A[:, at_p] @ R[at_p]])
            acc = acc + prods.astype(np.int64)
        if not (has0 or hasp):
            return None, None
        # pol = sum_j gam_j MD^(m_H-j) w^j with w = MD - 2Nn, in powers of n
        coefs = [(-2 * N) ** d * MD ** (self.m_H - d)
                 * sum(comb(j, d) * g for j, g in enumerate(self._gam)) % pW
                 for d in range(len(self._gam))]
        cols = np.array([c << 16 * l for c in coefs for l in range(L)],
                        dtype=object)
        sums = (acc[:, :, :cols.size].astype(object) @ cols).reshape(4, -1)
        u, v, up, vp = (sum(x << 16 * i for i, x in enumerate(row))
                        for row in sums.tolist())
        return (((u - up) % pW, (v - vp) % pW) if has0 else None,
                (up % pW, vp % pW) if hasp else None)


# ---------------------------------------------------------------------------
# public sequence accessors

def c_seq(ctx: HeightContext, class_index: int, m: int) -> PadicNumber:
    """m^(r-k-1) * sum r_chi(m|D| - nN) sigma(n) H(1 - 2nN/(m|D|)), n >= 1."""
    return ctx._cb(class_index, m)[0]


def b_seq(ctx: HeightContext, class_index: int, m: int) -> PadicNumber:
    """The same sum restricted to n coprime to p."""
    return ctx._cb(class_index, m)[1]


# ---------------------------------------------------------------------------
# operators

def uf_terms(ctx: HeightContext):
    """The quartic shift operator expanded as a sorted list of
    (coefficient, index power, class shift): the product over the two primes
    above p of (U - p^(r-k-1} chi(conjugate prime) S_prime)^2, where U scales
    the index by p and S shifts the class."""
    p = ctx.p
    cf = p ** (ctx.r - ctx.k - 1)
    one = PadicNumber(p, 0, 1, ctx.W)

    def factor_terms(coeff_val, shift_gen):
        out = []
        for i in range(3):
            c = one * (comb(2, i) * (-cf) ** i)
            if i:
                c = c * coeff_val ** i
            out.append((c, 2 - i, ctx.group.pow(shift_gen, i)))
        return out

    termsP = factor_terms(ctx.chiPb, ctx.cP)
    termsPb = factor_terms(ctx.chiP, ctx.cPb)
    combined = {}
    for c1, u1, s1 in termsP:
        for c2, u2, s2 in termsPb:
            key = (u1 + u2, ctx.group.mult(s1, s2))
            c = c1 * c2
            combined[key] = combined[key] + c if key in combined else c
    return [(c, du, sh) for (du, sh), c in sorted(combined.items(),
                                                  key=lambda kv: kv[0])]


def _uf(ctx: HeightContext):
    """uf_terms(ctx), expanded once per context."""
    if ctx._uf_terms is None:
        ctx._uf_terms = uf_terms(ctx)
    return ctx._uf_terms


def apply_UF(ctx: HeightContext, seq, class_index: int, m: int):
    """Evaluate the expanded operator on a sequence accessor seq(class, m)."""
    acc = None
    for coef, du, shift in _uf(ctx):
        v = seq(ctx.group.mult(class_index, shift), m * ctx.p ** du)
        t = v * coef
        acc = t if acc is None else acc + t
    return acc


def _op_pairs(ctx, class_index, m):
    pairs = [(ctx.group.mult(class_index, sh), m * ctx.p ** du)
             for _, du, sh in _uf(ctx)]
    pairs += [(class_index, m * ctx.p ** 2), (class_index, m * ctx.p ** 4)]
    return pairs


def _bc_sides(ctx: HeightContext, class_index: int, m: int):
    """(operator applied to C, (U^4 - p^(2r-2) U^2) applied to B) at
    (class, m)."""
    ctx.prefetch(_op_pairs(ctx, class_index, m))
    lhs = apply_UF(ctx, lambda s, mm: ctx._cb(s, mm)[0], class_index, m)
    p2 = ctx.p ** (2 * ctx.r - 2)
    rhs = ctx._cb(class_index, m * ctx.p ** 4)[1] \
        - ctx._cb(class_index, m * ctx.p ** 2)[1] * p2
    return lhs, rhs


def bc_residual(ctx: HeightContext, class_index: int, m: int) -> int:
    """Certified valuation of (operator applied to C) minus
    (U^4 - p^(2r-2) U^2 applied to B), capped at the target precision."""
    lhs, rhs = _bc_sides(ctx, class_index, m)
    return min((lhs - rhs).valuation(), ctx.n_prec)


def bc_report(ctx: HeightContext, m_max: int) -> dict:
    """Residuals of the B/C operator identity over all classes and
    1 <= m <= m_max, as a JSON-ready verification report."""
    # every bank's largest top, known before any cell is listed
    _require_norm_bound(m_max * ctx.p ** 4 * ctx.aD)
    cells = [(ci, m) for ci in range(ctx.h) for m in range(1, m_max + 1)]
    pre = []
    for ci, m in cells:
        pre.extend(_op_pairs(ctx, ci, m))
    ctx.prefetch(pre)
    threshold = ctx.n_prec - ctx.slack
    residuals = [bc_residual(ctx, ci, m) for ci, m in cells]
    results = [{"class": ci, "m": m, "residual": res, "pass": res >= threshold}
               for (ci, m), res in zip(cells, residuals)]
    return {"identity": "bc-operator",
            "context": ctx.to_json(),
            "mutation": None,
            "threshold": threshold,
            "slack": ctx.ledger.to_json(),
            "results": results,
            "pass": all(r["pass"] for r in results)}


# ---------------------------------------------------------------------------
# Fourier coefficients of the log-weighted measure

def _fourier_const(ctx: HeightContext) -> PadicNumber:
    # every prime of N splits, so (D/N) = 1 and, with D < 0, (D/-N) = -1
    # turns the general constant (-1)^(r-1) (D/-N) / (binom |D|^k) into this
    return PadicNumber.from_rational(
        ctx.p, Fraction((-1) ** ctx.r, ctx.binom * ctx.aD ** ctx.k), ctx.W)


def _require_p_divides(ctx: HeightContext, m: int):
    if m % ctx.p:
        raise HeightError(f"hypothesis p | m fails: p = {ctx.p}, m = {m}")


def fourier_am(ctx: HeightContext, class_index: int, m: int) -> PadicNumber:
    """a_m of the p-adic measure integral (see fourier_am_direct), read off
    the banked B sequence: a_m = (-1)^r B_m / (binom |D|^k)."""
    _require_p_divides(ctx, m)
    return b_seq(ctx, class_index, m) * _fourier_const(ctx)


def fourier_am_direct(ctx: HeightContext, class_index: int,
                      m: int) -> PadicNumber:
    """The oracle for fourier_am: log_p applied to the rationals
    (m|D| - nN) n^2 / (|D| d^2) inside the genus divisor sum over n prime to
    p, from heckechar.r_chi, epsilon_A and iwasawa_log, with no lattice
    bank, no sigma_res and no B sequence.

    The inner argument keeps d^2 in the denominator: the two paths agree to
    working precision with this ratio and with no other, and it continues
    the pre-substitution form (index - nN)/(|D_1| d^2)."""
    _require_p_divides(ctx, m)
    p, N, aD, W = ctx.p, ctx.level, ctx.aD, ctx.W
    MD = m * aD
    na = class_norm(ctx.D, class_index)
    mh = Fraction(m ** ctx.m_H)
    acc = PadicNumber.zero(p)
    for n in range(1, MD // N + 1):
        if n % p == 0:
            continue
        j = MD - n * N
        if j <= 0:
            continue
        rv = ctx.chi.r_chi(class_index, j)
        if rv.is_zero():
            continue
        inner = None
        for d in divisors(n):
            e = epsilon_A(ctx.D, N, na, n, d)
            if e:
                lv = iwasawa_log(p, Fraction(j * n * n, aD * d * d), W) * e
                inner = lv if inner is None else inner + lv
        if inner is None:
            continue
        wgt = PadicNumber.from_rational(
            p, mh * ctx.Hpoly(Fraction(MD - 2 * n * N, MD)), W)
        acc = acc + rv * wgt * inner
    return acc * _fourier_const(ctx)


# ---------------------------------------------------------------------------
# local height coefficient sum

def _height_const(ctx: HeightContext, m: int = 1) -> PadicNumber:
    """-(4|D|m)^(r-k-1) / (D^k binom(2r-2, r-k-1)): the local height
    normalisation with unit factor u = 1."""
    return PadicNumber.from_rational(
        ctx.p, Fraction(-((4 * ctx.aD * m) ** ctx.m_H),
                        ctx.D ** ctx.k * ctx.binom), ctx.W)


def _require_coprime_level(ctx: HeightContext, m: int):
    if gcd(m, ctx.level) != 1:
        raise HeightError(f"hypothesis gcd(m, N) = 1 fails: m = {m}, "
                          f"N = {ctx.level}")


def _require_height_index(ctx: HeightContext, class_index: int, m: int):
    _require_coprime_level(ctx, m)
    if count_rA(ctx.D, class_index, m) != 0:
        raise HeightError(f"hypothesis r_A(m) = 0 fails: class {class_index} "
                          f"contains an ideal of norm {m}")


def local_height_sum(ctx: HeightContext, class_index: int,
                     m: int) -> PadicNumber:
    """The prime-to-p local height pairing coefficient (see
    local_height_sum_direct), read off the banked C sequence, which carries
    the factor m^(r-k-1) itself."""
    _require_height_index(ctx, class_index, m)
    return c_seq(ctx, class_index, m) * _height_const(ctx)


def local_height_sum_direct(ctx: HeightContext, class_index: int,
                            m: int) -> PadicNumber:
    """The oracle for local_height_sum: -(4|D|m)^(r-k-1) / (D^k binom) times
    the full divisor sum over 0 < n < m|D|/N (no coprimality restriction) of
    r_chi(m|D| - nN) sigma_A(n) H(1 - 2nN/(m|D|)), from heckechar.r_chi and
    padic.sigma_A, with no lattice bank and no sigma_res."""
    _require_height_index(ctx, class_index, m)
    p, N, aD, W = ctx.p, ctx.level, ctx.aD, ctx.W
    MD = m * aD
    na = class_norm(ctx.D, class_index)
    acc = PadicNumber.zero(p)
    n = 1
    while n * N < MD:
        j = MD - n * N
        rv = ctx.chi.r_chi(class_index, j)
        if not rv.is_zero():
            sg = sigma_A(ctx.D, N, na, n, p, W)
            wgt = PadicNumber.from_rational(
                p, ctx.Hpoly(Fraction(MD - 2 * n * N, MD)), W)
            acc = acc + sg * rv * wgt
        n += 1
    return acc * _height_const(ctx, m)


# ---------------------------------------------------------------------------
# the height/Fourier cross identity

def _hf_sides(ctx: HeightContext, class_index: int, m: int):
    """The operator image of the local height sums, and (U^4 - p^(2r-2) U^2)
    applied to (-1)^(r+k+1) (4|D|)^(r-k-1) a_m: on the bank paths, the B/C
    sides of bc_residual times the one constant
    K = (-1)^(k+1) (4|D|)^(r-k-1) / (binom |D|^k) of _height_const."""
    _require_p_divides(ctx, m)
    _require_coprime_level(ctx, m)
    # the operator's cells and every (class, m p^i), i <= 4: _op_pairs holds
    # i = 1, 3 only when the primes above p are principal
    touched = sorted(set(_op_pairs(ctx, class_index, m))
                     | {(class_index, m * ctx.p ** i) for i in range(5)})
    bad = [(ci, M) for ci, M in touched if count_rA(ctx.D, ci, M) != 0]
    if bad:
        raise HeightError("hypothesis r_A = 0 fails at " + ", ".join(
            f"(class {ci}, index {M})" for ci, M in bad))
    lhs, rhs = _bc_sides(ctx, class_index, m)
    konst = _height_const(ctx)
    return lhs * konst, rhs * konst


def crosscheck_report(ctx: HeightContext, class_index: int, m: int) -> dict:
    """Certified valuation of (operator on the local height sums) minus the
    closed-form side built from the log-weighted Fourier coefficients, as a
    JSON-ready report; when the residual misses the threshold the report
    carries the residual of the sign-flipped closed form as a diagnostic (a
    constant-sign discrepancy must be reported, never silently repaired)."""
    lhs, rhs = _hf_sides(ctx, class_index, m)
    res = min((lhs - rhs).valuation(), ctx.n_prec)
    threshold = ctx.n_prec - ctx.slack
    out = {"identity": "height-fourier",
           "context": ctx.to_json(),
           "class": class_index,
           "m": m,
           "threshold": threshold,
           "slack": ctx.ledger.to_json(),
           "residual": res,
           "pass": res >= threshold}
    if not out["pass"]:
        flip = min((lhs + rhs).valuation(), ctx.n_prec)
        out["sign_flip_residual"] = flip
        out["note"] = ("residual below threshold; if the sign-flipped "
                       "residual certifies instead, the closed-form constant "
                       "has the opposite sign")
    return out
