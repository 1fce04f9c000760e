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
guard digits; theta coefficients come from a vectorized lattice enumeration
whose per-norm sums are exact (the float64 bincount accumulators never
exceed 2^53, split into 26-bit halves when single words could).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt, lcm

import numpy as np
from sympy import divisors, factorint, isprime

from .heckechar import CharBuildError, build_char
from .padic import PadicNumber, _vp, epsilon_A, iwasawa_log, sigma_A
from .polykit import h_poly
from .quadfield import (class_index_of_ideal, class_norm, count_rA,
                        ideal_conj, ideal_of_form, kronecker, split_type,
                        validate_discriminant)

GUARD = 10
_MASK26 = (1 << 26) - 1
# crude but provable bound on the number of lattice points of a given norm
# (2 * sum over divisors of |kronecker| <= 2 * d(n), and d(n) < 2^11 for
# n < 10^9, which _ThetaBank._scan enforces through _QMAX_LIMIT); keeps
# every float64 bin sum exact
_COUNT_BOUND = 1 << 12
_QMAX_LIMIT = 10 ** 9
_BLOCK_CELLS = 4_000_000


class HeightError(ValueError):
    pass


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
    """(U, V) arrays with (u + v sqrt(D))^ell = U + V sqrt(D), int64 exact."""
    if ell == 2:
        return u * u + D * (v * v), 2 * (u * v)
    if ell == 4:
        u2 = u * u
        v2 = v * v
        uv = u * v
        return (u2 * u2 + (6 * D) * (u2 * v2) + (D * D) * (v2 * v2),
                (4 * uv) * (u2 + D * v2))
    # generic even ell; bounds were asserted by the caller
    U = np.zeros_like(u)
    V = np.zeros_like(u)
    for j in range(ell + 1):
        t = comb(ell, j) * (u ** (ell - j)) * (v ** j) * (D ** (j // 2))
        if j % 2:
            V = V + t
        else:
            U = U + t
    return U, V


class _ThetaBank:
    """Per-class exact sums (SUM U, SUM V) of xbar^ell over lattice points,
    grouped by the norm ratio n.

    Dense storage indexes the theta coefficient argument j directly up to a
    memory cap; larger indices m get their own strided array over the sum
    variable n (j = m|D| - nN walks an arithmetic progression, so only every
    N-th position of the dense range would ever be read)."""

    def __init__(self, ctx, class_index: int):
        self.ctx = ctx
        self.class_index = class_index
        self.form = ctx.group.forms[class_index]
        self.dense_hi = 0
        self.dense = None          # (su_parts, sv_parts) float64 arrays
        self.per_m = {}            # m -> (su_parts, sv_parts) indexed by n
        self.split = False

    # -- public -------------------------------------------------------------

    def ensure(self, m_values):
        cap = self.ctx._dense_cap
        aD = self.ctx.aD
        want_dense = self.dense_hi
        new_ms = []
        for m in m_values:
            if m < 1:
                raise HeightError("index m must be >= 1")
            if m * aD <= cap:
                want_dense = max(want_dense, m * aD)
            elif m not in self.per_m:
                new_ms.append(m)
        if want_dense > self.dense_hi or new_ms:
            all_ms = sorted(set(self.per_m) | set(new_ms))
            self._scan(want_dense, all_ms)

    def series(self, m: int):
        """(ns, sus, svs) python lists: the n with a nonzero lattice sum for
        index m, with exact integer SUM U, SUM V values."""
        aD = self.ctx.aD
        N = self.ctx.level
        MD = m * aD
        if m in self.per_m:
            su_parts, sv_parts = self.per_m[m]
        elif MD <= self.dense_hi:
            nmax = (MD - 1) // N
            js = MD - N * np.arange(1, nmax + 1, dtype=np.int64)
            dsu, dsv = self.dense
            su_parts = tuple(_pad_front(a[js]) for a in dsu)
            sv_parts = tuple(_pad_front(a[js]) for a in dsv)
        else:
            raise HeightError("theta bank not prepared for this index")
        # recombine in python ints: a 26-bit hi sum shifted back up can pass
        # 2^63, and the float64 parts themselves are exact by construction
        if self.split:
            sl, sh = su_parts
            vl, vh = sv_parts
            mask = (sl != 0) | (sh != 0) | (vl != 0) | (vh != 0)
            ns = np.nonzero(mask)[0]
            sus = [int(sl[i]) + (int(sh[i]) << 26) for i in ns]
            svs = [int(vl[i]) + (int(vh[i]) << 26) for i in ns]
        else:
            su, sv = su_parts[0], sv_parts[0]
            mask = (su != 0) | (sv != 0)
            ns = np.nonzero(mask)[0]
            sus = [int(x) for x in su[ns]]
            svs = [int(x) for x in sv[ns]]
        return ns.tolist(), sus, svs

    # -- internals ------------------------------------------------------------

    def _scan(self, dense_hi, m_values):
        ctx = self.ctx
        aD, N, ell = ctx.aD, ctx.level, ctx.ell
        a, b, c = self.form
        qmax = max([dense_hi] + [m * aD for m in m_values], default=0)
        if qmax < 1:
            self.dense_hi = dense_hi
            return
        if qmax >= _QMAX_LIMIT:
            raise HeightError(f"lattice norms up to {qmax} exceed the float64 "
                              f"exactness bound {_QMAX_LIMIT}")
        smax = isqrt(4 * c * qmax // aD) + 1
        tmax = isqrt(4 * a * qmax // aD) + 1
        umax = 2 * a * smax + abs(b) * tmax
        bu, bv = _weight_bound(umax, tmax, ctx.D, ell)
        if max(bu, bv) >= 1 << 62:
            raise HeightError("lattice weights exceed the 64-bit exact range")
        self.split = max(bu, bv) * _COUNT_BOUND >= 1 << 53
        nparts = 2 if self.split else 1

        def alloc(length):
            return (tuple(np.zeros(length, dtype=np.float64) for _ in range(nparts)),
                    tuple(np.zeros(length, dtype=np.float64) for _ in range(nparts)))

        dense = alloc(dense_hi + 1) if dense_hi else None
        per_m = {m: alloc((m * aD - 1) // N + 1) for m in m_values}
        rhos = {}
        for m in m_values:
            rhos.setdefault((m * aD) % N, []).append(m)

        chunk = max(1, _BLOCK_CELLS // (2 * tmax + 1))
        T = np.arange(-tmax, tmax + 1, dtype=np.int64)[None, :]
        for s0 in range(-smax, smax + 1, chunk):
            S = np.arange(s0, min(s0 + chunk, smax + 1), dtype=np.int64)[:, None]
            Q = (a * S) * S + (b * S) * T + (c * T) * T
            mask = (Q >= 1) & (Q <= qmax)
            if not mask.any():
                continue
            q = Q[mask]
            u = ((2 * a) * S + b * T)[mask]
            v = np.broadcast_to(T, Q.shape)[mask]
            U, V = _weights(u, v, ctx.D, ell)
            if dense is not None:
                dm = q <= dense_hi
                if dm.any():
                    self._bin(dense, q[dm], U[dm], V[dm], dense_hi + 1)
            if rhos:
                qn = q % N
                for rho, ms in rhos.items():
                    sel = qn == rho
                    if not sel.any():
                        continue
                    qr, Ur, Vr = q[sel], U[sel], V[sel]
                    for m in ms:
                        MD = m * aD
                        inr = qr < MD
                        if not inr.any():
                            continue
                        idx = (MD - qr[inr]) // N
                        self._bin(per_m[m], idx, Ur[inr], Vr[inr],
                                  (MD - 1) // N + 1)
        self.dense_hi = dense_hi
        self.dense = dense
        self.per_m = per_m

    def _bin(self, store, idx, U, V, length):
        su, sv = store
        if self.split:
            parts = ((U & _MASK26, U >> 26), (V & _MASK26, V >> 26))
        else:
            parts = ((U,), (V,))
        for arrs, ps in ((su, parts[0]), (sv, parts[1])):
            for arr, w in zip(arrs, ps):
                arr += np.bincount(idx, weights=w.astype(np.float64),
                                   minlength=length)


def _pad_front(arr):
    out = np.empty(arr.size + 1, dtype=np.float64)
    out[0] = 0.0
    out[1:] = arr
    return out


class HeightContext:
    """Validated parameter set (D, N, p, r, k) with its theta character,
    working-precision data, lattice banks and divisor-sum caches."""

    def __init__(self, D: int, level: int, p: int, r: int, k: int,
                 n_prec: int = 30, twist=None,
                 dense_budget: int = 700_000_000):
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
        if not self.chi.ground:
            raise HeightError("theta character takes values outside Z_p")
        self.group = self.chi.group
        self.h = self.group.h
        self.ell = 2 * k
        self.m_H = r - k - 1
        self.binom = comb(2 * r - 2, r - k - 1)
        self.Hpoly = h_poly(self.m_H, k)
        self.delta = lcm(*(c.denominator for c in self.Hpoly.coeffs))
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
        self._dense_cap = max(dense_budget // (16 * self.h), 10_000)

        self._banks = {}
        self._pair = {}
        self._spf = None
        self._plog = {}
        self._sigma_cache = {}
        self._class_const = {}
        self._class_norms = {}
        self._build_eps_tables()

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"D": self.D, "level": self.level, "p": self.p, "r": self.r,
                "k": self.k, "n_prec": self.n_prec,
                "twist": list(self.twist) if self.twist else None}

    # -- genus-weighted divisor sums ------------------------------------------

    def _build_eps_tables(self):
        aD = self.aD
        self._eps = []
        self._eps_by_g = {}
        for pos, g in enumerate(sorted(divisors(aD))):
            D2 = g if g % 4 == 1 else -g
            D1 = self.D // D2
            aD1 = abs(D1)
            t1 = tuple(kronecker(D1, i) for i in range(aD1))
            t2 = tuple(kronecker(D2, i) for i in range(g))
            sgn2 = -1 if D2 < 0 else 1
            self._eps.append((g, D2, aD1, t1, t2, sgn2))
            self._eps_by_g[g] = pos
        self._class_sig = []
        for ci in range(self.h):
            na = class_norm(self.D, ci)
            self._class_norms[ci] = na
            self._class_sig.append(tuple(kronecker(D2, na)
                                         for _, D2, _, _, _, _ in self._eps))

    def _ensure_spf(self, limit: int):
        if self._spf is not None and self._spf.size > limit:
            return
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
        if q == self.p:
            return 0
        v = self._plog.get(q)
        if v is None:
            v = iwasawa_log(self.p, q, self.W).residue(self.W)
            self._plog[q] = v
        return v

    def _factor_spf(self, n: int):
        spf = self._spf
        out = []
        while n > 1:
            q = int(spf[n])
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
        return out

    def sigma_res(self, class_index: int, n: int) -> int:
        """Residue mod p^W of the log-weighted genus divisor sum at n."""
        sig = self._class_sig[class_index]
        cache = self._sigma_cache.get(sig)
        if cache is None:
            cache = self._sigma_cache.setdefault(sig, {})
        v = cache.get(n)
        if v is not None:
            return v
        self._ensure_spf(n)
        fac = self._factor_spf(n)
        logn = 0
        for q, e in fac:
            logn += e * self._prime_log(q)
        divs = [(1, 0, 1)]
        aD = self.aD
        for q, e in fac:
            lq = self._prime_log(q)
            in_d = aD % q == 0
            new = []
            for d, ld, g in divs:
                dd, ll, gg = d, ld, g
                for i in range(e + 1):
                    new.append((dd, ll, gg))
                    if i < e:
                        dd *= q
                        ll += lq
                        if i == 0 and in_d:
                            gg *= q
            divs = new
        N = self.level
        acc = 0
        eps = self._eps
        by_g = self._eps_by_g
        for d, ld, g in divs:
            pos = by_g[g]
            _, _, aD1, t1, t2, sgn2 = eps[pos]
            e1 = t1[d % aD1]
            if not e1:
                continue
            nd = n // d
            e2 = t2[(nd % g) * (N % g) % g] if g > 1 else 1
            if not e2:
                continue
            e = e1 * e2 * sgn2 * sig[pos]
            acc += e * (logn - 2 * ld)
        v = acc % self.pW
        cache[n] = v
        return v

    def sigma_value(self, class_index: int, n: int) -> PadicNumber:
        return PadicNumber(self.p, 0, self.sigma_res(class_index, n), self.W)

    # -- theta bank ------------------------------------------------------------

    def _bank(self, class_index: int) -> _ThetaBank:
        bk = self._banks.get(class_index)
        if bk is None:
            bk = _ThetaBank(self, class_index)
            self._banks[class_index] = bk
        return bk

    def prefetch(self, pairs):
        """Prepare lattice banks for an iterable of (class_index, m) cells."""
        byc = {}
        for ci, m in pairs:
            byc.setdefault(ci, set()).add(m)
        for ci in sorted(byc):
            self._bank(ci).ensure(sorted(byc[ci]))

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

    def theta_residue(self, class_index: int, m: int, n: int) -> int:
        """r_chi(class, m|D| - nN) mod p^W straight from the lattice bank."""
        bank = self._bank(class_index)
        bank.ensure([m])
        ns, sus, svs = bank.series(m)
        try:
            i = ns.index(n)
        except ValueError:
            return 0
        return (sus[i] + svs[i] * self.shat) * self._class_theta_const(
            class_index) % self.pW

    # -- the B/C pair -----------------------------------------------------------

    def _cb(self, class_index: int, m: int, variant: int):
        """(C_m, B_m) for one class, cached; variant 1 replaces H by H + 1."""
        if not (isinstance(m, int) and m >= 1):
            raise HeightError("index m must be a positive integer")
        key = (class_index, m, variant)
        hit = self._pair.get(key)
        if hit is not None:
            return hit
        bank = self._bank(class_index)
        bank.ensure([m])
        ns, sus, svs = bank.series(m)
        aD, N, p, pW = self.aD, self.level, self.p, self.pW
        MD = m * aD
        gam = []
        for c in self.Hpoly.coeffs:
            cd = c * self.delta
            gam.append(cd.numerator)
            assert cd.denominator == 1
        mdpow = [MD ** (self.m_H - i) for i in range(self.m_H + 1)]
        # variant 1 ("h_plus_one"): add 1 to the evaluated weight factor
        # m^(r-k-1) H(t_n).  The degree-homogeneous replacement H -> H+1
        # cancels identically in the operator identity (any weight that is
        # a function of the ratio nN/(m|D|) telescopes), so the effective
        # fault is the inhomogeneous one.
        off = self.delta * aD ** self.m_H if variant else 0
        if ns:
            self._ensure_spf((MD - 1) // N)
        shat = self.shat
        tot_a = 0
        tot_b = 0
        sres = self.sigma_res
        for i in range(len(ns)):
            t = (sus[i] + svs[i] * shat) % pW
            if not t:
                continue
            n = ns[i]
            sg = sres(class_index, n)
            if not sg:
                continue
            w = MD - 2 * N * n
            pol = off
            wp = 1
            for j in range(self.m_H + 1):
                pol += gam[j] * mdpow[j] * wp
                wp *= w
            term = t * sg % pW * pol
            tot_a += term
            if n % p:
                tot_b += term
        konst = self._class_theta_const(class_index) * pow(
            self.delta * aD ** self.m_H, -1, pW) % pW
        cv = PadicNumber(p, 0, tot_a % pW * konst % pW, self.W)
        bv = PadicNumber(p, 0, tot_b % pW * konst % pW, self.W)
        self._pair[key] = (cv, bv)
        return cv, bv

    def class_norm_of(self, class_index: int) -> int:
        return self._class_norms[class_index]


# ---------------------------------------------------------------------------
# public sequence accessors

def c_seq(ctx: HeightContext, class_index: int, m: int) -> PadicNumber:
    """m^(r-k-1) * sum r_chi(m|D| - nN) sigma(n) H(1 - 2nN/(m|D|)), n >= 1."""
    return ctx._cb(class_index, m, 0)[0]


def b_seq(ctx: HeightContext, class_index: int, m: int) -> PadicNumber:
    """The same sum restricted to n coprime to p."""
    return ctx._cb(class_index, m, 0)[1]


# ---------------------------------------------------------------------------
# operators

def uf_terms(ctx: HeightContext, mutate=None):
    """The quartic shift operator expanded as a sorted list of
    (coefficient, index power, class shift): the product over the two primes
    above p of (U - p^(r-k-1} chi(conjugate prime) S_prime)^2, where U scales
    the index by p and S shifts the class."""
    p = ctx.p
    cf = p ** (ctx.r - ctx.k - 1)
    chiP, chiPb = ctx.chiP, ctx.chiPb
    if mutate == "chi_perturb":
        chiPb = chiPb * (1 + p)
    eP = 1 if mutate == "drop_euler_square" else 2
    one = PadicNumber(p, 0, 1, ctx.W)

    def factor_terms(exp, coeff_val, shift_gen):
        out = []
        for i in range(exp + 1):
            c = one * (comb(exp, i) * (-cf) ** i)
            if i:
                c = c * coeff_val ** i
            out.append((c, exp - i, ctx.group.pow(shift_gen, i)))
        return out

    termsP = factor_terms(eP, chiPb, ctx.cP)
    termsPb = factor_terms(2, chiP, ctx.cPb)
    combined = {}
    for c1, u1, s1 in termsP:
        for c2, u2, s2 in termsPb:
            key = (u1 + u2, ctx.group.mult(s1, s2))
            c = c1 * c2
            combined[key] = combined[key] + c if key in combined else c
    return [(c, du, sh) for (du, sh), c in sorted(combined.items(),
                                                  key=lambda kv: kv[0])]


def apply_UF(ctx: HeightContext, seq, class_index: int, m: int, mutate=None):
    """Evaluate the expanded operator on a sequence accessor seq(class, m)."""
    acc = None
    for coef, du, shift in uf_terms(ctx, mutate):
        v = seq(ctx.group.mult(class_index, shift), m * ctx.p ** du)
        t = v * coef
        acc = t if acc is None else acc + t
    return acc


def _op_pairs(ctx, class_index, m, mutate=None):
    pairs = [(ctx.group.mult(class_index, sh), m * ctx.p ** du)
             for _, du, sh in uf_terms(ctx, mutate)]
    pairs += [(class_index, m * ctx.p ** 2), (class_index, m * ctx.p ** 4)]
    return pairs


def bc_residual(ctx: HeightContext, class_index: int, m: int,
                mutate=None) -> int:
    """Certified valuation of (operator applied to C) minus
    (U^4 - p^(2r-2) U^2 applied to B), capped at the target precision.

    mutate in {None, "h_plus_one", "chi_perturb", "drop_euler_square"}
    injects a deliberate fault for verification of the verifier.
    """
    variant = 1 if mutate == "h_plus_one" else 0
    opmut = mutate if mutate in ("chi_perturb", "drop_euler_square") else None
    ctx.prefetch(_op_pairs(ctx, class_index, m, opmut))
    lhs = apply_UF(ctx, lambda s, mm: ctx._cb(s, mm, variant)[0],
                   class_index, m, opmut)
    p2 = ctx.p ** (2 * ctx.r - 2)
    rhs = ctx._cb(class_index, m * ctx.p ** 4, variant)[1] \
        - ctx._cb(class_index, m * ctx.p ** 2, variant)[1] * p2
    d = lhs - rhs
    return min(d.valuation(), ctx.n_prec)


def bc_report(ctx: HeightContext, m_max: int, classes=None,
              mutate=None) -> dict:
    """Residuals of the B/C operator identity over all classes and
    1 <= m <= m_max, as a JSON-ready verification report."""
    classes = list(range(ctx.h)) if classes is None else sorted(classes)
    cells = [(ci, m) for ci in classes for m in range(1, m_max + 1)]
    opmut = mutate if mutate in ("chi_perturb", "drop_euler_square") else None
    pre = []
    for ci, m in cells:
        pre.extend(_op_pairs(ctx, ci, m, opmut))
    ctx.prefetch(pre)
    threshold = ctx.n_prec - ctx.slack
    residuals = [bc_residual(ctx, ci, m, mutate) for ci, m in cells]
    results = [{"class": ci, "m": m, "residual": res, "pass": res >= threshold}
               for (ci, m), res in zip(cells, residuals)]
    return {"identity": "bc-operator",
            "context": ctx.to_json(),
            "mutation": mutate,
            "threshold": threshold,
            "slack": ctx.ledger.to_json(),
            "results": results,
            "pass": all(r["pass"] for r in results)}


# ---------------------------------------------------------------------------
# Fourier coefficients of the log-weighted measure

def fourier_am(ctx: HeightContext, class_index: int, m: int, lam=None,
               fast: bool = False) -> PadicNumber:
    """a_m of the p-adic measure integral: the weighting lam applied to the
    rationals (m|D| - nN) n^2 / (|D| d^2) inside the genus divisor sum.  The
    default lam is log_p, which gives the log-weighted form.

    The inner argument keeps d^2 in the denominator: the two evaluation
    paths agree to working precision with this ratio and with no other,
    and it continues the pre-substitution form (index - nN)/(|D_1| d^2).

    fast=True routes the log-weighted form through the cached B sequence
    (same value, bank-backed; used for large indices)."""
    p, N, aD, W = ctx.p, ctx.level, ctx.aD, ctx.W
    if m % p:
        raise HeightError(f"hypothesis p | m fails: p = {p}, m = {m}")
    if kronecker(ctx.D, N) != 1:
        raise HeightError("hypothesis (D/N) = 1 fails")
    # with (D/N) = 1 and D < 0, (D/-N) = -1 turns the general constant
    # (-1)^(r-1) (D/-N) / (binom |D|^k) into this one
    kq = Fraction((-1) ** ctx.r, ctx.binom * aD ** ctx.k)
    if lam is None and fast:
        return b_seq(ctx, class_index, m) * PadicNumber.from_rational(p, kq, W)
    if lam is None:
        def lam(x):
            return iwasawa_log(p, x, W)
    MD = m * aD
    na = ctx.class_norm_of(class_index)
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
                lv = lam(Fraction(j * n * n, aD * d * d)) * e
                inner = lv if inner is None else inner + lv
        if inner is None:
            continue
        wgt = PadicNumber.from_rational(
            p, mh * ctx.Hpoly(Fraction(MD - 2 * n * N, MD)), W)
        acc = acc + rv * wgt * inner
    return acc * PadicNumber.from_rational(p, kq, W)


# ---------------------------------------------------------------------------
# local height coefficient sum

def local_height_sum(ctx: HeightContext, class_index: int, m: int,
                     fast=None) -> PadicNumber:
    """-(4|D|m)^(r-k-1) / (D^k binom(2r-2, r-k-1)) times the full divisor
    sum over 0 < n < m|D|/N (no coprimality restriction), with unit factor
    u = 1; the combinatorial value of the prime-to-p local height pairing
    coefficient."""
    p, N, aD, W = ctx.p, ctx.level, ctx.aD, ctx.W
    if gcd(m, N) != 1:
        raise HeightError(f"hypothesis gcd(m, N) = 1 fails: m = {m}, N = {N}")
    if N <= 1:
        raise HeightError("hypothesis N > 1 fails")
    if count_rA(ctx.D, class_index, m) != 0:
        raise HeightError(f"hypothesis r_A(m) = 0 fails: class {class_index} "
                          f"contains an ideal of norm {m}")
    if fast is None:
        fast = m * aD > 100_000
    if fast:
        kq = Fraction(-((4 * aD) ** ctx.m_H), ctx.D ** ctx.k * ctx.binom)
        return c_seq(ctx, class_index, m) * PadicNumber.from_rational(p, kq, W)
    MD = m * aD
    na = ctx.class_norm_of(class_index)
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
    kq = Fraction(-((4 * aD * m) ** ctx.m_H), ctx.D ** ctx.k * ctx.binom)
    return acc * PadicNumber.from_rational(p, kq, W)


# ---------------------------------------------------------------------------
# the height/Fourier cross identity

def _hf_sides(ctx: HeightContext, class_index: int, m: int):
    p = ctx.p
    if m % p:
        raise HeightError(f"hypothesis p | m fails: p = {p}, m = {m}")
    if gcd(m, ctx.level) != 1:
        raise HeightError(f"hypothesis gcd(m, N) = 1 fails: m = {m}, "
                          f"N = {ctx.level}")
    touched = sorted({(ctx.group.mult(class_index, sh), m * p ** du)
                      for _, du, sh in uf_terms(ctx)}
                     | {(class_index, m * p ** i) for i in range(5)})
    bad = [(ci, M) for ci, M in touched if count_rA(ctx.D, ci, M) != 0]
    if bad:
        raise HeightError("hypothesis r_A = 0 fails at " + ", ".join(
            f"(class {ci}, index {M})" for ci, M in bad))
    ctx.prefetch(_op_pairs(ctx, class_index, m))
    lhs = apply_UF(ctx, lambda s, mm: local_height_sum(ctx, s, mm, fast=True),
                   class_index, m)
    sgn_r = (-1) ** ctx.r
    am4 = fourier_am(ctx, class_index, m * p ** 4, fast=True) * sgn_r
    am2 = fourier_am(ctx, class_index, m * p ** 2, fast=True) * sgn_r
    konst = PadicNumber.from_rational(
        ctx.p, (-1) ** (ctx.k + 1) * (4 * ctx.aD) ** ctx.m_H, ctx.W)
    rhs = (am4 - am2 * (p ** (2 * ctx.r - 2))) * konst
    return lhs, rhs


def height_fourier_residual(ctx: HeightContext, class_index: int,
                            m: int) -> int:
    """Certified valuation of (operator on the local height sums) minus the
    closed-form side built from the log-weighted Fourier coefficients."""
    lhs, rhs = _hf_sides(ctx, class_index, m)
    d = lhs - rhs
    return min(d.valuation(), ctx.n_prec)


def crosscheck_report(ctx: HeightContext, class_index: int, m: int) -> dict:
    """height_fourier_residual as a JSON-ready report; when the residual
    misses the threshold the report carries the residual of the sign-flipped
    closed form as a diagnostic (a constant-sign discrepancy must be
    reported, never silently repaired)."""
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
