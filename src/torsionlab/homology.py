"""Exact homology of Heegaard manifolds and their cyclic covers.

Torsion orders and Betti numbers come from exact integer arithmetic.  The
q-cover presentation is the h x h block B_q acting on (Z[t^+-1]/(t^q - 1))^h.
One core, _tower, decides every cover of a tower from B and det B.  It
splits det B = D0 prod Phi_e^k_e once, over the divisors of every q, with
the kernel's one cyclotomic split (_phi_split), and the same split of
each entry finds the Phi_d dividing every entry.  The Betti number and
torsion order of each cover come from a split resultant: Res(t^q - 1, D0)
divided by Res(Phi_d, D0) for each common Phi_d (d | q), times Apostol's
closed form for every Phi_e of det B.  Only a cover where some Phi_e
(e | q) divides det B but not every entry goes to an exact Smith normal
form of the expanded presentation.

Res(t^q - 1, D0) is a modular Euclid resultant over primes below 2^31,
lifted by CRT under a rigorous Mahler-measure height bound, and one
engine computes it for one q as for many (_tower_resultants): t^q mod D0
advances by one shift per unit step of q, modulo the one prime list of
the largest q, and the (q, p) rows go through one vectorised Euclid in
chunks.  That Euclid takes pseudo-remainders, so no remainder is made
monic: each row carries its leading-coefficient powers as a denominator
and takes one Fermat inverse when it finishes.  Each tower sweeps its one
D0 once: growth_scan is the tower over its q range, cover_homology the
tower of the reduced block's lifts at its one q, and circulant_det the
same engine at one q.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mahler import MahlerResult, mahler_measure
from .ringcore import CycElem, LaurentPoly, circulant_expand, cyclotomic, divisors
from .ringcore import InvalidModulus, reduce_mod_q, totient
from .ringcore import _crt_symmetric, _int_det, _int_resultant, _monic_resultant
from .ringcore import _graeffe_step, _phi_split, _prime_factors, _primes_for
from .hermitian import block_det

class NotSymplectic(ValueError):
    """Input matrix does not preserve the standard symplectic form."""


@dataclass
class SmithDecomposition:
    """Smith normal form D of an m x n integer matrix: diagonal, with
    nonnegative entries, each nonzero one dividing the next."""

    D: list
    shape: tuple[int, int]

    @property
    def invariant_factors(self) -> list[int]:
        m, n = self.shape
        return [self.D[i][i] for i in range(min(m, n))]

    def nonzero_factors(self) -> list[int]:
        return [d for d in self.invariant_factors if d]

    def corank(self) -> int:
        """Free rank of the cokernel Z^m / col-span."""
        m, _ = self.shape
        rank = len(self.nonzero_factors())
        return m - rank


@dataclass
class TorsionReport:
    q: int
    torsion_order: int
    betti: int
    log_torsion_over_q: float
    method: str


def smith_normal_form(A) -> SmithDecomposition:
    """Exact Smith normal form over Z, invariant factors only.

    Row and column operations act on A alone: transform matrices would
    grow much faster than A.  Pivots are chosen by minimal absolute value
    to limit entry blowup; arbitrary-precision integers throughout.
    """
    M = [[int(x) for x in row] for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    for k in range(min(m, n)):
        while True:
            # locate the minimal-magnitude nonzero entry in the submatrix
            best = None
            for i in range(k, m):
                row = M[i]
                for j in range(k, n):
                    v = row[j]
                    if v and (best is None or abs(v) < best[0]):
                        best = (abs(v), i, j)
                        if abs(v) == 1:
                            break
                if best and best[0] == 1:
                    break
            if best is None:
                break  # submatrix is zero
            _, bi, bj = best
            # rows and columns before k are zero outside the diagonal, so
            # every operation below starts at k
            M[k], M[bi] = M[bi], M[k]
            if bj != k:
                for row in M[k:]:
                    row[k], row[bj] = row[bj], row[k]
            Mk = M[k]
            piv = Mk[k]
            for Mi in M[k + 1:]:
                qq = Mi[k] // piv
                if qq:
                    for j in range(k, n):
                        Mi[j] -= qq * Mk[j]
            for j in range(k + 1, n):
                qq = Mk[j] // piv
                if qq:
                    for row in M[k:]:
                        row[j] -= qq * row[k]
            # a nonzero remainder in the pivot's row or column: pivot again
            if any(Mi[k] for Mi in M[k + 1:]) or any(Mk[k + 1:]):
                continue
            # divisibility chain: absorb a bad entry into the pivot row
            bad = next((i for i in range(k + 1, m) if any(x % piv for x in M[i][k + 1:])), None)
            if bad is None:
                break
            M[k] = [a + b for a, b in zip(Mk, M[bad])]
    for k in range(min(m, n)):
        if M[k][k] < 0:
            M[k] = [-x for x in M[k]]
    return SmithDecomposition(D=M, shape=(m, n))


# ---------------------------------------------------------------------------
# modular resultant machinery


def _window(c: CycElem) -> tuple[int, list[int]]:
    """(s, g) with c = t^s g in Z[Z/q] and g the honest polynomial whose
    support fits the shortest cyclic window (deg g < q, g(0) != 0); the
    window starts right after the widest cyclic gap of the support.
    g = [] for c = 0."""
    q, cs = c.q, c.coeffs
    support = [k for k, x in enumerate(cs) if x]
    if not support:
        return 0, []
    gap, s = max(((b - a) % q or q, b) for a, b in zip(support, support[1:] + support[:1]))
    return s, [cs[(s + k) % q] for k in range(q - gap + 1)]


# root-squarings behind the Mahler-measure height bound of _tower_resultants
GRAEFFE_ROUNDS = 6
# (q, p) rows the tower sweep sends through one batched Euclid
SWEEP_ROWS = 8192


@lru_cache(maxsize=256)
def _graeffe_norm_bits(g: tuple[int, ...]) -> int:
    """Bit length of ||G||_2^2 for the GRAEFFE_ROUNDS-th Graeffe iterate G
    of g; cached, since a tower asks for it once per cover degree."""
    G = list(g)
    for _ in range(GRAEFFE_ROUNDS):
        G = _graeffe_step(G)
    return sum(x * x for x in G).bit_length()


def _height_bits(g: list[int], q: int) -> int:
    """An integer b with |Res(t^q - 1, g)| < 2^b, from the Mahler measure.

    |Res| = |lc|^q prod |beta^q - 1| over the roots beta of g, which is at
    most 2^d M(g)^q, and M(g)^(2^k) = M(G_k) <= ||G_k||_2 (Landau) for the
    k-th Graeffe iterate G_k.  The bound holds for any degree of g, and it
    is within a few percent of the true height on walk determinants.
    """
    return len(g) - 1 - (-q * _graeffe_norm_bits(tuple(g)) >> (GRAEFFE_ROUNDS + 1))


def _pow_rows(x: np.ndarray, e, P: np.ndarray) -> np.ndarray:
    """x^e modulo P entrywise by square-and-multiply over int64 arrays; e
    is one Python int or an int64 array with one exponent per entry, and P
    holds primes below 2^31, so every product fits in 62 bits."""
    out = np.ones_like(x)
    if isinstance(e, int):
        while e:
            if e & 1:
                out = out * x % P
            e >>= 1
            if e:
                x = x * x % P
        return out
    for _ in range(int(e.max(initial=0)).bit_length()):
        out = np.where(e & 1, out * x % P, out)
        x = x * x % P
        e = e >> 1
    return out


def _euclid_rows(a: np.ndarray, b: np.ndarray, P: np.ndarray) -> np.ndarray:
    """prod b(alpha) over the roots alpha of a, modulo p, for each row
    (a, b, p) of the int64 arrays: a monic of degree k (k + 1 columns),
    b of degree < k (k columns), p a prime below 2^31; residues in [0, p).
    a and b are overwritten.

    Euclid without inverses (pseudo-division, Knuth TAOCP 4.6.1).  For
    deg a = m, deg b = n and c = lc(b), prod_a b(alpha) = (-1)^{mn} c^m
    lc(a)^-n prod_b a(beta), and the m - n + 1 steps a <- c a - a_k
    t^(k-n) b of the pseudo-remainder multiply each a(beta) by c^(m-n+1).
    So a step divides by lc(a)^n c^f, f = (m-n)(n-1), and nothing is made
    monic: den takes lc(a)^(n + f), f from the step before, in one power
    per step, and each row takes one Fermat inverse of den when it
    finishes.  Both products of a step are below 2^62, and so is their
    difference.  Every row follows the same degree sequence; a row whose
    remainder drops degree where the others do not leaves the batch, is
    made monic, and is finished alone by _monic_resultant.
    """
    out = np.zeros(len(P), dtype=np.int64)
    rows = np.arange(len(P))
    den = np.ones(len(P), dtype=np.int64)
    neg, f = False, 0
    while True:
        cols = np.flatnonzero(b.any(axis=0))
        if not cols.size:
            return out  # b = 0: the resultant vanishes modulo these primes
        n = int(cols[-1])
        m = a.shape[1] - 1
        drop = b[:, n] == 0
        if drop.any():
            for j in np.flatnonzero(drop).tolist():
                p, la = int(P[j]), int(a[j, m])
                # with dd = den lc(a)^f and inv = (dd lc(a))^-1, inv dd = lc(a)^-1
                # and inv lc(a) = dd^-1
                dd = int(den[j]) * pow(la, f, p) % p
                inv = pow(dd * la, p - 2, p)
                monic = [v * inv * dd % p for v in a[j].tolist()]
                v = inv * la * _monic_resultant(monic, b[j].tolist(), p) % p
                out[rows[j]] = -v % p if neg else v
            keep = ~drop
            a, b, den, rows, P = a[keep], b[keep], den[keep], rows[keep], P[keep]
        b = b[:, :n + 1]
        c = b[:, n]
        den = den * _pow_rows(a[:, m], f + n, P) % P
        if n == 0:
            v = _pow_rows(c, m, P) * _pow_rows(den, P - 2, P) % P
            out[rows] = (P - v) % P if neg else v
            return out
        neg ^= m * n % 2 == 1
        f = (m - n) * (n - 1)
        for k in range(m, n - 1, -1):
            a[:, :k] *= c[:, None]
            a[:, k - n:k] -= a[:, k:k + 1] * b[:, :n]
            a[:, :k] %= P[:, None]
        a, b = b, a[:, :n]


def _monic_rows(g: list[int], primes: list[int]) -> np.ndarray:
    """g / lc(g) modulo each of the primes (none dividing lc(g)), one int64
    row per prime."""
    invs = [pow(g[-1], -1, p) for p in primes]
    return np.array([[x * inv % p for x in g] for p, inv in zip(primes, invs)], dtype=np.int64)


def circulant_det(c: CycElem) -> int:
    """Exact determinant of the q x q circulant of c.

    circ is a ring homomorphism, so det circ(c) = prod_j c(zeta^j) =
    Res(t^q - 1, c).  Write c = t^s g with g from _window (degree d < q);
    det circ(t^s) = (-1)^{s(q-1)}, and Res(t^q - 1, g) is the tower sweep
    at the one q.
    """
    q = c.q
    s, g = _window(c)
    if not g:
        return 0
    sign = -1 if s * (q - 1) % 2 else 1
    return sign * _tower_resultants(g, [q])[0]


def _tower_resultants(g: list[int], qs: list[int]) -> list[int]:
    """Res(t^q - 1, g) for each q of the ascending qs, in one sweep.

    The primes are one descending list, drawn once for the largest height
    bound, and each q takes the prefix its own _height_bits bound needs.
    Modulo each prime, r = t^q mod g / lc(g) advances one shift and
    reduction per unit step of q, between two preallocated buffers; at
    each scanned q the rows r - 1 of its primes join a batch, and every
    SWEEP_ROWS rows go through one _euclid_rows and one _pow_rows that
    raises (-1)^d lc to each row's own q.  Res(t^q - 1, g) = ((-1)^d lc)^q
    prod (beta^q - 1) over the roots beta of g, and CRT gives it per q.  g
    needs no reduction modulo t^q - 1: the height bound holds for any
    degree.
    """
    if not qs:
        return []
    d, lc = len(g) - 1, g[-1]
    if d == 0:
        return [lc ** q for q in qs]
    bits = [_height_bits(g, q) for q in qs]
    primes = _primes_for(1 << max(bits), avoid=lc)
    prods = list(itertools.accumulate(primes, operator.mul))
    # the fewest primes with a product above 2^(bits + 1), as _primes_for picks them
    counts = [bisect.bisect_right(prods, 2 << b) + 1 for b in bits]
    P = np.array(primes, dtype=np.int64)
    m = _monic_rows(g, primes)
    neg_low = -m[:, :d]
    sign_lc = np.array([(-1) ** d * lc % p for p in primes], dtype=np.int64)
    r = np.zeros((len(primes), d), dtype=np.int64)
    r[:, 0] = 1
    nxt = np.empty_like(r)
    out, batch, rows, q_at = [], [], 0, 0

    def flush():
        ns, bs, qb = zip(*batch)
        idx = np.concatenate([np.arange(n) for n in ns])
        Pb = P[idx]
        lcq = _pow_rows(sign_lc[idx], np.repeat(qb, ns), Pb)
        v = _euclid_rows(m[idx], np.concatenate(bs), Pb) * lcq % Pb
        # one column of residues per q, its own primes on top
        R = np.zeros((max(ns), len(ns)), dtype=np.int64)
        R.T[np.arange(max(ns)) < np.array(ns)[:, None]] = v
        out.extend(_crt_symmetric(R, primes[:max(ns)], ns))
        batch.clear()

    for q, n in zip(qs, counts):
        for _ in range(q - q_at):
            # r <- t r - top(r) low, into the other buffer
            np.multiply(r[:, -1:], neg_low, out=nxt)
            np.add(nxt[:, 1:], r[:, :-1], out=nxt[:, 1:])
            np.remainder(nxt, P[:, None], out=nxt)
            r, nxt = nxt, r
        q_at = q
        b = r[:n].copy()
        b[:, 0] = (b[:, 0] - 1) % P[:n]
        batch.append((n, b, q))
        rows += n
        if rows >= SWEEP_ROWS:
            flush()
            rows = 0
    if batch:
        flush()
    return out


def _cyclotomic_resultant(m: int, n: int) -> int:
    """|Res(Phi_m, Phi_n)| for m != n, by Apostol's closed form (Proc. AMS
    1970): p^phi(min) when max/min is a power of the prime p, else 1."""
    if m < n:
        m, n = n, m
    if m % n:
        return 1
    ps = _prime_factors(m // n)
    return ps[0] ** totient(n) if len(ps) == 1 else 1


def expand_presentation(Bq, q: int) -> list:
    """Integer presentation: circulant-expand each Z[Z/q] entry."""
    out = []
    for row in Bq:
        blocks = [circulant_expand(e) for e in row]
        out += [[x for block in blocks for x in block[a]] for a in range(q)]
    return out


def _report(q: int, torsion: int, betti: int, method: str) -> TorsionReport:
    return TorsionReport(
        q=q,
        torsion_order=torsion,
        betti=betti,
        log_torsion_over_q=_log(torsion) / q,
        method=method,
    )


def _tower(B, det: LaurentPoly, qs: list[int]) -> list[TorsionReport]:
    """Torsion order and Betti number of the q-cover of the h x h block B
    of Laurent polynomials, for each q of the ascending nonempty qs.

    Let S be the d | q with Phi_d dividing every entry, G = prod_{d in S}
    Phi_d, F = (t^q - 1)/G and D = det B / G^h.  When D vanishes at no root
    of F, the snake lemma for B on 0 -> (Lambda/F)^h -> (Lambda/(t^q - 1))^h
    -> (Lambda/G)^h -> 0, Lambda = Z[t^+-1], gives Betti number h deg G and
    torsion order |Res(F, D)|.

    det, which is det B = D0 prod Phi_e^k_e, is split once, over the
    divisors of every q, so the tower has one D0; the same split of each
    nonzero entry gives its Phi_d, and S is the d | q common to all of
    them (every d | q when B = 0).  Phi_e has multiplicity k_e - h [e in S]
    in D, and a cover goes to Smith normal form exactly when that is
    positive for some e | q outside S.  Otherwise Res(F, D) = Res(t^q - 1,
    D0) / prod_{d in S} Res(Phi_d, D0) times Apostol's Res(Phi_d, Phi_e) to
    that multiplicity for every d | q outside S: one _tower_resultants
    sweep and one Res(Phi_d, D0) per d serve the tower
    (method "circulant_det" when S is empty, else "split_resultant").
    """
    h, delta = len(B), det.coeff_list()
    polys = [e.coeff_list() for row in B for e in row if not e.is_zero()]
    qdivs = [divisors(q) for q in qs]
    divs = sorted({d for ds in qdivs for d in ds})
    # the d with Phi_d dividing every entry: each entry's multiplicities, in
    # its candidates' order, are the candidates for the next
    C = dict.fromkeys(divs)
    for g in polys:
        C = _phi_split(g, C)[1]
    D0, k = _phi_split(delta, divs) if delta else ([], {})
    reports: list[TorsionReport | None] = [None] * len(qs)
    swept = []  # (i, S, the nonzero multiplicities in D) of the covers the sweep decides
    for i, (q, ds) in enumerate(zip(qs, qdivs)):
        S = [d for d in ds if d in C]
        mult = {e: m for e in {*k, *S} if (m := k.get(e, 0) - h * (e in S))}
        if sum(totient(d) for d in S) == q:  # every entry is 0 in Z[Z/q]: the cokernel is free
            reports[i] = _report(q, 1, h * q, "split_resultant")
        elif delta and min(mult.values(), default=0) < 0:
            raise ArithmeticError("Phi_d^h must divide det B for every d in S")
        elif delta and all(e in S or q % e for e in mult):
            swept.append((i, S, mult))
        else:
            snf = smith_normal_form(expand_presentation(
                [[reduce_mod_q(e, q) for e in row] for row in B], q))
            reports[i] = _report(q, math.prod(snf.nonzero_factors()), snf.corank(), "snf")
    res_phi = {d: abs(_int_resultant(cyclotomic(d).coeff_list(), D0))
               for d in {d for _, S, _ in swept for d in S}}
    for (i, S, mult), res in zip(swept, _tower_resultants(D0, [qs[i] for i, _, _ in swept])):
        q = qs[i]
        torsion, rem = divmod(abs(res), math.prod(res_phi[d] for d in S))
        if rem:
            raise ArithmeticError("Res(G, D0) must divide Res(t^q - 1, D0)")
        # d != e: an e | q outside S with nonzero multiplicity went to SNF
        torsion *= math.prod(_cyclotomic_resultant(d, e) ** m for e, m in mult.items()
                             for d in qdivs[i] if d not in S)
        reports[i] = _report(q, torsion, h * sum(totient(d) for d in S),
                             "split_resultant" if S else "circulant_det")
    return reports


def _check_block(B, q: int) -> None:
    """Raise ValueError unless B is a square block (a list of rows), and
    InvalidModulus unless the cover degree q is at least 1."""
    if any(len(row) != len(B) for row in B):
        raise ValueError(f"expected a square block, got rows of lengths {[len(r) for r in B]}")
    if q < 1:
        raise InvalidModulus(f"cover degrees must be >= 1, got {q}")


def cover_homology(Bq, q: int) -> TorsionReport:
    """Torsion order and Betti number of the q-cover presentation Bq, an
    h x h block over Z[Z/q], on its own: the tower of the shortest-window
    lifts of its entries at the one q."""
    _check_block(Bq, q)
    if not all(isinstance(e, CycElem) and e.q == q for row in Bq for e in row):
        raise ValueError(f"expected a block over Z[Z/{q}]")
    lifts = [[LaurentPoly.from_list(g, lo=s) for s, g in map(_window, row)] for row in Bq]
    return _tower(lifts, block_det(lifts, q=None), [q])[0]


def _log(n: int) -> float:
    """log of a possibly huge positive integer without float overflow."""
    if n <= 0:
        raise ValueError("log of nonpositive integer")
    if n.bit_length() <= 900:
        return math.log(n)
    shift = n.bit_length() - 64
    return math.log(n >> shift) + shift * math.log(2)


@dataclass
class GrowthScanResult:
    reports: list[TorsionReport]
    mahler: MahlerResult | None
    degenerate: bool
    deviations: list[float] = field(default_factory=list)


def growth_scan(B_inf, q_range) -> GrowthScanResult:
    """Scan torsion of the q-covers against the Mahler-measure limit.

    B_inf is a square matrix (list of rows) of LaurentPoly.  A zero
    determinant is reported as degenerate: the cover homology keeps
    positive rank and the growth rate is undefined.

    det B is taken once, for the Mahler measure and for _tower, which
    decides every q from it with one resultant sweep.  Phi_d (d | q)
    divides t^q - 1, so it divides an entry's image in Z[Z/q] exactly when
    it divides the Laurent entry, and B is reduced modulo t^q - 1 only for
    covers that need Smith normal form.
    """
    q_range = list(q_range)
    if not q_range or any(
        q2 <= q1 for q1, q2 in zip(q_range, q_range[1:])
    ):
        raise ValueError("q_range must be nonempty and ascending")
    _check_block(B_inf, q_range[0])
    det = block_det(B_inf, q=None)
    measure = None if det.is_zero() else mahler_measure(det)
    reports = _tower(B_inf, det, q_range)
    deviations = []
    if measure is not None:
        deviations = [abs(rep.log_torsion_over_q - measure.log_measure) for rep in reports]
    return GrowthScanResult(
        reports=reports,
        mahler=measure,
        degenerate=measure is None,
        deviations=deviations,
    )


def heegaard_homology(phi_star) -> dict:
    """Homology of the Heegaard manifold glued by a symplectic matrix.

    H_1 = Z^{2g} / <L, phi_* L> with L the span of the first g basis
    vectors.  Reports Betti number, torsion order, invariant factors,
    and |det B| of the bottom-left g x g block, with an agreement check
    when that determinant is nonzero.
    """
    P = [[int(x) for x in row] for row in phi_star]
    n = len(P)
    if n % 2 or any(len(r) != n for r in P):
        raise ValueError("expected a 2g x 2g matrix")
    g = n // 2
    if not _is_symplectic(P, g):
        raise NotSymplectic("matrix does not preserve the symplectic form")
    # columns: the a-basis vectors, then their images under phi
    A = [[int(i == j) for j in range(g)] + P[i][:g] for i in range(n)]
    snf = smith_normal_form(A)
    factors = snf.invariant_factors
    torsion = math.prod(snf.nonzero_factors())
    betti = snf.corank()
    B = [[P[g + i][j] for j in range(g)] for i in range(g)]
    det_b = _int_det(B)
    return {
        "betti": betti,
        "torsion": torsion,
        "factors": factors,
        "det_bottom_left": abs(det_b),
        "det_agrees": (abs(det_b) == torsion) if det_b else None,
    }


def _is_symplectic(P, g: int) -> bool:
    """Whether P^T J P == J exactly, J = [[0, I], [-I, 0]] in the (a, b)
    basis ordering."""
    n = 2 * g
    # J P: the b-rows of P on top, minus the a-rows below
    JP = P[g:] + [[-x for x in row] for row in P[:g]]
    for i in range(n):
        for j in range(n):
            s = sum(P[k][i] * JP[k][j] for k in range(n))
            if s != (1 if j == i + g else -1 if i == j + g else 0):
                return False
    return True
