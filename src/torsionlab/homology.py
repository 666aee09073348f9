"""Exact homology of Heegaard manifolds and their cyclic covers.

Torsion orders and Betti numbers come from exact integer arithmetic.  The
q-cover presentation is the circulant expansion of B_q; its blocks commute,
so its determinant is Res(t^q - 1, det B_q) (Fox's formula), computed by a
modular Euclid resultant and CRT under a rigorous Parseval height bound.
A nonzero resultant is the torsion order of a cover with Betti number 0;
only degenerate covers (zero resultant) go to an exact Smith normal form of
the expanded presentation.  The two extra trivial summands of the cover
surface contribute free rank only and are carried as free_offset metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mahler import MahlerResult, ZeroPolynomial, mahler_measure
from .ringcore import CycElem, LaurentPoly, circulant_expand, cyclotomic, reduce_mod_q
from .hermitian import block_det

class NotSymplectic(ValueError):
    """Input matrix does not preserve the standard symplectic form."""


@dataclass
class SmithDecomposition:
    """U A V = D with unimodular U, V and divisibility chain on D."""

    U: list
    V: list
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
    free_offset: int = 2
    method: str = "snf"


def _identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(A) -> SmithDecomposition:
    """Exact Smith normal form over Z with transform matrices.

    Pivots are chosen by minimal absolute value to limit entry blowup;
    arbitrary-precision integers throughout.
    """
    M = [[int(x) for x in row] for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    U = _identity(m)
    V = _identity(n)

    def swap_rows(i, j):
        if i != j:
            M[i], M[j] = M[j], M[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in M:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        Ms, Md = M[src], M[dst]
        for k in range(n):
            Md[k] += c * Ms[k]
        Us, Ud = U[src], U[dst]
        for k in range(m):
            Ud[k] += c * Us[k]

    def add_col(src, dst, c):
        for row in M:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        M[i] = [-x for x in M[i]]
        U[i] = [-x for x in U[i]]

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
            swap_rows(k, bi)
            swap_cols(k, bj)
            piv = M[k][k]
            dirty = False
            for i in range(k + 1, m):
                if M[i][k]:
                    qq = M[i][k] // piv
                    if qq:
                        add_row(k, i, -qq)
                    if M[i][k]:
                        dirty = True
            for j in range(k + 1, n):
                if M[k][j]:
                    qq = M[k][j] // piv
                    if qq:
                        add_col(k, j, -qq)
                    if M[k][j]:
                        dirty = True
            if dirty:
                continue
            # divisibility chain: absorb a bad entry into the pivot row
            piv = M[k][k]
            bad = None
            for i in range(k + 1, m):
                row = M[i]
                for j in range(k + 1, n):
                    if row[j] % piv:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, k, 1)
    for k in range(min(m, n)):
        if M[k][k] < 0:
            negate_row(k)
    return SmithDecomposition(U=U, V=V, D=M, shape=(m, n))


# ---------------------------------------------------------------------------
# modular resultant machinery


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the largest primes below 2^31, descending; grown on demand by replacing
# the tuple, so a concurrent caller never sees a half-built list
_PRIMES: tuple[int, ...] = ()


def _primes_below_2_31(count: int) -> tuple[int, ...]:
    """At least `count` of the largest primes below 2^31, descending."""
    global _PRIMES
    primes = _PRIMES
    if len(primes) < count:
        out = list(primes)
        c = out[-1] - 2 if out else (1 << 31) - 1
        while len(out) < count:
            if _is_probable_prime(c):
                out.append(c)
            c -= 2
        _PRIMES = primes = tuple(out)
    return primes


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    h = (r2 - r1) * pow(m1 % m2, -1, m2) % m2
    return r1 + m1 * h, m1 * m2


def _rem_monic(a: list, m: list, p: int) -> list:
    """a modulo the monic m over F_p; coefficient lists, constant first."""
    n = len(m) - 1
    r = list(a)
    for k in range(len(r) - 1, n - 1, -1):
        x = r[k] % p
        if x:
            off = k - n
            for i in range(n):
                r[off + i] -= x * m[i]
    return [x % p for x in r[:n]]


def _mulmod(a: list, b: list, m: list, p: int) -> list:
    """a * b modulo the monic m over F_p."""
    h = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                h[i + j] += x * y
    return _rem_monic(h, m, p)


def _monic_resultant(a: list, b: list, p: int) -> int:
    """Product of b(alpha) over the roots alpha of the monic a, over F_p,
    by Euclid's algorithm; deg b < deg a."""
    acc = 1
    while True:
        while b and not b[-1]:
            b.pop()
        if not b:
            return 0
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return acc * pow(b[0], m, p) % p
        # prod_a b(alpha) = (-1)^{mn} lc(b)^m prod_b a(beta), and
        # a(beta) = (a mod b)(beta) at each root beta of b
        lc = b[-1]
        acc = acc * pow(lc, m, p) % p
        if m * n % 2:
            acc = -acc % p
        inv = pow(lc, -1, p)
        b = [x * inv % p for x in b]
        a, b = b, _rem_monic(a, b, p)


def circulant_det(c: CycElem) -> int:
    """Exact determinant of the q x q circulant of c.

    circ is a ring homomorphism, so det circ(c) = prod_j c(zeta^j) =
    Res(t^q - 1, c).  Write c = t^s g with g the honest polynomial whose
    support fits the shortest cyclic window (degree d < q, g(0) != 0);
    det circ(t^s) = (-1)^{s(q-1)}.  Modulo each prime p below 2^31,
    t^q - 1 is reduced modulo g by square-and-multiply and the resultant
    finished by Euclid; CRT recovers the integer.  Parseval and AM-GM give
    |prod_j g(zeta^j)| <= (sum g_k^2)^{q/2}, the rigorous prime budget.
    """
    q = c.q
    cs = c.coeffs
    support = [k for k, x in enumerate(cs) if x]
    if not support:
        return 0
    # the window starts right after the widest cyclic gap of the support
    gap, s = max(((b - a) % q or q, b) for a, b in zip(support, support[1:] + support[:1]))
    d = q - gap
    g = [cs[(s + k) % q] for k in range(d + 1)]
    sign = -1 if s * (q - 1) % 2 else 1
    if d == 0:
        return sign * g[0] ** q
    target_bits = (4 * sum(x * x for x in g) ** q).bit_length()
    primes = _primes_below_2_31(target_bits // 60 + 2)
    res, mod, i = 0, 1, 0
    # stop once mod^2 > 4 (sum g_k^2)^q: then mod > 2 |det| fixes the sign
    while 2 * (mod.bit_length() - 1) < target_bits:
        if i == len(primes):
            primes = _primes_below_2_31(2 * i)
        p = primes[i]
        i += 1
        lc = g[-1] % p
        if not lc:
            continue  # g drops degree mod p
        inv = pow(lc, -1, p)
        m = [x * inv % p for x in g]
        r = [1] + [0] * (d - 1)
        for bit in bin(q)[2:]:
            r = _mulmod(r, r, m, p)
            if bit == "1":
                r = _rem_monic([0] + r, m, p)
        r[0] = (r[0] - 1) % p
        # Res(t^q - 1, g) = (-1)^{qd} lc^q prod_{g(beta)=0} (t^q - 1)(beta)
        v = pow(lc, q, p) * _monic_resultant(m, r, p) % p
        if q * d % 2:
            v = -v % p
        res, mod = _crt_pair(res, mod, v, p)
    if res > mod // 2:
        res -= mod
    return sign * res


def expand_presentation(Bq, q: int) -> list:
    """Integer presentation: circulant-expand each Z[Z/q] entry."""
    h = len(Bq)
    n = h * q
    out = [[0] * n for _ in range(n)]
    for i in range(h):
        for j in range(h):
            block = circulant_expand(Bq[i][j])
            for a in range(q):
                row = out[i * q + a]
                brow = block[a]
                for b in range(q):
                    row[j * q + b] = brow[b]
    return out


def cover_homology(Bq, q: int) -> TorsionReport:
    """Torsion order and Betti number of the q-cover presentation.

    The blocks of the expansion are commuting circulants, so its
    determinant is det circ(ring determinant) = Res(t^q - 1, det Bq) (Fox's
    formula).  When that is nonzero the cokernel is finite of that order;
    a degenerate cover (zero resultant) falls back to exact SNF of the
    expanded presentation.
    """
    if q < 1:
        raise ValueError("cover degree must be >= 1")
    det = circulant_det(block_det(Bq, q=q))
    if det:
        torsion = abs(det)
        return TorsionReport(
            q=q,
            torsion_order=torsion,
            betti=0,
            log_torsion_over_q=_log(torsion) / q,
            method="circulant_det",
        )
    snf = smith_normal_form(expand_presentation(Bq, q))
    torsion = 1
    for d in snf.nonzero_factors():
        torsion *= d
    betti = snf.corank()
    return TorsionReport(
        q=q,
        torsion_order=torsion,
        betti=betti,
        log_torsion_over_q=_log(torsion) / q,
        method="snf",
    )


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
    last_window_mad: float | None = None


def growth_scan(B_inf, q_range, window: int = 5) -> GrowthScanResult:
    """Scan torsion of the q-covers against the Mahler-measure limit.

    B_inf is a square matrix (list of rows) of LaurentPoly.  A zero
    determinant is reported as degenerate: the cover homology keeps
    positive rank and the growth rate is undefined.
    """
    q_range = list(q_range)
    if not q_range or any(
        q2 <= q1 for q1, q2 in zip(q_range, q_range[1:])
    ):
        raise ValueError("q_range must be nonempty and ascending")
    det = block_det(B_inf, q=None)
    if det.is_zero():
        reports = [
            cover_homology([[reduce_mod_q(e, q) for e in r] for r in B_inf], q)
            for q in q_range
        ]
        return GrowthScanResult(reports=reports, mahler=None, degenerate=True)
    measure = mahler_measure(det)
    reports = []
    deviations = []
    for q in q_range:
        Bq = [[reduce_mod_q(e, q) for e in r] for r in B_inf]
        rep = cover_homology(Bq, q)
        reports.append(rep)
        deviations.append(abs(rep.log_torsion_over_q - measure.log_measure))
    tail = deviations[-window:]
    mad = sum(tail) / len(tail)
    return GrowthScanResult(
        reports=reports,
        mahler=measure,
        degenerate=False,
        deviations=deviations,
        last_window_mad=mad,
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
    cols = []
    for i in range(g):
        cols.append([1 if r == i else 0 for r in range(n)])
    for i in range(g):
        cols.append([P[r][i] for r in range(n)])
    A = [[cols[j][i] for j in range(n)] for i in range(n)]
    snf = smith_normal_form(A)
    factors = snf.invariant_factors
    torsion = 1
    for d in factors:
        if d:
            torsion *= d
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


def _int_det(M) -> int:
    """Fraction-free (Bareiss) determinant of a small integer matrix."""
    A = [[int(x) for x in row] for row in M]
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def betti_increase_check(Bq, q: int, root_index: int = 1) -> bool:
    """Whether passing to the q-cover raises the Betti number.

    True iff the exact ring determinant of Bq maps to zero under
    evaluation at a primitive q-th root of unity; decided by exact
    reduction of the lifted determinant modulo the q-th cyclotomic
    polynomial, never by floating point.
    """
    if math.gcd(root_index, q) != 1:
        from .hermitian import NonPrimitiveRoot

        raise NonPrimitiveRoot(f"gcd({root_index}, {q}) != 1")
    lift = block_det(Bq, q=q).lift()
    return lift.is_zero() or lift.divide_exact(cyclotomic(q)) is not None


def betti_increase_rank_check(Bq, q: int, root_index: int = 1, tol: float = 1e-9) -> bool:
    """Floating-point cross-check of betti_increase_check.

    Embeds Bq at the chosen primitive root and compares the numerical
    rank against full rank; exposed so the exact criterion's direction
    can be probed empirically.
    """
    from .hermitian import iota_scalar

    h = len(Bq)
    A = np.array(
        [[iota_scalar(Bq[i][j], root_index) for j in range(h)] for i in range(h)]
    )
    if h == 0:
        return False
    s = np.linalg.svd(A, compute_uv=False)
    scale = max(1.0, float(s[0]))
    return bool(s[-1] < tol * scale)
