"""Independent oracles the tests share: the sparse Laurent polynomial
the dense LaurentPoly replaced, exact integer determinants and
resultants, float Mahler measures, the Graeffe fixed-point Kronecker
test, the full binomial row, divisors by trial division, the list kernel
of Phi_m quotients and the plain cyclotomic split on it, plain Aberth
sweeps, the iota evaluation of one element, the exterior basis vector e
and coefficient, and the form check by two matrix products."""

import decimal
import functools
import itertools
import json
import math
import operator

import numpy as np

from torsionlab.hermitian import _iota_at, reidemeister_form
from torsionlab.mahler import _aberth_step, _fixed_horner, _unsettled
from torsionlab.ringcore import (
    _graeffe_step,
    _mobius_binomials,
    _poly_divmod,
    cyclotomic,
    normalize_unit,
)


class DictLaurent:
    """Integer Laurent polynomial stored sparsely, as a map exponent ->
    nonzero coefficient: the LaurentPoly of earlier releases, whose
    products take the double loop over term pairs.  Kept as the reference
    for the dense LaurentPoly, operation for operation."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        d = {}
        for k, c in items:
            c = int(c)
            if c:
                d[int(k)] = d.get(int(k), 0) + c
                if not d[int(k)]:
                    del d[int(k)]
        self.coeffs = d

    @classmethod
    def from_list(cls, coeffs, lo: int = 0) -> "DictLaurent":
        return cls({lo + i: c for i, c in enumerate(coeffs) if c})

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def deg_lo(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return min(self.coeffs)

    @property
    def deg_hi(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def degree_span(self) -> int:
        return self.deg_hi - self.deg_lo if self.coeffs else -1

    def __getitem__(self, k: int) -> int:
        return self.coeffs.get(k, 0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = DictLaurent({0: other})
        return self.coeffs == other.coeffs

    def __add__(self, other):
        if isinstance(other, int):
            other = DictLaurent({0: other})
        d = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = d.get(k, 0) + c
            if s:
                d[k] = s
            elif k in d:
                del d[k]
        return DictLaurent(d)

    __radd__ = __add__

    def __neg__(self):
        return DictLaurent({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return DictLaurent({0: other}) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return DictLaurent({k: c * other for k, c in self.coeffs.items()})
        d = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                d[ka + kb] = d.get(ka + kb, 0) + ca * cb
        return DictLaurent(d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers only for units; shift exponents instead")
        out = DictLaurent({0: 1})
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k: int) -> "DictLaurent":
        return DictLaurent({e + k: c for e, c in self.coeffs.items()})

    def involution(self) -> "DictLaurent":
        return DictLaurent({-e: c for e, c in self.coeffs.items()})

    def augmentation(self) -> int:
        return sum(self.coeffs.values())

    def content_max(self) -> int:
        return max((abs(c) for c in self.coeffs.values()), default=0)

    def coeff_list(self) -> list[int]:
        if not self.coeffs:
            return []
        lo = self.deg_lo
        out = [0] * (self.deg_hi - lo + 1)
        for k, c in self.coeffs.items():
            out[k - lo] = c
        return out

    def divide_exact(self, other: "DictLaurent") -> "DictLaurent | None":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return DictLaurent()
        qr = _poly_divmod(self.coeff_list(), other.coeff_list())
        if qr is None or qr[1]:
            return None
        return DictLaurent.from_list(qr[0], lo=self.deg_lo - other.deg_lo)

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        terms = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{k}")
        return "LaurentPoly(" + " + ".join(terms) + ")"

    def to_json_obj(self) -> list[list]:
        return [[k, str(decimal.Decimal(self.coeffs[k]))] for k in sorted(self.coeffs)]

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj())


def bareiss_det(M):
    """Independent exact determinant (fraction-free elimination)."""
    A = [list(map(int, row)) for row in M]
    n = len(A)
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
    return sign * A[-1][-1]


def resultant_with_tq_minus_1(p, q: int) -> int:
    """|Res(P, t^q - 1)| by the Sylvester matrix, independent of the
    library's circulant identity."""
    cs = p.coeff_list()
    d = len(cs) - 1
    n = d + q
    S = [[0] * n for _ in range(n)]
    for i in range(q):  # q shifted copies of P
        for k, c in enumerate(cs):
            S[i][i + d - k] = c
    g = [1] + [0] * (q - 1) + [-1]  # t^q - 1
    for i in range(d):
        for k, c in enumerate(g):
            S[q + i][i + q - k] = c
    return abs(bareiss_det(S))


def jensen_oracle(p) -> float:
    """Independent float Jensen product via numpy companion roots."""
    cs = p.coeff_list()
    roots = np.roots(np.array(cs[::-1], dtype=float))
    return math.log(abs(cs[-1])) + sum(
        math.log(a) for a in np.abs(roots) if a > 1
    )


@functools.lru_cache(maxsize=None)
def _totient_sieve(n: int) -> np.ndarray:
    """phi(m) for m < n."""
    phi = np.arange(n, dtype=np.int64)
    for p in range(2, n):
        if phi[p] == p:  # p is prime: no smaller prime has touched it
            phi[p::p] -= phi[p::p] // p
    return phi


def _small_totient_indices(d: int) -> list[int]:
    """Every m with phi(m) <= d, ascending: phi(m) >= sqrt(m / 2) leaves
    none beyond 2 d^2 + 2.  The sieve is shared by the d of one power of 2."""
    top = max(64, 1 << (d - 1).bit_length())
    phi = _totient_sieve(2 * top * top + 3)[: 2 * d * d + 3]
    return [int(m) for m in np.flatnonzero(phi <= d) if m]


def _divide_monic(a: list[int], b: list[int]) -> list[int] | None:
    """a / b by schoolbook long division for monic b, or None when b does
    not divide a."""
    a, n = list(a), len(b) - 1
    q = [0] * (len(a) - n)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = a[i + n]
        for j, x in enumerate(b):
            a[i + j] -= c * x
    return q if not any(a[:n]) else None


def graeffe_kronecker(p):
    """(sign, k, {m: e}) with p = sign t^k prod Phi_m^e, or None when p is
    no such product, by the Graeffe fixed-point test (Bradford-Davenport,
    Effective tests for cyclotomic polynomials, ISSAC 1988).

    On the monic F = +-p t^-k of degree d with unit ends, root-squaring G
    is iterated: an iterate with some |c_j| > binom(d, j) has a root off
    the unit circle; G(F) = F means squaring permutes the roots, so all are
    roots of unity; a cyclotomic product reaches its fixed point within
    floor(log2 d) + 2 steps.  The indices of a certified input come from
    long division by every Phi_m with phi(m) <= d, ascending.
    """
    poly, shift = normalize_unit(p)
    cs = poly.coeff_list()
    lead = cs[-1]
    if lead not in (1, -1) or cs[0] not in (1, -1):
        return None
    d = len(cs) - 1
    f = cs if lead == 1 else [-c for c in cs]
    bound = [math.comb(d, j) for j in range(d + 1)]
    for _ in range(d.bit_length() + 1):
        if any(abs(c) > b for c, b in zip(f, bound)):
            return None
        g = _graeffe_step(f)
        if g == f:
            break
        f = g
    else:
        return None
    f = cs if lead == 1 else [-c for c in cs]
    indices = {}
    for m in _small_totient_indices(d):
        phi_m = cyclotomic(m).coeff_list()
        # Phi_m | f forces Phi_m(2) | f(2), a cheap filter before dividing
        at2 = sum(c << j for j, c in enumerate(phi_m))
        while (len(phi_m) <= len(f) and not sum(c << j for j, c in enumerate(f)) % at2
               and (q := _divide_monic(f, phi_m)) is not None):
            f, indices[m] = q, indices.get(m, 0) + 1
    assert f == [1], "a certified input is a product of cyclotomics"
    return lead, -shift, indices


def binomial_row(d: int) -> list[int]:
    """binom(d, j) for j = 0..d, by b_(j+1) = b_j (d - j) / (j + 1)."""
    row = [1]
    for j in range(d):
        row.append(row[-1] * (d - j) // (j + 1))
    return row


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending, by trial division."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _times_binomial(g: list[int], d: int) -> list[int]:
    """g (1 - t^d)."""
    return list(map(operator.sub, g + [0] * d, [0] * d + g))


def _over_binomial(g: list[int], d: int) -> list[int] | None:
    """g / (1 - t^d) when that division is exact, else None.

    The quotient's coefficients are the running sums of g along each
    residue class mod d: q_i = g_i + q_(i-d).  The division is exact iff
    the whole remainder, the last d running sums, vanishes.  The sums run
    per residue class when d is small and per block of d otherwise, so
    either loop takes at most sqrt(len g) steps.
    """
    n = len(g)
    if d * d < n:
        q = [0] * n
        for r in range(d):
            q[r::d] = list(itertools.accumulate(g[r::d]))
    else:
        q = g[:d]
        for k in range(d, n, d):
            q += map(operator.add, g[k:k + d], q[k - d:k])
    cut = max(n - d, 0)
    if any(q[cut:]):
        return None
    return q[:cut]


def _phi_quotient(g: list[int], m: int) -> list[int] | None:
    """g / Phi_m when Phi_m divides the nonzero polynomial g, else None.

    Phi_m = prod_{d | m} (1 - t^d)^mu(m/d) for m > 1, and 1 - t = -Phi_1.
    g is first multiplied by the binomials with mu = -1, then divided by
    those with mu = 1, each in one pass; every division checks its whole
    remainder.  Since the product comes first, every division is exact
    exactly when Phi_m divides g.  The list kernel the library's numpy
    rows replaced, kept as their reference.
    """
    plus, minus = _mobius_binomials(m)
    if sum(plus) - sum(minus) >= len(g):
        return None
    for d in minus:
        g = _times_binomial(g, d)
    for d in plus:
        g = _over_binomial(g, d)
        if g is None:
            return None
    return g if m > 1 else [-c for c in g]


def phi_split_oracle(g: list[int], candidates) -> tuple[list[int], dict[int, int]]:
    """(rest, k) of the cyclotomic split by the list kernel: divide by
    Phi_e while it divides, for every e of the finite candidates, with no
    Phi_e(2) filter and no horizon."""
    k = {}
    for e in candidates:
        while (quot := _phi_quotient(g, e)) is not None:
            g, k[e] = quot, k.get(e, 0) + 1
    return g, k


def unpaired_sweep(hi: list[int], roots: list, live, prec: int) -> list[int]:
    """One Gauss-Seidel Aberth sweep over the live roots, in place; returns
    the roots that have not settled."""
    two = 2 * prec
    moving = []
    for i in live:
        za, zb = roots[i]
        pa, pb, da, db = _fixed_horner(hi, za, zb, prec)
        sa = sb = 0
        try:
            for j, (wa, wb) in enumerate(roots):
                if j != i:
                    ea, eb = za - wa, zb - wb
                    den = ea * ea + eb * eb
                    sa += (ea << two) // den
                    sb -= (eb << two) // den
            ta, tb = _aberth_step(pa, pb, da, db, sa, sb, prec)
        except ZeroDivisionError:
            moving.append(i)
            continue
        roots[i] = za - ta, zb - tb
        if _unsettled(ta, tb, za, zb, prec):
            moving.append(i)
    return moving


def iota_scalar(c, root_index: int = 1) -> complex:
    """Evaluation of a group-ring element at exp(2*pi*i*j/q), by the
    evaluator iota_embed uses."""
    return _iota_at(c.q, root_index)(c)


def e_vector(marking) -> np.ndarray:
    """The basis vector e = a_1 ^ ... ^ a_(g-1) of the exterior power."""
    v = np.zeros(marking.dim, dtype=complex)
    v[marking.e_index] = 1.0
    return v


def exterior_coefficient(A: np.ndarray, marking) -> complex:
    """The f-coefficient of the exterior-power image of e.

    Equals the determinant of the bottom-left (g-1)x(g-1) block of A (the
    Leibniz identity), which is exterior_power_matrix(A, marking)[f, e].
    """
    h = marking.g - 1
    block = A[h : 2 * h, 0:h]
    if h == 0:
        return 0j
    return complex(np.linalg.det(block))


def form_preserved_by_products(M) -> bool:
    """M^T J Mbar == J by two general matrix products."""
    J = reidemeister_form(M.model, M.q)
    return M.transpose() @ J @ M.conjugate() == J
