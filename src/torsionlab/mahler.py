"""Mahler measures of integer polynomials and the cyclotomic dichotomy.

The zero/nonzero decision is made by exact integer arithmetic (trial
division by cyclotomic polynomials); floating point enters only for the
root product of provably-nonzero measures.  Root finding uses mpmath's
polynomial solver at boosted precision so large coefficients stay
accurate.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import mpmath as mp

from .ringcore import LaurentPoly, cyclotomic, laurent_eval, normalize_unit, totient

# Scan horizon for cyclotomic indices: phi(m) > 1000 for every m > 5000,
# so trial division over m <= 5000 is exhaustive for degrees up to 1000.
TOTIENT_SCAN_CAP = 5000
_MAX_KRONECKER_DEGREE = 1000


class ZeroPolynomial(ValueError):
    """Mahler measure of the zero polynomial is undefined."""


class RootRefinementFailed(RuntimeError):
    """Root polishing stalled above the requested residual tolerance."""


class DegreeBoundViolated(ValueError):
    """Candidate determinant exceeds the walk-length degree bound."""


class MahlerMethod(Enum):
    KRONECKER_EXACT_ZERO = "kronecker_exact_zero"
    ROOT_PRODUCT = "root_product"


@dataclass
class MahlerResult:
    log_measure: float
    roots: list[complex]
    leading_coeff: int
    method: MahlerMethod


@dataclass
class KroneckerFactorization:
    """Witness that +-p = t^k * prod Phi_{m_i}."""

    k_exponent: int
    cyclotomic_indices: Counter
    sign: int = 1


@dataclass
class ConstraintParams:
    """Parameters for the zero-measure constraint dichotomy."""

    alpha: float
    K: frozenset[int]
    d_mu: int
    g: int
    n_scan_max: int = 200
    circle_samples: int = 1024

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.g < 3:
            raise ValueError("genus must be >= 3")
        if self.d_mu < 1:
            raise ValueError("generator degree bound must be >= 1")
        self.K = frozenset(self.K)


class ConstraintVerdict(Enum):
    CYCLOTOMIC_HIT = "cyclotomic_hit"
    SMALL_EVERYWHERE = "small_everywhere"
    NOT_MAHLER_ZERO = "not_mahler_zero"


@dataclass
class ConstraintReport:
    verdict: ConstraintVerdict
    hit_index: int | None = None
    max_circle_value: float | None = None
    circle_bound: float | None = None
    degree: int = 0
    degree_bound: int = 0


def _graeffe_step(coeffs: list[int]) -> list[int]:
    """Root-squaring: coefficients of +-P(sqrt(y))P(-sqrt(y))."""
    d = len(coeffs) - 1
    out = [0] * (d + 1)
    # coefficient of x^{i+j} in P(x)P(-x) picks up a_i * b_j * (-1)^j;
    # odd powers cancel, even powers become the y-coefficients
    for i, a in enumerate(coeffs):
        if not a:
            continue
        for j, b in enumerate(coeffs):
            if b and (i + j) % 2 == 0:
                out[(i + j) // 2] += a * b if j % 2 == 0 else -a * b
    if out[d] < 0:
        out = [-c for c in out]
    return out


def _violates_unit_root_bound(coeffs: list[int]) -> bool:
    """True if some |c_k| exceeds binom(d, k): certifies m(P) > 0 for
    polynomials with unit leading coefficient."""
    d = len(coeffs) - 1
    return any(abs(c) > math.comb(d, k) for k, c in enumerate(coeffs))


def _eval_at_int(p: LaurentPoly, x: int) -> int:
    """Exact value of an honest polynomial at an integer point."""
    return sum(c * x**k for k, c in p.coeffs.items())


_CYC_AT_TWO: dict[int, int] = {}


def _cyclotomic_at_two(m: int) -> int:
    v = _CYC_AT_TWO.get(m)
    if v is None:
        v = _eval_at_int(cyclotomic(m), 2)
        _CYC_AT_TWO[m] = v
    return v


_TOTIENT_TABLE: list[int] = []


def _totient_table() -> list[int]:
    global _TOTIENT_TABLE
    if not _TOTIENT_TABLE:
        tab = list(range(TOTIENT_SCAN_CAP + 1))
        for p in range(2, TOTIENT_SCAN_CAP + 1):
            if tab[p] == p:  # prime
                for k in range(p, TOTIENT_SCAN_CAP + 1, p):
                    tab[k] -= tab[k] // p
        _TOTIENT_TABLE = tab
    return _TOTIENT_TABLE


def kronecker_zero_test(p: LaurentPoly) -> KroneckerFactorization | None:
    """Exact test whether +-p is a monomial times cyclotomics.

    Succeeds iff the Mahler measure of p is exactly zero.  Entirely
    integer arithmetic: unit leading/constant coefficients are required,
    a few Graeffe root-squaring steps reject measure-positive inputs
    cheaply (coefficients of a unit-circle polynomial are bounded by
    binomials, while root-squaring blows up any root off the circle),
    and the survivors are resolved by exhaustive cyclotomic division.
    """
    if p.is_zero():
        raise ZeroPolynomial("kronecker_zero_test of the zero polynomial")
    poly, shift = normalize_unit(p)
    k_exponent = -shift
    lead = poly.coeffs[poly.deg_hi]
    if lead not in (1, -1):
        return None
    if poly.coeffs[0] not in (1, -1):
        # a cyclotomic product has unit constant term as well
        return None
    deg = poly.degree_span()
    if deg > _MAX_KRONECKER_DEGREE:
        raise ValueError(f"degree {deg} beyond exhaustive scan horizon")
    if deg == 0:
        return KroneckerFactorization(k_exponent, Counter(), sign=lead)

    cs = poly.coeff_list()
    if _violates_unit_root_bound(cs):
        return None
    for _ in range(6):
        cs = _graeffe_step(cs)
        if _violates_unit_root_bound(cs):
            return None

    # survivor: strip cyclotomic factors until the quotient is a unit
    tab = _totient_table()
    indices: Counter = Counter()
    while poly.degree_span() > 0:
        deg = poly.degree_span()
        pval = _eval_at_int(poly, 2)
        progressed = False
        for m in range(1, min(2 * deg * deg + 2, TOTIENT_SCAN_CAP) + 1):
            if tab[m] > deg:
                continue
            # value filter: Phi_m(2) must divide poly(2)
            if pval % _cyclotomic_at_two(m):
                continue
            quot = poly.divide_exact(cyclotomic(m))
            if quot is not None:
                indices[m] += 1
                poly = quot
                progressed = True
                break
        if not progressed:
            return None
    const = poly.coeffs.get(0, 0)
    if const in (1, -1):
        return KroneckerFactorization(k_exponent, indices, sign=const)
    return None


# -- integer polynomial gcd (dense lists, index = exponent) -----------


def _pp(c: list[int]) -> list[int]:
    """Primitive part with positive leading coefficient."""
    while c and c[-1] == 0:
        c = c[:-1]
    if not c:
        return []
    g = 0
    for x in c:
        g = math.gcd(g, abs(x))
    if c[-1] < 0:
        g = -g
    return [x // g for x in c]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """prem(a, b): remainder after scaling so divisions stay integral."""
    a = list(a)
    d = len(a) - len(b)
    lb = b[-1]
    for k in range(d, -1, -1):
        lead = a[len(b) - 1 + k]
        a = [x * lb for x in a]
        for i, bc in enumerate(b):
            a[i + k] -= lead * bc
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    a, b = _pp(a), _pp(b)
    while b:
        if len(b) > len(a):
            a, b = b, a
            continue
        a, b = b, _pp(_pseudo_rem(a, b))
    return a


def _div_exact_int(a: list[int], b: list[int]) -> list[int]:
    """Quotient a // b for an exact integer division (Gauss's lemma)."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for k in range(len(out) - 1, -1, -1):
        c, r = divmod(a[len(b) - 1 + k], b[-1])
        if r:
            raise ArithmeticError("division expected to be exact")
        out[k] = c
        for i, bc in enumerate(b):
            a[i + k] -= c * bc
    if any(a):
        raise ArithmeticError("division expected to be exact")
    return out


def _derivative(c: list[int]) -> list[int]:
    return [k * x for k, x in enumerate(c)][1:]


def _refined_roots(dense: list[int], tol: float) -> list:
    """mpmath roots of a square-free integer polynomial, residual-checked."""
    coeffs = dense[::-1]
    bits = max(c.bit_length() for c in coeffs if c)
    degree = len(coeffs) - 1
    with mp.workdps(30 + 2 * degree + bits // 3):
        roots = mp.polyroots(
            [mp.mpf(c) for c in coeffs], maxsteps=400, extraprec=160
        )
        worst = mp.mpf(0)
        for r in roots:
            res = abs(mp.polyval([mp.mpf(c) for c in coeffs], r))
            scale = max(mp.mpf(1), abs(r)) ** degree * abs(coeffs[0])
            worst = max(worst, res / scale)
        if worst > tol:
            raise RootRefinementFailed(
                f"relative root residual {float(worst):.3e} exceeds tol {tol:.3e}"
            )
        return [mp.mpc(r) for r in roots]


def _roots_with_multiplicity(dense: list[int], tol: float) -> list:
    """All complex roots, repeated roots included.

    Repeated roots stall the polisher, so the polynomial is split as
    radical * gcd(P, P') and the two pieces are handled separately; the
    recursion bottoms out on square-free factors.
    """
    dense = _pp(dense)
    if len(dense) <= 1:
        return []
    g = _poly_gcd(dense, _derivative(dense))
    if len(g) <= 1:
        return _refined_roots(dense, tol)
    radical = _div_exact_int(dense, g)
    return _refined_roots(radical, tol) + _roots_with_multiplicity(g, tol)


def mahler_measure(p: LaurentPoly, tol: float = 1e-12) -> MahlerResult:
    """Logarithmic Mahler measure via Jensen's product formula.

    Exact-zero inputs are recognized by kronecker_zero_test and return 0
    with no floating point involved.  Otherwise the measure is
    log|a| + sum log max(1, |root|) over the roots (with multiplicity,
    via exact square-free splitting) refined to relative residual < tol.
    """
    if p.is_zero():
        raise ZeroPolynomial("mahler_measure of the zero polynomial")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if kronecker_zero_test(p) is not None:
        return MahlerResult(0.0, [], 1, MahlerMethod.KRONECKER_EXACT_ZERO)

    poly, _ = normalize_unit(p)
    dense = poly.coeff_list()
    lead = dense[-1]
    if len(dense) == 1:
        return MahlerResult(math.log(abs(lead)), [], lead, MahlerMethod.ROOT_PRODUCT)

    roots = _roots_with_multiplicity(dense, tol)
    with mp.workdps(40):
        logm = mp.log(abs(lead))
        for r in roots:
            ar = abs(r)
            if ar > 1:
                logm += mp.log(ar)
        out = float(logm)
    return MahlerResult(
        out, [complex(r) for r in roots], lead, MahlerMethod.ROOT_PRODUCT
    )


def build_K_alpha(alpha: float, m_max: int) -> set[int]:
    """Exceptional cyclotomic indices for the zero-measure dichotomy.

    Contains every m <= m_max with totient(m) <= sqrt(m) or with
    cyclotomic coefficient height exceeding m^(alpha*sqrt(m)/log m - 1);
    1 and 2 are always members.  Exact for m <= m_max; beyond the scan
    horizon the asymptotic coefficient bound is an assumption, which the
    caller must flag.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    K = {1, 2}
    for m in range(3, m_max + 1):
        if totient(m) ** 2 <= m:
            K.add(m)
            continue
        height = cyclotomic(m).content_max()
        # c(Phi_m) > m^eta  <=>  log c > alpha*sqrt(m) - log m
        if math.log(height) > alpha * math.sqrt(m) - math.log(m):
            K.add(m)
    return K


def constraint_check(
    p: LaurentPoly, params: ConstraintParams, n: int
) -> ConstraintReport:
    """Classify a candidate walk determinant by the zero-measure dichotomy.

    Either p has positive Mahler measure, or some Phi_k with k in the
    exceptional set divides it, or p is uniformly small on the unit
    circle at rate alpha' = alpha / ((g-1) * d_mu) per degree.
    """
    if p.is_zero():
        raise ZeroPolynomial("constraint_check of the zero polynomial")
    poly, _ = normalize_unit(p)
    degree = poly.degree_span()
    bound = (params.g - 1) * params.d_mu * n
    if degree > bound:
        raise DegreeBoundViolated(
            f"deg {degree} exceeds (g-1)*d_mu*n = {bound}; inconsistent input"
        )
    if kronecker_zero_test(poly) is None:
        return ConstraintReport(
            ConstraintVerdict.NOT_MAHLER_ZERO, degree=degree, degree_bound=bound
        )
    for k in sorted(params.K):
        if poly.divide_exact(cyclotomic(k)) is not None:
            return ConstraintReport(
                ConstraintVerdict.CYCLOTOMIC_HIT,
                hit_index=k,
                degree=degree,
                degree_bound=bound,
            )
    alpha_prime = params.alpha / ((params.g - 1) * params.d_mu)
    limit = math.exp(alpha_prime * degree)
    worst = 0.0
    samples = params.circle_samples
    for i in range(samples):
        theta = 2 * math.pi * i / samples
        val = abs(laurent_eval(poly, complex(math.cos(theta), math.sin(theta))))
        worst = max(worst, val)
    # the sampled sup is a diagnostic witness, not a proof; both numbers
    # are reported so the caller can compare
    return ConstraintReport(
        ConstraintVerdict.SMALL_EVERYWHERE,
        max_circle_value=worst,
        circle_bound=limit,
        degree=degree,
        degree_bound=bound,
    )
