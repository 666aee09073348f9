"""Mahler measures of integer polynomials and the cyclotomic dichotomy.

The zero/nonzero decision is made by exact integer arithmetic: after
three necessary conditions (unit ends, a palindromic or anti-palindromic
coefficient list, the binomial bound |c_j| <= binom(d, j)), the kernel's
one cyclotomic split (_phi_split) runs over the indices in ascending order
until it passes the largest index a cyclotomic factor of the remaining
degree can have; the input has measure zero (Kronecker) exactly when a
constant remains, and the split's multiplicities are its certificate.
Floating point enters only for the root product of provably-nonzero
measures, on the rest of the same split: each Phi_m it divides out adds
its roots e^(2 pi i j/m), gcd(j, m) = 1, in closed form, and nothing to
the measure.  An input failing a condition is split over Phi_1 and Phi_2 only.
The kernel folds a palindromic rest (every walk determinant is one) to
half the degree in x = t + 1/t; each root x gives back the pair
t = x/2 +- sqrt(x^2/4 - 1).
Roots of each square-free factor come from one Aberth root finder: the
eigenvalues of the companion matrix, one LAPACK call on floats, seed a
polish on fixed-point Gaussian integers, pairs of Python ints (a, b)
standing for (a + ib) / 2^prec, at a precision set by the coefficient
height and the degree.  The coefficients are real, so the roots are
closed under conjugation, and LAPACK returns the complex eigenvalues as
exact conjugate pairs: the polish takes one representative per pair,
whose sum also takes its conjugate's terms, and keeps the real roots
real, in real arithmetic.  A pair whose step would cross the real axis
is regrouped as two real roots; two real roots whose steps would pass
each other stand for a pair, and the polish goes on unpaired from its
current iterates, as it does from the start on seeds that are not exact
pairs; one sweep does both, and unpaired it is plain Aberth.  A proven
upper bound on the relative residual, the evaluation's rounding
included, certifies the result, and each root polished for a pair is
then listed with its exact conjugate, so no caller of the polish sees
pairs.  The unfold stays on the same Gaussian integers, exact conjugates
unfolding to exact conjugates, and the norms |t|^2 > 1 of every factor
and the squared leading coefficient are multiplied exactly into one
x / 2^s, whose one logarithm (_half_log) is an atanh series on Python
ints at LOG_BITS fraction bits; numpy is the only dependency.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ringcore import LaurentPoly, cyclotomic, laurent_eval, normalize_unit, totient
from .ringcore import _derivative, _div_exact_int, _fold_palindromic, _phi_split
from .ringcore import _poly_gcd, _pp, _squarefree_by_prime

# unit-circle sample points for the SMALL_EVERYWHERE diagnostic sup
CIRCLE_SAMPLES = 1024
# start angle offset of the circle seeds for roots out of the float range
FLOAT_SEED_ANGLE = 0.7
# equal seeds are pulled apart by 2^-SEED_NUDGE_BITS times their size
SEED_NUDGE_BITS = 26
# sweep cap of the fixed-point polish per started hundred of degree: from
# the float seeds, the roots of a higher degree take more sweeps to settle
POLISH_STEPS = 60
# fraction bits of the one logarithm of mahler_measure, past the 133 bits
# of 40 digits
LOG_BITS = 160


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
    """Log Mahler measure, the roots it was summed over, and how.

    dps is the decimal precision of the root polish (0 when no root was
    polished), which ran on _prec(dps) fraction bits, and residual a proven
    upper bound on the worst relative residual |p(r)| / (|lead| max(1,
    |r|)^d) of a polished root r of its square-free factor p of degree d.
    log_measure is one logarithm of the exact product of lead^2 and the
    polished norms |r|^2 > 1, halved and rounded once to a float.
    """

    log_measure: float
    roots: list[complex]
    leading_coeff: int
    method: MahlerMethod
    dps: int = 0
    residual: float = 0.0


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

    def __post_init__(self):
        _check_alpha(self.alpha)
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


def _cyclotomic_split(cs: list[int]) -> tuple[list[int], dict[int, int]] | None:
    """_phi_split of the dense F = cs, F(0) != 0 and degree d, over every
    index, or None when F fails one of three necessary conditions for
    every root to lie on |t| = 1:
    1. unit ends: a product of cyclotomics has leading and constant
       coefficient +-1;
    2. (anti-)palindrome: roots on |t| = 1 are closed under t -> 1/t, so
       the reversed coefficients are those of +-F (minus for an odd power
       of Phi_1 = t - 1, the one anti-palindromic cyclotomic);
    3. binomial bound: if every root has modulus 1, the coefficients are
       elementary symmetric functions of them, so |c_j| <= binom(d, j).
       After 2., |c_j| = |c_(d-j)|, so j <= d/2 suffices, where binom(d, j)
       rises with j: the check stops at the first j whose binom(d, j)
       reaches max |c|.
    The split stops past the largest index a cyclotomic factor of the
    rest's degree can have, so no cyclotomic polynomial divides the rest.
    """
    if cs[-1] not in (1, -1) or cs[0] not in (1, -1):
        return None
    rev = cs[::-1]
    if rev != cs and rev != [-c for c in cs]:
        return None
    d, top, b = len(cs) - 1, max(map(abs, cs)), 1
    for j in range(d // 2 + 1):  # b = binom(d, j)
        if b >= top:
            break
        if abs(cs[j]) > b:
            return None
        b = b * (d - j) // (j + 1)
    return _phi_split(cs, itertools.count(1))


def kronecker_zero_test(p: LaurentPoly) -> KroneckerFactorization | None:
    """Exact test whether +-p is a monomial times cyclotomics.

    Succeeds iff the Mahler measure of p is exactly zero (Kronecker: a
    monic integer polynomial with every root on |t| = 1 is a product of
    cyclotomics): exactly when _cyclotomic_split of F = p t^k, F(0) != 0,
    leaves a constant, in integer arithmetic throughout.  The split's
    multiplicities are the certificate.
    """
    if p.is_zero():
        raise ZeroPolynomial("kronecker_zero_test of the zero polynomial")
    cs = p.coeff_list()
    split = _cyclotomic_split(cs)
    if split is None or len(split[0]) > 1:
        return None
    return KroneckerFactorization(p.deg_lo, Counter(split[1]), sign=cs[-1])


def _fixed(x: float, shift: int) -> int:
    """floor(x * 2^shift), exactly."""
    num, den = x.as_integer_ratio()
    return (num << shift) // den if shift >= 0 else num // (den << -shift)


def _newton_seeds(dense: list[int], prec: int) -> list[tuple[int, int]]:
    """Seeds in fixed point on the circles of the Newton polygon.

    An edge from j0 to j1 of the upper convex hull of the points
    (j, bits(p_j)), p_j != 0, stands for j1 - j0 roots of modulus about
    2^k, k = (bits(p_j0) - bits(p_j1)) / (j1 - j0); they start evenly
    spaced on the circle of radius 2^round(k), which is exact in fixed
    point.  The roots at 0 below the first point start at 0.
    """
    d = len(dense) - 1
    hull = []
    for j, c in enumerate(dense):
        if c:
            b = abs(c).bit_length()
            # drop the last point while it lies on or below the new chord
            while len(hull) > 1 and ((hull[-1][1] - hull[-2][1]) * (j - hull[-2][0])
                                     <= (b - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
                hull.pop()
            hull.append((j, b))
    seeds = [(0, 0)] * hull[0][0]
    for (j0, b0), (j1, b1) in zip(hull, hull[1:]):
        m, k = j1 - j0, round((b0 - b1) / (j1 - j0))
        for i in range(m):
            a = 2 * math.pi * (i / m + j0 / d) + FLOAT_SEED_ANGLE
            seeds.append((_fixed(math.cos(a), prec + k), _fixed(math.sin(a), prec + k)))
    return seeds


def _seeds(dense: list[int], prec: int) -> tuple[list[tuple[int, int]], int | None]:
    """Seeds in fixed point: the eigenvalues of the companion matrix, and
    the number of conjugate pairs among them.

    Coefficients are scaled below 2^1000 so they fit a float, and one
    LAPACK call returns all roots, backward stable (Edelman-Murakami,
    Polynomial roots from companion matrix eigenvalues, Math. Comp. 1995).
    The matrix is real, so its complex eigenvalues come back as exact
    conjugate pairs: the seeds list one representative per pair (imaginary
    part > 0) first, then the real eigenvalues (imaginary part 0).
    Unless every eigenvalue is usable, every seed comes from _newton_seeds
    instead: a scaled coefficient or the companion matrix can be out of
    the float range, an eigenvalue non-finite, or 0 for a polynomial with
    p_0 != 0, which is a root below the float range or the eigenvalues'
    absolute error.  Those seeds, and eigenvalues that are not exact
    conjugate pairs in fixed point, are returned unpaired (pairs None).
    Equal seeds are nudged apart, so no Aberth correction divides by zero:
    a real seed along the real axis, so it stays real, any other one
    upwards.
    """
    scale = 1 << max(0, max(c.bit_length() for c in dense) - 1000)
    lo = [c / scale for c in dense]
    roots, pairs = None, None
    if all(x or not c for c, x in zip(dense, lo)):
        try:
            with np.errstate(over="ignore"):
                roots = np.roots(lo[::-1]).tolist()
        except np.linalg.LinAlgError:
            pass
    if roots is None or not all(cmath.isfinite(z) and (z or not dense[0]) for z in roots):
        fixed = _newton_seeds(dense, prec)
    else:
        upper = [z for z in roots if z.imag > 0]
        lower = [z.conjugate() for z in roots if z.imag < 0]
        fixed = [(_fixed(z.real, prec), _fixed(z.imag, prec)) for z in upper]
        if all(b for _, b in fixed) and (upper == lower or Counter(upper) == Counter(lower)):
            pairs = len(fixed)
            fixed += [(_fixed(z.real, prec), 0) for z in roots if not z.imag]
        else:
            fixed = [(_fixed(z.real, prec), _fixed(z.imag, prec)) for z in roots]
    seeds, seen = [], set()
    for i, s in enumerate(fixed):
        while s in seen:
            nudge = max(abs(s[0]), abs(s[1]), 1 << prec) >> SEED_NUDGE_BITS
            s = (s[0] + nudge, 0) if pairs is not None and i >= pairs else (s[0], s[1] + nudge)
        seen.add(s)
        seeds.append(s)
    return seeds, pairs


def _fixed_horner(coeffs: list[int], za: int, zb: int, prec: int):
    """p(z) and p'(z) on fixed-point Gaussian integers.

    z = (za + i zb) / 2^prec; coeffs lists p from the top degree down,
    each shifted left by prec.  Every product is rounded down to 2^-prec,
    so p comes out within sqrt(2) * sum_{j<d} |z|^j units of 2^-prec of
    the exact p(z).  Integers do not overflow, so |z| > 1 needs no
    reversal: a rounded 1/z would lose log2|z| bits of relative precision.
    A real z skips the products by zb = 0, which leave the imaginary
    parts 0.
    """
    pa, pb, da, db = coeffs[0], 0, 0, 0
    if not zb:
        for c in coeffs[1:]:
            da = (da * za >> prec) + pa
            pa = (pa * za >> prec) + c
        return pa, pb, da, db
    for c in coeffs[1:]:
        da, db = ((da * za - db * zb) >> prec) + pa, ((da * zb + db * za) >> prec) + pb
        pa, pb = ((pa * za - pb * zb) >> prec) + c, (pa * zb + pb * za) >> prec
    return pa, pb, da, db


def _aberth_step(pa: int, pb: int, da: int, db: int, sa: int, sb: int, prec: int):
    """The Aberth step p / (p' - p s) in fixed point, s = sum_j 1/(z - w_j)."""
    qa = da - ((pa * sa - pb * sb) >> prec)
    qb = db - ((pa * sb + pb * sa) >> prec)
    den = qa * qa + qb * qb
    return ((pa * qa + pb * qb) << prec) // den, ((pb * qa - pa * qb) << prec) // den


def _unsettled(ta: int, tb: int, za: int, zb: int, prec: int) -> bool:
    """Whether the step (ta, tb) at z is at least 2^-(prec//2) * max(1, |z|)."""
    return (ta * ta + tb * tb) << 2 * (prec // 2) > max(1 << 2 * prec, za * za + zb * zb)


def _aberth_sweep(hi: list[int], roots: list, live, prec: int,
                  pairs: int | None) -> tuple[list[int], int | None]:
    """One Gauss-Seidel Aberth sweep over the live roots, in place; returns
    the roots that have not settled and the number of pairs.

    Unless pairs is None, roots[:pairs] each stand also for their
    conjugate and roots[pairs:] are real.  A representative z sums
    1/(z - w) + 1/(z - conj w) over the other representatives and
    1/(z - conj z) = -i / (2 Im z) for its own conjugate; a real x sums
    2 Re 1/(x - w) over the representatives.  Every root then sums
    1/(z - w) over the other roots[pairs:], all of them when pairs is
    None (plain Aberth); a real x over real y gives real terms, so its
    p, p' and step are real.  A representative whose step would cross the
    real axis stands for two real roots: it is regrouped as the real roots
    Re z +- Im z.  A real root whose step would pass another real root
    stands with it for a conjugate pair, which real roots cannot reach:
    the polish goes on unpaired (pairs None), every pair listed as both
    its roots and the two real roots replaced by their midpoint +- i times
    half their distance.  The sweep ends at a regrouping, and the next one
    takes every root.
    """
    two = 2 * prec
    reps = pairs or 0
    moving = []
    for i in live:
        za, zb = roots[i]
        pa, pb, da, db = _fixed_horner(hi, za, zb, prec)
        try:
            if i < reps:
                sa, sb = 0, -((1 << two - 1) // zb)
                for wa, wb in itertools.chain(roots[:i], roots[i + 1:reps]):
                    ea = za - wa
                    ea2, eb, ec = ea * ea, zb - wb, zb + wb
                    d1, d2 = ea2 + eb * eb, ea2 + ec * ec
                    ea <<= two
                    sa += ea // d1 + ea // d2
                    sb -= (eb << two) // d1 + (ec << two) // d2
            else:
                sa = sb = 0
                for wa, wb in roots[:reps]:
                    ea = za - wa
                    sa += (ea << two + 1) // (ea * ea + wb * wb)
            for j, (wa, wb) in enumerate(roots[reps:], reps):
                if j != i:
                    ea, eb = za - wa, zb - wb
                    den = ea * ea + eb * eb
                    sa += (ea << two) // den
                    sb -= (eb << two) // den
            ta, tb = _aberth_step(pa, pb, da, db, sa, sb, prec)
        except ZeroDivisionError:
            moving.append(i)
            continue
        if i < reps:
            if tb >= zb:
                del roots[i]
                roots += [(za + zb, 0), (za - zb, 0)]
                return range(len(roots)), pairs - 1
        elif pairs is not None:
            lo, up = (za - ta, za) if ta > 0 else (za, za - ta)
            for j, (ya, _) in enumerate(roots[pairs:], pairs):
                if lo <= ya <= up and j != i:
                    del roots[max(i, j)], roots[min(i, j)]
                    roots.insert(pairs, ((za + ya) >> 1, (abs(za - ya) + 1) >> 1))
                    _with_conjugates(roots, pairs + 1)
                    return range(len(roots)), None
        roots[i] = za - ta, zb - tb
        if _unsettled(ta, tb, za, zb, prec):
            moving.append(i)
    return moving, pairs


def _with_conjugates(roots: list, pairs: int) -> None:
    """Lists each of roots[:pairs] followed by its conjugate, in place."""
    roots[:pairs] = [(a, s * b) for a, b in roots[:pairs] for s in (1, -1)]


def _fixed_aberth(hi: list[int], roots: list[tuple[int, int]], prec: int, steps: int,
                  pairs: int | None) -> bool:
    """Aberth's simultaneous iteration on fixed-point Gaussian integers,
    in place.

    Gauss-Seidel order; the step p / (p' - p sum_j 1/(z - w_j)) is the
    Aberth correction.  A root is frozen once its step is below
    2^-(prec//2) * max(1, |z|).  Unless pairs is None, roots[:pairs] each
    stand also for their conjugate and roots[pairs:] are real, and only
    these are polished; _aberth_sweep may regroup them or go on unpaired
    in the same `steps` sweeps, so roots[:degree - len(roots)] stand for
    the pairs at the end.  True when every root froze within `steps`
    sweeps.
    """
    live = range(len(roots))
    for _ in range(steps):
        live, pairs = _aberth_sweep(hi, roots, live, prec, pairs)
        if not live:
            return True
    return False


def _residual_bound(hi: list[int], roots, prec: int) -> float:
    """Upper bound on max |p(r)| / (|lead| max(1, |r|)^d) over the roots.

    _fixed_horner rounds p(r) by at most sqrt(2) d max(1, |r|)^(d-1)
    units of 2^-prec, which is below 2d units once divided by
    max(1, |r|)^d.  So the fixed-point |p(r)| is rounded up, divided by
    max(1, |r|)^d rounded down, 2d units are added, and the quotient by
    |lead| is rounded up to a float.  p has real coefficients, so
    |p(conj r)| = |p(r)|: one root of a conjugate pair bounds both.
    """
    d = len(hi) - 1
    worst = 0
    for za, zb in roots:
        pa, pb = _fixed_horner(hi, za, zb, prec)[:2]
        size = math.isqrt(pa * pa + pb * pb) + 1
        norm = za * za + zb * zb
        if norm > 1 << 2 * prec:
            # |r|^d 2^prec by squaring, rounded down at every product
            r, low = math.isqrt(norm), 1 << prec
            for bit in bin(d)[2:]:
                low = low * low >> prec
                if bit == "1":
                    low = low * r >> prec
            size = -(-(size << prec) // low)
        worst = max(worst, size + 2 * d)
    lead = abs(hi[0])
    if worst.bit_length() > lead.bit_length() + 1000:
        return math.inf
    return math.nextafter(worst / lead, math.inf)


def _prec(dps: int) -> int:
    """Fraction bits for dps decimal digits, by mpmath's dps_to_prec."""
    return max(1, round((dps + 1) * 3.3219280948873626))


def _refined_roots(dense: list[int], tol: float) -> tuple[list[tuple[int, int]], int, int, float]:
    """Roots of a square-free integer polynomial, polished by Aberth.

    The companion-matrix seeds of _seeds start a fixed-point Aberth polish
    on Gaussian integers at prec = _prec(dps) fractional bits, with
    dps = 30 + bits/3 + degree/2 (bits: coefficient height); it stops once
    every relative step is below 2^-(prec/2), within POLISH_STEPS sweeps
    per started hundred of degree.  Returns all degree roots as pairs
    (a, b) standing for (a + ib) / 2^prec, each root polished for a
    conjugate pair (_fixed_aberth) followed by its exact conjugate
    (a, -b), then prec, dps and a proven upper bound on the worst relative
    residual |p(r)| / (max(1, |r|)^d |lead|), which must not exceed tol;
    a pair's root bounds its conjugate too (_residual_bound).  Hitting
    the sweep cap or the tolerance raises RootRefinementFailed.
    """
    degree = len(dense) - 1
    dps = 30 + max(c.bit_length() for c in dense) // 3 + degree // 2
    prec = _prec(dps)
    hi = [c << prec for c in reversed(dense)]
    roots, pairs = _seeds(dense, prec)
    steps = POLISH_STEPS * -(-degree // 100)
    if not _fixed_aberth(hi, roots, prec, steps, pairs):
        raise RootRefinementFailed(
            f"Aberth polish of degree {degree} did not settle in {steps} sweeps"
        )
    worst = _residual_bound(hi, roots, prec)
    if not worst <= tol:
        raise RootRefinementFailed(f"relative root residual {worst:.3e} exceeds tol {tol:.3e}")
    _with_conjugates(roots, degree - len(roots))
    return roots, prec, dps, worst


def _roots_with_multiplicity(dense: list[int], tol: float) -> list[tuple[list, int, int, float]]:
    """_refined_roots of every square-free factor, repeated roots included,
    as (roots, prec, dps, residual).

    Repeated roots stall the polisher, so the polynomial is split as
    radical * gcd(P, P') and the two pieces are handled separately; the
    recursion bottoms out on square-free factors.  P is proved square-free
    modulo one prime where it can be; the exact primitive-PRS gcd runs
    only when a few primes fail.
    """
    dense = _pp(dense)
    if len(dense) <= 1:
        return []
    if _squarefree_by_prime(dense):
        return [_refined_roots(dense, tol)]
    g = _poly_gcd(dense, _derivative(dense))
    if len(g) <= 1:
        return [_refined_roots(dense, tol)]
    return [_refined_roots(_div_exact_int(dense, g), tol)] + _roots_with_multiplicity(g, tol)


def _unfold(xs: list[tuple[int, int]], prec: int) -> list[tuple[int, int]]:
    """Both roots t of t + 1/t = x for every x, the larger one first, all
    in fixed point at prec fractional bits.

    t = (x + r) / 2 with r = sqrt(x^2 - 4) on the branch Re(conj(x) r) >= 0,
    so the sum does not cancel and |t| >= 1; the other root is
    1/t = conj(t) / |t|^2.  The t of conj(x) are the conjugates of those
    of x, so an x right after its exact conjugate, as _refined_roots lists
    each pair, takes them so: exact conjugates unfold to exact conjugates,
    at half the work.  The square root w^(1/2) takes the stable formula:
    whichever of Re, Im is larger comes from sqrt((|w| +- Re w) / 2), the
    other is Im w / 2 divided by it.
    """
    out = []
    for k, (xa, xb) in enumerate(xs):
        if k and xs[k - 1] == (xa, -xb):
            out += [(a, -b) for a, b in out[-2:]]
            continue
        wa = ((xa * xa - xb * xb) >> prec) - (4 << prec)
        wb = (xa * xb) >> (prec - 1)
        size = math.isqrt(wa * wa + wb * wb)
        if wa >= 0:
            ra = math.isqrt((size + wa) << (prec - 1))
            rb = (wb << (prec - 1)) // ra if ra else 0
        else:
            rb = math.isqrt((size - wa) << (prec - 1))
            rb = rb if wb >= 0 else -rb
            ra = (wb << (prec - 1)) // rb
        if xa * ra + xb * rb < 0:
            ra, rb = -ra, -rb
        ta, tb = (xa + ra) >> 1, (xb + rb) >> 1
        norm = ta * ta + tb * tb
        out += [(ta, tb), ((ta << 2 * prec) // norm, (-tb << 2 * prec) // norm)]
    return out


def _norm_product(roots: list[tuple[int, int]], prec: int) -> tuple[int, int]:
    """(P, s): P / 2^s is the product of the norms |r|^2 > 1 of the roots,
    exactly."""
    one, product, shift = 1 << 2 * prec, 1, 0
    for za, zb in roots:
        norm = za * za + zb * zb
        if norm > one:
            product, shift = product * norm, shift + 2 * prec
    return product, shift


def _atanh(num: int, den: int) -> int:
    """2 atanh(num / den) in fixed point at LOG_BITS fraction bits, for
    |num| <= den / 3: the series 2 sum z^(2k+1) / (2k + 1) over |z|, whose
    terms shrink by z^2 <= 1/9, every one rounded down, so the total is
    low in size by less than 4 units per term."""
    z = (abs(num) << LOG_BITS) // den
    z2, total, k = z * z >> LOG_BITS, 0, 1
    while z:
        total += z // k
        z, k = z * z2 >> LOG_BITS, k + 2
    return 2 * total if num >= 0 else -2 * total


LN2 = _atanh(1, 3)  # ln 2 = 2 atanh(1/3), at LOG_BITS fraction bits


def _half_log(x: int, s: int) -> float:
    """ln(x / 2^s) / 2 for x >= 2^s, rounded once to a float.

    With x = y 2^e, y in [3/4, 3/2), ln x = e ln 2 + 2 atanh((x - 2^e) /
    (x + 2^e)), whose argument lies in [-1/7, 1/5]; both terms are fixed
    point at LOG_BITS fraction bits.  The total is at least ln(3/2) once
    e > s, so its relative error stays near 2^-LOG_BITS whatever the size
    of x; the fixed-point sum is rounded once, to the float quotient.
    """
    e = (4 * x // 3).bit_length() - 1  # 2^e <= 4x/3 < 2^(e+1)
    one = 1 << e
    return ((e - s) * LN2 + _atanh(x - one, x + one)) / (1 << LOG_BITS + 1)


def _unit_roots(m: int) -> list[complex]:
    """The primitive m-th roots of unity e^(2 pi i j/m), gcd(j, m) = 1, in
    ascending j, as mpmath's unitroots lists them: +-1 and +-i exactly,
    the others by cmath on the float angle, and those of j and m - j
    exact conjugates."""
    if m in (1, 2, 4):
        return {1: [1 + 0j], 2: [-1 + 0j], 4: [1j, complex(0, -1)]}[m]
    half = [cmath.rect(1.0, math.tau * j / m) for j in range(1, (m + 1) // 2) if math.gcd(j, m) == 1]
    return half + [z.conjugate() for z in reversed(half)]


def _to_float(a: int, prec: int) -> float:
    """a / 2^prec, rounded to a float; beyond the float range +-inf."""
    try:
        return a / (1 << prec)
    except OverflowError:
        return math.inf if a > 0 else -math.inf


def mahler_measure(p: LaurentPoly, tol: float = 1e-12) -> MahlerResult:
    """Logarithmic Mahler measure via Jensen's product formula.

    The input is split by _cyclotomic_split, or, when it fails one of its
    three conditions, over Phi_1 and Phi_2 only: on walk determinants the
    full split costs more than the polish it saves.  A unit rest is an
    exact zero (Kronecker), with no floating point involved.  Otherwise
    the measure is log|a| + sum log max(1, |root|) over the roots, with
    multiplicity: the roots of each Phi_m split off are listed exactly, a
    palindromic rest c(t) = t^m Q(t + 1/t) is folded to Q, and the
    square-free factors of Q (or of the rest) are solved to relative
    residual < tol, each at the precision _refined_roots sets for it.  The
    norms |root|^2 > 1 of every factor and lead^2 are multiplied exactly in
    fixed point into one x / 2^s, and m = ln(x / 2^s) / 2 is its one
    logarithm (_half_log), rounded once.  The result records the largest
    polish dps and the worst residual.
    """
    if p.is_zero():
        raise ZeroPolynomial("mahler_measure of the zero polynomial")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, not {tol}")
    dense = p.coeff_list()
    lead = dense[-1]
    rest, k = _cyclotomic_split(dense) or _phi_split(dense, (1, 2))
    if rest in ([1], [-1]):
        return MahlerResult(0.0, [], 1, MahlerMethod.KRONECKER_EXACT_ZERO)
    if len(dense) == 1:
        return MahlerResult(math.log(abs(lead)), [], lead, MahlerMethod.ROOT_PRODUCT)

    folded = _fold_palindromic(rest)
    factors = _roots_with_multiplicity(folded or rest, tol)
    roots = [z for m, e in k.items() for z in _unit_roots(m) * e]
    x, s = lead * lead, 0
    for fixed, prec, _, _ in factors:
        if folded is not None:
            fixed = _unfold(fixed, prec)
        product, shift = _norm_product(fixed, prec)
        x, s = x * product, s + shift
        roots += [complex(_to_float(za, prec), _to_float(zb, prec)) for za, zb in fixed]
    dps = max((f[2] for f in factors), default=0)
    residual = max((f[3] for f in factors), default=0.0)
    return MahlerResult(_half_log(x, s), roots, lead, MahlerMethod.ROOT_PRODUCT, dps, residual)


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")


def build_K_alpha(alpha: float, m_max: int) -> set[int]:
    """Exceptional cyclotomic indices for the zero-measure dichotomy.

    Contains every m <= m_max with totient(m) <= sqrt(m) or with
    cyclotomic coefficient height exceeding m^(alpha*sqrt(m)/log m - 1);
    1 and 2 are always members.  Exact for m <= m_max; beyond the scan
    horizon the asymptotic coefficient bound is an assumption, which the
    caller must flag.
    """
    _check_alpha(alpha)
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
    fac = kronecker_zero_test(poly)
    if fac is None:
        return ConstraintReport(
            ConstraintVerdict.NOT_MAHLER_ZERO, degree=degree, degree_bound=bound
        )
    # Phi_k is irreducible, so it divides p iff k is a certified index
    hits = [k for k in fac.cyclotomic_indices if k in params.K]
    if hits:
        return ConstraintReport(
            ConstraintVerdict.CYCLOTOMIC_HIT,
            hit_index=min(hits),
            degree=degree,
            degree_bound=bound,
        )
    alpha_prime = params.alpha / ((params.g - 1) * params.d_mu)
    try:
        limit = math.exp(alpha_prime * degree)
    except OverflowError:  # a large alpha takes the bound past the float range
        limit = math.inf
    worst = 0.0
    for i in range(CIRCLE_SAMPLES):
        theta = 2 * math.pi * i / CIRCLE_SAMPLES
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


def __getattr__(name: str):
    # mahler.mp is mpmath, imported on first use: the library does not
    # use it, but perfbench's tracer reads the name
    if name == "mp":
        import mpmath

        return mpmath
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
