"""Mahler measure: closed-form oracles, Kronecker test, constraint dichotomy."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import torsionlab
from torsionlab import mahler
from torsionlab.mahler import (
    ConstraintParams,
    ConstraintVerdict,
    DegreeBoundViolated,
    MahlerMethod,
    RootRefinementFailed,
    ZeroPolynomial,
    build_K_alpha,
    constraint_check,
    kronecker_zero_test,
    mahler_measure,
)
from torsionlab.hermitian import FormMatrix, SurfaceModel, block_det, bottom_left_block
from torsionlab.ringcore import (
    LaurentPoly,
    _derivative,
    _div_exact_int,
    _graeffe_step,
    _index_horizon,
    _mobius_binomials,
    _phi_index,
    _phi_split,
    _poly_gcd,
    _poly_mul,
    _pp,
    _squarefree_by_prime,
    cyclotomic,
    normalize_unit,
    totient,
)
from torsionlab.walks import bundled_generators

from oracles import _totient_sieve, binomial_row, graeffe_kronecker, jensen_oracle, unpaired_sweep

rng = random.Random(99)

LEHMER = LaurentPoly(
    {10: 1, 9: 1, 7: -1, 6: -1, 5: -1, 4: -1, 3: -1, 1: 1, 0: 1}
)
# non-cyclotomic factors of small Mahler measure: Lehmer, the two
# smallest Pisot numbers
SMALL_MEASURE = (LEHMER, LaurentPoly({3: 1, 1: -1, 0: -1}), LaurentPoly({4: 1, 3: -1, 0: -1}))



def rand_poly(deg=6, coeff=5):
    d = rng.randint(1, deg)
    c = {k: rng.randint(-coeff, coeff) for k in range(d)}
    c[d] = rng.choice([x for x in range(-coeff, coeff + 1) if x])
    return LaurentPoly(c)


# -- closed-form known values -----------------------------------------


def test_linear_integer_root():
    # m(t - 2) = log 2 exactly (single root of modulus 2)
    res = mahler_measure(LaurentPoly({1: 1, 0: -2}))
    assert res.log_measure == pytest.approx(math.log(2), abs=1e-12)
    assert res.method is MahlerMethod.ROOT_PRODUCT


def test_golden_ratio():
    # roots of t^2 - t - 1 are (1 +- sqrt 5)/2; only the golden ratio
    # lies outside the unit circle
    golden = (1 + math.sqrt(5)) / 2
    res = mahler_measure(LaurentPoly({2: 1, 1: -1, 0: -1}))
    assert res.log_measure == pytest.approx(math.log(golden), abs=1e-12)


def test_lehmer_value():
    res = mahler_measure(LEHMER)
    assert res.log_measure == pytest.approx(0.1623576120, abs=1e-9)
    assert res.log_measure == pytest.approx(jensen_oracle(LEHMER), abs=1e-9)


def test_leading_coefficient_contributes():
    # m(c p) = log|c| + m(p)
    p = LaurentPoly({1: 1, 0: -2})
    res = mahler_measure(LaurentPoly({1: 3, 0: -6}))
    assert res.log_measure == pytest.approx(math.log(3) + math.log(2), abs=1e-12)


def test_monomial_and_constant():
    assert mahler_measure(LaurentPoly.t(7)).log_measure == 0.0
    assert mahler_measure(LaurentPoly({0: 5})).log_measure == pytest.approx(
        math.log(5)
    )


def test_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        mahler_measure(LaurentPoly.zero())
    with pytest.raises(ZeroPolynomial):
        kronecker_zero_test(LaurentPoly.zero())


# -- multiplicativity --------------------------------------------------


def test_multiplicativity_random_pairs():
    for _ in range(60):
        a, b = rand_poly(4), rand_poly(4)
        lhs = mahler_measure(a * b).log_measure
        rhs = mahler_measure(a).log_measure + mahler_measure(b).log_measure
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_shift_invariance():
    p = rand_poly(5)
    base = mahler_measure(p).log_measure
    for k in (-3, 2, 11):
        assert mahler_measure(p * LaurentPoly.t(k)).log_measure == pytest.approx(
            base, abs=1e-10
        )


# -- root finding against an independent oracle ------------------------


def polyroots_oracle(p: LaurentPoly) -> tuple[float, int]:
    """m(p) and the root count from mpmath's Durand-Kerner solver on
    each square-free factor, at the precision of the old root path."""
    dense = normalize_unit(p)[0].coeff_list()
    total, count = mp.log(abs(dense[-1])), 0
    f = _pp(dense)
    while len(f) > 1:
        g = _poly_gcd(f, _derivative(f))
        rad = _div_exact_int(f, g) if len(g) > 1 else f
        deg = len(rad) - 1
        with mp.workdps(30 + 2 * deg + max(c.bit_length() for c in rad) // 3):
            roots = mp.polyroots([mp.mpf(c) for c in rad[::-1]], maxsteps=800, extraprec=160)
            total += sum(mp.log(abs(r)) for r in roots if abs(r) > 1)
        count += deg
        f = g
    return float(total), count


def walk_determinants(lengths, seed):
    gens, _ = bundled_generators(3)
    pick = random.Random(seed)
    out = []
    for n in lengths:
        while True:
            w = FormMatrix.identity(SurfaceModel(3))
            for _ in range(n):
                w = gens[pick.randrange(len(gens))] @ w
            det = block_det(bottom_left_block(w))
            if not det.is_zero() and kronecker_zero_test(det) is None:
                out.append(det)
                break
    return out


def oracle_inputs():
    pick = random.Random(7)
    t = LaurentPoly.t(1)
    one = LaurentPoly.one()

    def rand(deg, height=9):
        cs = [pick.randint(-height, height) for _ in range(deg)] + [pick.randint(1, height)]
        cs[0] = cs[0] or 1
        return cs

    cases = [("walk", p) for p in walk_determinants((16, 28, 40), seed=2016)]
    for n in (3, 4, 5):  # palindromic of odd degree 2n - 1
        half = rand(n - 1)
        cases.append(("palindromic", LaurentPoly.from_list(half + half[::-1])))
    for n, mid in ((3, [0]), (4, []), (6, [0])):  # anti-palindromic
        half = rand(n - 1)
        cases.append(("anti", LaurentPoly.from_list(half + mid + [-c for c in half[::-1]])))
    for a, b in ((1, 0), (3, 2), (0, 4)):
        base = LaurentPoly.from_list(rand(5)) * SMALL_MEASURE[1]
        cases.append(("unit roots", base * (t - one) ** a * (t + one) ** b))
    cases.append(("repeated", LEHMER * LEHMER))
    cases.append(("repeated", SMALL_MEASURE[1] ** 2 * cyclotomic(12)))
    cases.append(("repeated", SMALL_MEASURE[2] * cyclotomic(12) * LEHMER ** 2))
    for deg in (5, 12, 20):  # non-reciprocal
        cases.append(("random", LaurentPoly.from_list(rand(deg, 2 ** 40)).shift(-2)))
    big = LaurentPoly({0: 2 ** 200})  # roots of wildly different size
    cases.append(("sizes", (t - big) * (big * t - one) * LEHMER))
    return cases


def test_aberth_matches_polyroots_oracle():
    for kind, p in oracle_inputs():
        res = mahler_measure(p)
        want, count = polyroots_oracle(p)
        assert res.method is MahlerMethod.ROOT_PRODUCT, kind
        assert len(res.roots) == count == normalize_unit(p)[0].degree_span(), kind
        assert res.log_measure == pytest.approx(want, abs=1e-10), kind
        assert res.dps > 30 and 0 <= res.residual <= 1e-12, kind


def exact_mpc(a: int, b: int, prec: int):
    """(a + ib) / 2^prec as an mpc, exactly."""
    exact = mp.libmp.from_man_exp
    return mp.make_mpc((exact(a, -prec), exact(b, -prec)))


def test_residual_bounds_mpmath_residual(monkeypatch):
    # the reported residual of every square-free factor is a proven upper
    # bound: at least the residual of the same roots in mpmath at twice
    # the dps
    polished = []

    def record(dense, tol):
        out = refined(dense, tol)
        polished.append((dense, *out))
        return out

    refined = mahler._refined_roots
    monkeypatch.setattr(mahler, "_refined_roots", record)
    for kind, p in oracle_inputs():
        mahler_measure(p)
    assert len(polished) >= len(oracle_inputs())
    for dense, roots, dps, residual in polished:
        d, lead = len(dense) - 1, abs(dense[-1])
        # all d roots; every oracle input settles paired, so each pair
        # root comes with its exact conjugate
        assert len(roots) == d and sorted(roots) == sorted((a, -b) for a, b in roots), dense
        prec = mp.libmp.dps_to_prec(dps)
        with mp.workdps(2 * dps):
            worst = max(abs(mp.polyval(dense[::-1], exact_mpc(a, b, prec)))
                        / (lead * max(1, abs(exact_mpc(a, b, prec))) ** d)
                        for a, b in roots)
        assert worst <= residual <= 1e-12, dense


def test_fixed_point_unfold_matches_mpmath(monkeypatch):
    # t = h +- sqrt(h^2 - 1), h = x/2, at twice the precision, on the folded
    # roots of oracle_inputs() and of Lehmer (its unimodular pairs come from
    # real x in (-2, 2)), and on x at and near +-2, where the square root
    # amplifies the rounding of x^2 - 4 by 1/|sqrt(x^2 - 4)|
    unfolded = []

    def record(xs, prec):
        unfolded.append((xs, prec))
        return unfold(xs, prec)

    unfold = mahler._unfold
    monkeypatch.setattr(mahler, "_unfold", record)
    for kind, p in oracle_inputs() + [("lehmer", LEHMER)]:
        mahler_measure(p)
    lehmer_xs, prec = unfolded[-1]
    assert sum(abs(a) < 2 << prec and abs(b) < 1 << prec // 2 for a, b in lehmer_xs) == 4
    prec = 120
    two = 2 << prec
    near = [(s * two + e, f) for s in (1, -1) for e, f in
            ((0, 0), (1, 0), (-1, 0), (1 << 20, 0), (-(1 << 20), 0), (0, 1), (3, -(1 << 40)))]
    unfolded.append((near, prec))
    conjugates = 0
    for xs, prec in unfolded:
        got = unfold(xs, prec)
        assert len(got) == 2 * len(xs)
        # an x right after its exact conjugate unfolds to exact conjugates
        for i in range(1, len(xs)):
            if xs[i] == (xs[i - 1][0], -xs[i - 1][1]):
                conjugates += 1
                assert got[2 * i: 2 * i + 2] == [(a, -b) for a, b in got[2 * i - 2: 2 * i]]
        with mp.workdps(2 * mp.libmp.prec_to_dps(prec)):
            ulp = mp.mpf(2) ** -prec
            for i, (a, b) in enumerate(xs):
                h = exact_mpc(a, b, prec) / 2
                s = mp.sqrt(h * h - 1)
                big = max(h + s, h - s, key=abs)
                tol = 16 * ulp * max(1, abs(h)) * (1 + 1 / max(abs(s), ulp))
                for (ta, tb), want in zip(got[2 * i: 2 * i + 2], (big, 1 / big)):
                    assert abs(exact_mpc(ta, tb, prec) - want) <= tol, (a, b, prec)
    assert conjugates


@pytest.mark.parametrize("cs, k", [([1, 2 ** 900, 1, 1], 900), ([1, 2 ** 600, 0, 0, 1], 600),
                                   ([1, 2 ** 1500, 1, 1], 1500), ([1, 2 ** 1200, 0, 0, 1], 1200)])
def test_roots_of_very_different_sizes(cs, k):
    # t^3 + t^2 + 2^k t + 1 has roots near -2^-k and +-i 2^(k/2), and
    # t^4 + 2^k t + 1 near -2^-k and 2^(k/3) times the cube roots of -1;
    # seeds all on one circle did not settle.  At k = 1500 and 1200 the
    # companion matrix overflows, and the seeds start on the Newton
    # polygon's circles
    res = mahler_measure(LaurentPoly.from_list(cs))
    assert res.log_measure == pytest.approx(k * math.log(2), abs=1e-10)
    assert 0 < res.residual <= 1e-12


def test_equal_float_seeds_are_nudged_apart():
    # (t - 5)(2^80 t - 5 * 2^80 - 1): the roots 5 and 5 + 2^-80 are one
    # double eigenvalue in floats; the double real seed is nudged along
    # the real axis, so both seeds stay real
    big = 1 << 80
    dense = _poly_mul([-5, 1], [-5 * big - 1, big])
    assert len(set(np.roots([float(c) for c in dense[::-1]]).tolist())) == 1
    seeds, pairs = mahler._seeds(dense, 200)
    assert pairs == 0 and len(set(seeds)) == 2 and all(b == 0 for _, b in seeds)
    res = mahler_measure(LaurentPoly.from_list(dense))
    want = mp.log(big) + mp.log(5) + mp.log(5 + mp.mpf(2) ** -80)
    assert res.log_measure == pytest.approx(float(want), abs=1e-10)
    assert 0 < res.residual <= 1e-12


def conjugates_listed(roots, pairs):
    """roots with each of roots[:pairs] followed by its conjugate."""
    return [(a, s * b) for a, b in roots[:pairs] for s in (1, -1)] + roots[pairs:]


def same_roots(got, want, prec):
    """Whether got and want are one multiset within 2^-(prec/2) relative:
    each root of got is matched to its nearest unmatched root of want."""
    want = list(want)
    for a, b in got:
        k = min(range(len(want)), key=lambda k: (a - want[k][0]) ** 2 + (b - want[k][1]) ** 2)
        wa, wb = want.pop(k)
        if ((a - wa) ** 2 + (b - wb) ** 2) << prec > max(1 << 2 * prec, wa * wa + wb * wb):
            return False
    return not want


def test_paired_polish_matches_unpaired(monkeypatch):
    # the paired polish against the same seeds polished unpaired, every
    # conjugate listed as a seed of its own
    inputs = oracle_inputs() + [(f"walk{n}", p) for n, p in
                                zip((16, 28, 40, 64, 96), walk_determinants((16, 28, 40, 64, 96), seed=2016))]
    calls = []
    polish, seeds = mahler._fixed_aberth, mahler._seeds

    def record(hi, roots, prec, steps, pairs):
        calls.append((kind, hi, list(roots), prec, steps, pairs))
        return polish(hi, roots, prec, steps, pairs)

    def unpaired(dense, prec):
        roots, pairs = seeds(dense, prec)
        return conjugates_listed(roots, pairs or 0), None

    monkeypatch.setattr(mahler, "_fixed_aberth", record)
    paired = []
    for kind, p in inputs:
        paired.append(mahler_measure(p))
    monkeypatch.setattr(mahler, "_fixed_aberth", polish)
    monkeypatch.setattr(mahler, "_seeds", unpaired)
    for (kind, p), res in zip(inputs, paired):
        want = mahler_measure(p)
        assert res.log_measure == want.log_measure, kind
        assert (len(res.roots), res.dps, res.leading_coeff) == (len(want.roots), want.dps, want.leading_coeff)
        assert res.residual <= 1e-12, kind
    crossed, sweep = set(), mahler._aberth_sweep

    def spy(hi, roots, live, prec, pairs):
        out = sweep(hi, roots, live, prec, pairs)
        if out[1] is not None and out[1] < pairs:
            crossed.add(kind)
        return out

    monkeypatch.setattr(mahler, "_aberth_sweep", spy)
    for kind, hi, start, prec, steps, pairs in calls:
        # with pairs None the sweep is plain Aberth: the oracle's iterates,
        # sweep by sweep, from the seeds with every conjugate listed
        one = conjugates_listed(start, pairs or 0)
        listed = list(one)
        live = moving = range(len(one))
        for _ in range(steps):
            live, unpaired = sweep(hi, one, live, prec, None)
            moving = unpaired_sweep(hi, listed, moving, prec)
            assert (one, live, unpaired) == (listed, moving, None), kind
            if not moving:
                break
        if pairs is None:
            continue
        # one step of one root from the seeds: a representative's sum has
        # every term of the unpaired sum, so its step is the same; the
        # unpaired sum floors a real root's two conjugate terms apart, so
        # its step may differ by a few units, and it leaves the real axis
        for i in range(len(start)):
            one, listed = list(start), conjugates_listed(start, pairs)
            k = 2 * i if i < pairs else pairs + i
            assert mahler._aberth_sweep(hi, one, [i], prec, pairs)[1] == pairs, kind
            unpaired_sweep(hi, listed, [k], prec)
            (a, b), (c, d) = one[i], listed[k]
            if i < pairs:
                assert (a, b) == (c, d), kind
            else:
                assert b == 0 and abs(a - c) <= pairs + 2 and abs(d) <= pairs + 2, kind
        roots, oracle = list(start), conjugates_listed(start, pairs)
        assert polish(hi, roots, prec, steps, pairs) and polish(hi, oracle, prec, steps, None), kind
        assert same_roots(conjugates_listed(roots, len(hi) - 1 - len(roots)), oracle, prec), kind
    # the crossing-pair route: a pair seed was regrouped as two real roots
    assert {"sizes", "walk64"} <= crossed


def test_real_seeds_of_a_complex_pair_go_unpaired():
    # N t^2 - 2N t + N + 1, N = 10^20, has the roots 1 +- i 10^-10, a
    # double real eigenvalue in floats: the two real seeds pass each
    # other, and the polish goes on unpaired from a conjugate pair
    n, prec = 10 ** 20, 200
    dense = [n + 1, -2 * n, n]
    roots, pairs = mahler._seeds(dense, prec)
    assert pairs == 0 and len(set(roots)) == 2 and all(b == 0 for _, b in roots)
    assert mahler._fixed_aberth([c << prec for c in reversed(dense)], roots, prec, 60, pairs)
    imag = sorted(b / 2 ** prec for _, b in roots)
    assert imag == pytest.approx([-1e-10, 1e-10], rel=1e-12)
    res = mahler_measure(LaurentPoly.from_list(dense))
    assert sorted(z.imag for z in res.roots) == pytest.approx([-1e-10, 1e-10], rel=1e-12)
    assert res.log_measure == pytest.approx(math.log(n), abs=1e-12)
    assert 0 < res.residual <= 1e-12


@pytest.mark.parametrize("k", [60, 900, 1500, 2500])
def test_roots_beyond_float_range(k):
    # from k = 1500 on, the companion matrix overflows or its eigenvalues
    # underflow, and the roots start on the Newton polygon's circle of
    # radius 2^(+-k) or 2^(+-k/2) in fixed point instead
    for cs in ([-(2 ** k), 1], [-1, 2 ** k], [-(2 ** k), 3, 1], [1, 3, 2 ** k]):
        res = mahler_measure(LaurentPoly.from_list(cs))
        assert res.log_measure == pytest.approx(k * math.log(2), abs=1e-10), cs
        assert 0 < res.residual <= 1e-12, cs
    if k > 1024:
        # reported roots beyond the float range saturate to inf and 0
        assert mahler_measure(LaurentPoly.from_list([-(2 ** k), 1])).roots == [complex(math.inf, 0)]
        assert mahler_measure(LaurentPoly.from_list([-1, 2 ** k])).roots == [0j]


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-12])
def test_tolerance_must_be_positive(tol):
    with pytest.raises(ValueError, match="tolerance"):
        mahler_measure(LEHMER, tol=tol)


def test_residual_check_still_fires():
    with pytest.raises(RootRefinementFailed):
        mahler_measure(LEHMER, tol=1e-300)


def test_polish_sweep_cap_raises(monkeypatch):
    # one sweep from float seeds cannot reach a step below 2^-(prec/2);
    # the unpolished roots must not be returned
    monkeypatch.setattr(mahler, "POLISH_STEPS", 1)
    with pytest.raises(RootRefinementFailed, match="did not settle"):
        mahler_measure(LEHMER)


def test_result_reports_precision_and_residual():
    zero = mahler_measure(cyclotomic(12) * LaurentPoly.t(3))
    assert (zero.dps, zero.residual) == (0, 0.0)
    res = mahler_measure(LEHMER * LEHMER)
    # 30 + bits/3 + degree/2 for the folded Lehmer factor
    # x^5 + x^4 - 5x^3 - 5x^2 + 4x + 3
    assert res.dps == 30 + 3 // 3 + 5 // 2
    assert 0 < res.residual <= 1e-12
    # (t - 1)^2 (t + 1) 3 needs no root finding: its roots are +-1
    unit = mahler_measure(LaurentPoly.from_list([-3, 3, 3, -3]))
    assert unit.log_measure == pytest.approx(math.log(3))
    assert sorted(r.real for r in unit.roots) == [-1, 1, 1] and unit.dps == 0



def test_squarefree_by_one_prime_matches_prs_path(monkeypatch):
    # a random degree-40 polynomial with 120-bit coefficients, the kind on
    # which the primitive-PRS gcd(P, P') used to dominate mahler_measure
    big = random.Random(120)
    dense = [big.getrandbits(120) * big.choice((1, -1)) for _ in range(41)]
    assert _squarefree_by_prime(dense)
    assert len(_poly_gcd(dense, _derivative(dense))) == 1
    # a square factor survives modulo every prime that keeps the degree
    assert not _squarefree_by_prime(_poly_mul(dense[:5], dense[:5]))
    # the first three primes below 2^31 all divide this leading coefficient
    lc = 2147483647 * 2147483629 * 2147483587
    assert not _squarefree_by_prime([3, 1, lc])
    inputs = [LaurentPoly.from_list(dense), LEHMER * LEHMER * SMALL_MEASURE[1],
              LaurentPoly.from_list([3, 1, lc])]
    fast = [mahler_measure(p) for p in inputs]
    monkeypatch.setattr(mahler, "_squarefree_by_prime", lambda c: False)
    for p, res in zip(inputs, fast):
        prs = mahler_measure(p)
        assert res.log_measure == prs.log_measure
        assert res.roots == prs.roots
        assert (res.dps, res.residual) == (prs.dps, prs.residual)

# -- Kronecker exact-zero test ----------------------------------------


@pytest.mark.parametrize("d", [1, 2, 17, 990])
def test_binomial_row_matches_comb(d):
    assert binomial_row(d) == [math.comb(d, j) for j in range(d + 1)]


def _passes_three_conditions(cs):
    """The three necessary conditions of _cyclotomic_split, the bound
    checked on every coefficient against the whole binomial row."""
    rev = cs[::-1]
    return (cs[0] in (1, -1) and cs[-1] in (1, -1) and rev in (cs, [-c for c in cs])
            and all(abs(c) <= b for c, b in zip(cs, binomial_row(len(cs) - 1))))


def test_binomial_bound_stops_at_the_largest_coefficient():
    # t^d + 1 with c_j = c_(d-j) = binom(d, j) passes the bound, one more
    # fails it, at j = 1, 2 and the middle, for odd and even d
    for d in (9, 10, 15):
        for j in (1, 2, d // 2):
            for extra, sign in ((0, 1), (1, 1), (0, -1), (1, -1)):
                cs = [1] + [0] * (d - 1) + [sign]
                cs[j] = math.comb(d, j) + extra
                cs[d - j] = sign * cs[j]
                if sign == -1 and 2 * j == d:
                    continue  # the middle of an anti-palindrome is 0
                assert _passes_three_conditions(cs) is (extra == 0)
                assert (mahler._cyclotomic_split(cs) is None) is (extra == 1), (d, j, extra, sign)
    # seeded (anti-)palindromes with unit ends near the bound
    gen = random.Random(31)
    decided = {True: 0, False: 0}
    for _ in range(400):
        # every coefficient within its bound but one, on it or just past it
        d, sign = gen.randint(2, 24), gen.choice((1, -1))
        cs = [gen.randint(-math.comb(d, j), math.comb(d, j)) for j in range(d + 1)]
        cs[0] = gen.choice((1, -1))
        j = gen.randint(1, d // 2)
        cs[j] = gen.choice((1, -1)) * (math.comb(d, j) + gen.randint(0, 1))
        for j in range(d // 2 + 1):
            cs[d - j] = sign * cs[j]
        if sign == -1 and d % 2 == 0:
            cs[d // 2] = 0
        want = _passes_three_conditions(cs)
        decided[want] += 1
        assert (mahler._cyclotomic_split(cs) is not None) is want, cs
    assert min(decided.values()) > 100, decided


def test_kronecker_on_cyclotomic_products():
    p = cyclotomic(1) * cyclotomic(6) * cyclotomic(6) * LaurentPoly.t(-3)
    fac = kronecker_zero_test(p)
    assert fac is not None
    assert fac.k_exponent == -3
    assert dict(fac.cyclotomic_indices) == {1: 1, 6: 2}
    assert mahler_measure(p).method is MahlerMethod.KRONECKER_EXACT_ZERO


def test_kronecker_rejects_positive_measure():
    assert kronecker_zero_test(LaurentPoly({1: 1, 0: -2})) is None
    assert kronecker_zero_test(LEHMER) is None
    assert kronecker_zero_test(LaurentPoly({2: 1, 1: -1, 0: -1})) is None


def test_kronecker_sign_and_units():
    fac = kronecker_zero_test(LaurentPoly({0: -1}))
    assert fac is not None and fac.sign == -1
    assert kronecker_zero_test(LaurentPoly({0: 2})) is None


def test_kronecker_matches_float_oracle_small_grid():
    # exhaustive degree-2 and -3 integer polynomials, small coefficients
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                if c == 0:
                    continue
                p = LaurentPoly({0: a, 1: b, 2: c})
                is_zero = kronecker_zero_test(p) is not None
                assert is_zero == (jensen_oracle(p) < 1e-9), p.coeffs


def test_kronecker_large_cyclotomic():
    p = cyclotomic(105) * cyclotomic(15)
    fac = kronecker_zero_test(p)
    assert fac is not None
    assert dict(fac.cyclotomic_indices) == {105: 1, 15: 1}


def phi_2010() -> LaurentPoly:
    # Phi_{2m}(t) = Phi_m(-t) for odd m
    return LaurentPoly({k: (-1) ** k * c for k, c in cyclotomic(1005).coeffs.items()})


def test_kronecker_certifies_index_beyond_2000():
    p = phi_2010()
    assert p.degree_span() == 528
    fac = kronecker_zero_test(p)
    assert fac is not None
    assert (fac.k_exponent, fac.sign, dict(fac.cyclotomic_indices)) == (0, 1, {2010: 1})
    assert mahler_measure(p).method is MahlerMethod.KRONECKER_EXACT_ZERO


def test_kronecker_certifies_degree_beyond_1000():
    p = LaurentPoly.t(3) * LaurentPoly({1: 1, 0: -1}) ** 1001
    fac = kronecker_zero_test(p)
    assert fac is not None
    assert (fac.k_exponent, fac.sign, dict(fac.cyclotomic_indices)) == (3, 1, {1: 1001})


def test_kronecker_rejects_large_product_times_lehmer():
    cyc = cyclotomic(2003) * cyclotomic(12) * cyclotomic(1) ** 3
    assert cyc.degree_span() > 1000
    assert kronecker_zero_test(cyc) is not None
    assert kronecker_zero_test(cyc * LEHMER) is None
    assert kronecker_zero_test(-cyc * LEHMER * LaurentPoly.t(-5)) is None


PISOT = LaurentPoly({3: 1, 1: -1, 0: -1})  # t^3 - t - 1, not palindromic


def kronecker_corpus(gen):
    """Seeded inputs for the differential test against the Graeffe oracle:
    +-t^k prod Phi_m^e to degree ~300 (odd powers of Phi_1 included, and
    Phi_210 and Phi_1050, whose indices meet the horizon of their degree),
    each also times t^3 - t - 1 and times Lehmer; random palindromic and
    anti-palindromic +-1 polynomials; and inputs with non-unit ends."""
    products = [{210: 1}, {1050: 1}, {1: 3}, {1: 1, 2: 2, 6: 1}]
    for _ in range(8):
        want, total, cap = {}, 0, gen.randint(20, 300)
        if gen.random() < 0.5:  # an odd power of Phi_1
            want[1] = total = 2 * gen.randint(0, 2) + 1
        while True:
            m = int(round(400 ** gen.random()))
            e = gen.randint(1, 3)
            if total + e * totient(m) > cap:
                break
            want[m] = want.get(m, 0) + e
            total += e * totient(m)
        products.append(want)
    for want in products:
        p = LaurentPoly({gen.randint(-9, 9): gen.choice((1, -1))})
        for m, e in want.items():
            p = p * cyclotomic(m) ** e
        yield p
        yield p * PISOT
        yield p * LEHMER
    for _ in range(20):
        d = gen.randint(1, 200)
        half = [gen.choice((1, -1)) for _ in range(d // 2 + 1)]
        yield LaurentPoly.from_list(half + half[::-1][d % 2 == 0:])  # palindromic
        mid = [0] if d % 2 == 0 else []  # the middle of an even antipalindrome is 0
        yield LaurentPoly.from_list(half[: (d + 1) // 2] + mid + [-c for c in half[: (d + 1) // 2]][::-1])
    for n in (4, 6, 12, 30):  # t^n -+ 1: cyclotomic, palindromic and anti-palindromic
        yield LaurentPoly({n: 1, 0: 1})
        yield LaurentPoly({n: 1, 0: -1})
    for _ in range(6):  # non-unit ends
        p = cyclotomic(gen.randint(1, 60)) * cyclotomic(gen.randint(1, 60))
        yield p * gen.choice((2, -3))
        yield p * LaurentPoly({1: 2, 0: gen.choice((1, -1))})


def test_kronecker_matches_graeffe_oracle():
    # verdict, indices, sign and k against the Graeffe fixed-point test
    gen = random.Random(24)
    signs, kinds = set(), set()
    for p in kronecker_corpus(gen):
        fac = kronecker_zero_test(p)
        want = graeffe_kronecker(p)
        if want is None:
            assert fac is None, p
        else:
            assert fac is not None, p
            assert (fac.sign, fac.k_exponent, dict(fac.cyclotomic_indices)) == want, p
            signs.add(fac.sign)
        cs = normalize_unit(p)[0].coeff_list()
        kinds.add((want is not None, cs == cs[::-1], cs == [-c for c in cs[::-1]]))
    # both signs certified; accepted palindromes and antipalindromes, and
    # rejected ones of each kind and of neither
    assert signs == {1, -1}
    assert {(True, True, False), (True, False, True), (False, True, False),
            (False, False, True), (False, False, False)} <= kinds


def test_index_horizon_bounds_every_index():
    # the largest m with phi(m) <= r, for every r <= 600, from a sieve to
    # 2 * 600^2 + 2, beyond which phi(m) >= sqrt(m / 2) exceeds 600
    phi = _totient_sieve(2 * 600 * 600 + 3)
    largest = np.zeros(601, dtype=np.int64)
    small = np.flatnonzero((phi <= 600) & (np.arange(len(phi)) > 0))
    np.maximum.at(largest, phi[small], small)
    largest = np.maximum.accumulate(largest)
    for r in range(601):
        assert _index_horizon(r) >= largest[r], r
    assert [_index_horizon(r) for r in (0, 1, 2, 8, 240, 1000)] == [0, 2, 6, 30, 1050, 4812]
    assert largest[8] == 30 and largest[240] == 1050 and largest[48] == _index_horizon(48) == 210


def test_binomial_bound_rejects_before_the_split(monkeypatch):
    # t^2 - 3t + 1 has unit ends and is palindromic, but |-3| > binom(2, 1)
    calls = []
    split = mahler._phi_split
    monkeypatch.setattr(mahler, "_phi_split", lambda *a: calls.append(a) or split(*a))
    assert kronecker_zero_test(LaurentPoly({2: 1, 1: -3, 0: 1})) is None
    assert calls == []
    assert kronecker_zero_test(LaurentPoly({2: 1, 1: -2, 0: 1})) is not None
    assert len(calls) == 1


def schoolbook_graeffe(coeffs):
    """Reference root-squaring: the double loop over P(x) P(-x)."""
    d = len(coeffs) - 1
    out = [0] * (d + 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(coeffs):
            if (i + j) % 2 == 0:
                out[(i + j) // 2] += a * b if j % 2 == 0 else -a * b
    if out[d] < 0:
        out = [-c for c in out]
    return out


def test_graeffe_step_matches_schoolbook():
    gen = random.Random(2024)
    for trial in range(200):
        d = gen.randint(0, 40)
        bits = gen.choice((1, 3, 30, 200))
        cs = [gen.randint(-(1 << bits), 1 << bits) for _ in range(d + 1)]
        # runs of zeros, sometimes including the ends
        for _ in range(gen.randint(0, 3)):
            a = gen.randint(0, d)
            b = min(d + 1, a + gen.randint(1, 6))
            cs[a:b] = [0] * (b - a)
        if trial % 5 == 0:
            cs[-1] = gen.choice((1, -1)) << bits
        assert _graeffe_step(cs) == schoolbook_graeffe(cs), cs


def two_product_graeffe(cs):
    """E(y)^2 - y O(y)^2 from two separate products, sign-normalized."""
    out = [0] * len(cs)
    for k, c in enumerate(_poly_mul(cs[0::2], cs[0::2])):
        out[k] = c
    for k, c in enumerate(_poly_mul(cs[1::2], cs[1::2])):
        out[k + 1] -= c
    return [-c for c in out] if out[-1] < 0 else out


def test_graeffe_step_at_every_slot_width():
    # the step packs E and O at (2 bits(max|c|) + bits(len) + 1) / 8 bytes
    # a slot; the largest coefficients that width allows, all of one sign
    # in E, fill the slot to within two bits of the top
    gen = random.Random(17)
    widths = set()
    for n in (1, 2, 3, 40, 991):  # degrees 0, 1, 2, 39 and 990
        for width in range(1, 18):
            b = (8 * width - 1 - n.bit_length()) // 2
            if b < 1:
                continue
            assert (2 * b + n.bit_length() + 1 + 7) // 8 == width
            widths.add(width)
            top = (1 << b) - 1
            full = [top] * n
            mixed = [gen.choice((top, -top, gen.randint(-top, top))) for _ in range(n)]
            for cs in (full, [-c for c in full], mixed, [c if k % 2 == 0 else 0 for k, c in enumerate(full)]):
                if cs[-1] == 0:
                    cs = cs[:-1] + [top]
                assert _graeffe_step(cs) == two_product_graeffe(cs), (n, width)
    assert widths == set(range(1, 18))
    # int64 extremes take numpy's path, 2^63 and beyond the per-coefficient one
    big = 1 << 63
    for n in (1, 2, 991):
        for pool in ((big - 1, -(big - 1), -big), (big, -big, big + 1), (big << 80, -big, 1)):
            cs = [gen.choice(pool) for _ in range(n)]
            assert _graeffe_step(cs) == two_product_graeffe(cs), (n, pool)
            if n < 40:
                assert _graeffe_step(cs) == schoolbook_graeffe(cs)


def test_kronecker_seeded_corpus_to_degree_1000():
    # +-t^k prod Phi_m^e of degrees 1..1000 with repeated factors and
    # indices beyond 2000; every other one times Lehmer or a Pisot factor
    gen = random.Random(1000)
    large = [2010, 2040, 2310, 4620]  # phi = 528, 512, 480, 960
    degrees = sorted({int(1000 ** gen.random()) for _ in range(10)}
                     | {gen.randint(100, 1000) for _ in range(8)} | {1, 997, 1000})
    for i, deg in enumerate(degrees):
        want, total = {}, 0
        if i % 3 == 0:
            m = gen.choice([m for m in large if totient(m) <= deg] or [1])
            want[m], total = 1, totient(m)
        while total < deg:
            m = int(round(min(deg, 300) ** gen.random()) * gen.choice((1, 1, 2)))
            e = gen.randint(1, 3)
            if total + e * totient(m) <= deg:
                want[m] = want.get(m, 0) + e
                total += e * totient(m)
            elif total + totient(1) <= deg:
                want[1] = want.get(1, 0) + 1
                total += 1
        prod = LaurentPoly.one()
        for m, e in want.items():
            prod = prod * cyclotomic(m) ** e
        sign, k = gen.choice((1, -1)), gen.randint(-20, 20)
        p = prod * LaurentPoly({k: sign})
        assert p.degree_span() == deg
        fac = kronecker_zero_test(p)
        assert fac is not None, deg
        assert (fac.sign, fac.k_exponent, dict(fac.cyclotomic_indices)) == (sign, k, want)
        rebuilt = LaurentPoly({fac.k_exponent: fac.sign})
        for m, e in fac.cyclotomic_indices.items():
            rebuilt = rebuilt * cyclotomic(m) ** e
        assert rebuilt == p
        if i % 2:
            assert kronecker_zero_test(p * SMALL_MEASURE[i // 2 % 3]) is None, deg


def test_certificate_multiplies_back_out():
    gen = random.Random(7)
    for _ in range(40):
        want = {}
        for _ in range(gen.randint(1, 6)):
            m = gen.randint(1, 120)
            want[m] = want.get(m, 0) + gen.randint(1, 3)
        prod = LaurentPoly.one()
        for m, e in want.items():
            prod = prod * cyclotomic(m) ** e
        sign, k = gen.choice((1, -1)), gen.randint(-9, 9)
        p = prod * LaurentPoly({k: sign})
        fac = kronecker_zero_test(p)
        assert fac is not None
        assert (fac.sign, fac.k_exponent, dict(fac.cyclotomic_indices)) == (sign, k, want)
        rebuilt = LaurentPoly({fac.k_exponent: fac.sign})
        for m, e in fac.cyclotomic_indices.items():
            rebuilt = rebuilt * cyclotomic(m) ** e
        assert rebuilt == p
        assert kronecker_zero_test(p * gen.choice(SMALL_MEASURE)) is None


def test_mobius_binomials_cache_holds_a_degree_1000_scan():
    # a palindromic +-1 polynomial of degree 1000 with no cyclotomic factor
    # passes the binomial bound, and its split scans every index up to
    # _index_horizon(1000) = 4812; a second test must find each one cached
    gen = random.Random(1000)
    half = [gen.choice((1, -1)) for _ in range(501)]
    p = LaurentPoly.from_list(half + half[-2::-1])
    assert _phi_split(p.coeff_list(), itertools.count(1)) == (p.coeff_list(), {})
    assert kronecker_zero_test(p) is None
    misses = _mobius_binomials.cache_info().misses
    records = _phi_index.cache_info().misses
    assert kronecker_zero_test(p) is None
    assert _mobius_binomials.cache_info().misses == misses
    assert _phi_index.cache_info().misses == records


# -- one cyclotomic split for the Kronecker test and the root product --

WALKDET_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "mahler_walkdet.json"
# (group, index) of the mahler_walkdet pool: the first four pass the
# three conditions of the full split and carry Phi_1 alone, the last one
# carries Phi_6 and fails them
WALKDET_SPLIT = ((1, 0), (1, 4), (3, 0), (3, 1), (3, 4))
PHI_1000_GOLDEN = cyclotomic(1000) * LaurentPoly({0: 1, 1: -3, 2: 1})


def walkdet_references():
    groups = json.loads(WALKDET_REFERENCE.read_text())["groups"]
    return [LaurentPoly.from_json_obj(groups[g][i]["poly"]) for g, i in WALKDET_SPLIT]


def split_corpus():
    """Seeded +-t^k prod Phi_m^e, m <= 300 and degree <= 80, repeated
    factors included, times Lehmer, t^3 - t - 1 and t^2 - 3t + 1; the
    first product, (t - 1)^3 (t + 1) Phi_210, is anti-palindromic."""
    gen = random.Random(28)
    for n in range(7):
        want, total = ({1: 3, 2: 1, 210: 1}, 52) if n == 0 else ({}, 0)
        for m in gen.sample(range(1, 301), 40 if n else 0):
            e = gen.randint(1, 3)
            if total + e * totient(m) <= 80:
                want[m], total = e, total + e * totient(m)
        prod = LaurentPoly({gen.randint(-9, 9): gen.choice((1, -1))})
        for m, e in want.items():
            prod = prod * cyclotomic(m) ** e
        for factor in (LEHMER, PISOT, LaurentPoly({2: 1, 1: -3, 0: 1})):
            yield prod * factor


def same_multiset(got, want, tol):
    """Whether got and want are one multiset of complex numbers within tol:
    each of got is matched to its nearest unmatched one of want."""
    want = list(want)
    for z in got:
        k = min(range(len(want)), key=lambda k: abs(z - want[k]))
        if abs(z - want.pop(k)) > tol:
            return False
    return not want


def test_split_root_path_matches_phi_1_2_route(monkeypatch):
    # every Phi_m the full split divides out lists its roots exactly; the
    # route that splits off Phi_1 and Phi_2 only and polishes the rest
    # finds the same roots and measure
    inputs = list(split_corpus()) + walkdet_references()
    split = mahler._cyclotomic_split
    gated = [split(p.coeff_list()) for p in inputs]
    assert [s is not None for s in gated[-5:]] == [True] * 4 + [False]
    # the products times Lehmer and t^2 - 3t + 1 pass the three conditions,
    # each with some Phi_m, m > 2, to split off
    assert sum(s is not None and any(m > 2 for m in s[1]) for s in gated) == 14
    fast = [mahler_measure(p) for p in inputs]
    monkeypatch.setattr(mahler, "_cyclotomic_split", lambda cs: None)
    for p, res in zip(inputs, fast):
        want = mahler_measure(p)
        assert res.method is want.method is MahlerMethod.ROOT_PRODUCT
        assert abs(res.log_measure - want.log_measure) <= 1e-12, p
        assert len(res.roots) == len(want.roots) == p.degree_span(), p
        assert same_multiset(res.roots, want.roots, 1e-9), p
        assert res.leading_coeff == want.leading_coeff and res.residual <= 1e-12


def test_one_split_per_measure(monkeypatch):
    # one _phi_split per call: over every index when the input passes the
    # three conditions, else over Phi_1 and Phi_2; on Phi_1000 (t^2 - 3t + 1)
    # only t^2 - 3t + 1 is solved, folded to degree 1
    calls, degrees = [], []
    split, refined = mahler._phi_split, mahler._refined_roots
    monkeypatch.setattr(mahler, "_phi_split", lambda g, c: calls.append(c) or split(g, c))
    monkeypatch.setattr(mahler, "_refined_roots",
                        lambda dense, tol: degrees.append(len(dense) - 1) or refined(dense, tol))
    res = mahler_measure(PHI_1000_GOLDEN)
    assert abs(res.log_measure - math.log((3 + math.sqrt(5)) / 2)) <= 1e-12
    assert len(res.roots) == 402 and degrees == [1] and res.dps == 30
    assert sum(abs(abs(z) - 1) < 1e-15 for z in res.roots) == 400
    assert len(calls) == 1 and isinstance(calls[0], itertools.count)
    full = [PHI_1000_GOLDEN, LEHMER * cyclotomic(5) ** 2, cyclotomic(12) * LaurentPoly.t(3),
            LaurentPoly({0: -1})]
    phi_1_2 = [walkdet_references()[-1], LaurentPoly.from_list([-3, 3, 3, -3]),
               PISOT * cyclotomic(6), LaurentPoly({0: 5})]
    for p in full + phi_1_2:
        calls.clear()
        mahler_measure(p)
        assert len(calls) == 1, p
        assert isinstance(calls[0], itertools.count) if p in full else calls[0] == (1, 2), p


# -- exceptional index set --------------------------------------------


def test_k_alpha_contains_one_and_two():
    assert {1, 2} <= build_K_alpha(5.0, 3)


def test_k_alpha_small_totient_members():
    K = build_K_alpha(1.0, 10)
    # totient(4)^2 = 4 <= 4 and totient(6)^2 = 4 <= 6
    assert K == {1, 2, 4, 6}


def test_k_alpha_shrinks_with_alpha():
    assert build_K_alpha(0.01, 120) >= build_K_alpha(1.0, 120)


def test_k_alpha_validation():
    with pytest.raises(ValueError):
        build_K_alpha(0.0, 10)
    with pytest.raises(ValueError):
        build_K_alpha(1.0, 0)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            build_K_alpha(alpha, 10)


# -- constraint dichotomy ---------------------------------------------


def make_params(alpha=0.5, mmax=60, d_mu=2, g=3):
    return ConstraintParams(
        alpha=alpha, K=frozenset(build_K_alpha(alpha, mmax)), d_mu=d_mu, g=g
    )


def test_constraint_positive_measure():
    rep = constraint_check(LaurentPoly({1: 1, 0: -2}), make_params(), n=4)
    assert rep.verdict is ConstraintVerdict.NOT_MAHLER_ZERO


def test_constraint_cyclotomic_hit():
    p = cyclotomic(1) * cyclotomic(4)
    rep = constraint_check(p, make_params(), n=4)
    assert rep.verdict is ConstraintVerdict.CYCLOTOMIC_HIT
    assert rep.hit_index in (1, 4)


def test_constraint_hit_is_smallest_dividing_index():
    params = make_params()
    for ms in ((5, 4, 1), (9, 6), (7, 3, 2, 2), (17,)):
        p = LaurentPoly.one()
        for m in ms:
            p = p * cyclotomic(m)
        want = next((k for k in sorted(params.K)
                     if p.divide_exact(cyclotomic(k)) is not None), None)
        rep = constraint_check(p, params, n=40)
        assert rep.hit_index == want
        verdict = (ConstraintVerdict.SMALL_EVERYWHERE if want is None
                   else ConstraintVerdict.CYCLOTOMIC_HIT)
        assert rep.verdict is verdict


def test_constraint_small_everywhere():
    # a bare monomial is cyclotomic-free with measure zero
    rep = constraint_check(LaurentPoly.t(3), make_params(), n=4)
    assert rep.verdict is ConstraintVerdict.SMALL_EVERYWHERE
    assert rep.max_circle_value == pytest.approx(1.0)
    assert rep.circle_bound >= 1.0


def test_constraint_params_reject_non_finite_alpha():
    # NaN slipped through a bare alpha <= 0 check, and constraint_check
    # then reported SMALL_EVERYWHERE with a NaN circle bound
    K = frozenset(build_K_alpha(0.5, 10))
    for alpha in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="alpha"):
            ConstraintParams(alpha=alpha, K=K, d_mu=2, g=3)


def test_constraint_degree_bound():
    p = LaurentPoly({k: 1 for k in range(30)})
    with pytest.raises(DegreeBoundViolated):
        constraint_check(p, make_params(), n=2)


def test_exact_division_check_survives_python_O():
    # t^2 + 1 is not a multiple of t + 1; under -O an assert would be
    # stripped and the wrong quotient returned silently
    src = str(Path(torsionlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "from torsionlab.ringcore import _div_exact_int; _div_exact_int([1, 0, 1], [1, 1])"
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "ArithmeticError: division expected to be exact" in proc.stderr
