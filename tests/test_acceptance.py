"""End-to-end acceptance gate.

Seven checks, one per headline guarantee of the workbench; each prints a
single pass line with its headline numbers.  Oracles are independent of
the code under test: float Jensen products via numpy companion roots,
Sylvester resultants by fraction-free elimination, closed forms for the
known Mahler values, and binomial error bars for the Monte-Carlo trends.
"""

import itertools
import json
import math
import random
import statistics
import time

import numpy as np
import pytest

from torsionlab.hermitian import (
    ExteriorMarking,
    FormMatrix,
    SurfaceModel,
    block_det,
    bottom_left_block,
    check_form_preserved,
    exterior_power_matrix,
    iota_embed,
    pairing,
    transvection,
)
from torsionlab.homology import growth_scan, heegaard_homology
from torsionlab.mahler import kronecker_zero_test, mahler_measure
from torsionlab.ringcore import (
    CycElem,
    LaurentPoly,
    circulant_expand,
    reduce_mod_q,
)
from torsionlab.walks import WalkConfig, bundled_generators, run_walk

from oracles import bareiss_det, exterior_coefficient, iota_scalar, jensen_oracle
from oracles import resultant_with_tq_minus_1

LEHMER = LaurentPoly(
    {10: 1, 9: 1, 7: -1, 6: -1, 5: -1, 4: -1, 3: -1, 1: 1, 0: 1}
)





# ---------------------------------------------------------------------------
# 1. exact algebra


def test_acceptance_exact_algebra():
    rng = random.Random(1)
    t0 = time.time()
    cases = 10_000

    def rand_poly():
        return LaurentPoly(
            {rng.randint(-4, 4): rng.randint(-9, 9) for _ in range(rng.randint(0, 4))}
        )

    for _ in range(cases):  # ring laws
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
    for _ in range(cases):  # reduction is a ring morphism
        q = rng.choice([3, 4, 5, 7])
        a, b = rand_poly(), rand_poly()
        assert reduce_mod_q(a * b, q) == reduce_mod_q(a, q) * reduce_mod_q(b, q)
        assert reduce_mod_q(a + b, q) == reduce_mod_q(a, q) + reduce_mod_q(b, q)
    for _ in range(cases):  # circulant expansion is multiplicative
        q = rng.choice([3, 4, 5])
        a = CycElem(q, [rng.randint(-9, 9) for _ in range(q)])
        b = CycElem(q, [rng.randint(-9, 9) for _ in range(q)])
        ma, mb = circulant_expand(a), circulant_expand(b)
        prod = [
            [sum(ma[i][k] * mb[k][j] for k in range(q)) for j in range(q)]
            for i in range(q)
        ]
        assert prod == circulant_expand(a * b)
    for _ in range(cases):  # involution identities
        a, b = rand_poly(), rand_poly()
        assert (a * b).involution() == a.involution() * b.involution()
        assert a.involution().involution() == a
    elapsed = time.time() - t0
    assert elapsed < 30
    print(
        f"\n[acceptance 1] PASS exact algebra: 4x{cases} randomized cases, "
        f"0 failures, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2. Mahler suite


def test_acceptance_mahler_suite():
    t0 = time.time()
    # full coefficient grid, degree <= 6, coefficients in [-2, 2]; the
    # exact zero test must agree with the float Jensen oracle.  Repeated
    # cyclotomic roots cost the float root-finder ~1e-6, while the
    # smallest positive measure on this grid is 0.281, so a 1e-3 cut
    # separates the classes with orders of magnitude to spare.
    checked = 0
    for coeffs in itertools.product(range(-2, 3), repeat=7):
        if not any(coeffs):
            continue
        p = LaurentPoly({k: c for k, c in enumerate(coeffs) if c})
        exact_zero = kronecker_zero_test(p) is not None
        assert exact_zero == (jensen_oracle(p) < 1e-3), coeffs
        checked += 1

    rng = random.Random(2)
    for _ in range(500):  # multiplicativity
        a = LaurentPoly(
            {k: rng.randint(-5, 5) for k in range(rng.randint(1, 4))} | {4: 1}
        )
        b = LaurentPoly(
            {k: rng.randint(-5, 5) for k in range(rng.randint(1, 4))} | {4: 1}
        )
        lhs = mahler_measure(a * b).log_measure
        rhs = mahler_measure(a).log_measure + mahler_measure(b).log_measure
        assert abs(lhs - rhs) < 1e-8

    m2 = mahler_measure(LaurentPoly({1: 1, 0: -2})).log_measure
    assert abs(m2 - math.log(2)) < 1e-6
    golden = mahler_measure(LaurentPoly({2: 1, 1: -1, 0: -1})).log_measure
    assert abs(golden - math.log((1 + math.sqrt(5)) / 2)) < 1e-6
    lehmer = mahler_measure(LEHMER).log_measure
    assert abs(lehmer - 0.1623576) < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 120
    print(
        f"\n[acceptance 2] PASS mahler: grid of {checked} polynomials "
        f"consistent, 500 product pairs within 1e-8, lehmer={lehmer:.7f}, "
        f"{elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 3. block determinant identity


R_SYM = LaurentPoly({1: 1, -1: 1, 0: -2})


def _isotropic_vectors(model, rng):
    out = []
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    h = model.half
    for i in range(h):
        for ent in ([(i, one)], [(h + i, one)], [(i, one), (h + i, one)]):
            v = [zero] * model.dim
            for pos, val in ent:
                v[pos] = val
            if pairing(v, v).is_zero():
                out.append(v)
    return out


def _random_word(model, rng, length=4):
    vs = _isotropic_vectors(model, rng)
    rs = [R_SYM, -R_SYM, LaurentPoly.one(), LaurentPoly({0: -1})]
    M = FormMatrix.identity(model)
    for _ in range(length):
        M = transvection(model, rng.choice(vs), rng.choice(rs)) @ M
    return M


def test_acceptance_block_determinant_identity():
    rng = random.Random(3)
    count = 0
    for g in (3, 4):
        model = SurfaceModel(g)
        mk = ExteriorMarking(g)
        while count < (100 if g == 3 else 200):
            M = _random_word(model, rng)
            assert check_form_preserved(M)
            for q in (3, 5, 7):
                Mq = M.reduce_mod_q(q)
                A = iota_embed(Mq)
                lhs = abs(exterior_coefficient(A, mk))
                det = block_det(bottom_left_block(Mq))
                rhs = abs(iota_scalar(det))
                tol = 1e-8 * max(1.0, rhs)
                assert abs(lhs - rhs) <= tol, (g, q)
                if g == 3:  # brute-force exterior power cross-check
                    slow = abs(exterior_power_matrix(A, mk)[mk.f_index, mk.e_index])
                    assert abs(lhs - slow) <= tol
            count += 1
    print(
        f"\n[acceptance 3] PASS block-determinant identity: {count} words, "
        f"g in (3,4), q in (3,5,7), rel. tol 1e-8"
    )


# ---------------------------------------------------------------------------
# 4. growth rate


def _corpus_word(seed):
    """Deterministic 5-letter form-preserving word at genus 3."""
    rng = random.Random(seed)
    model = SurfaceModel(3)
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    rs = [
        LaurentPoly({0: 1}),
        LaurentPoly({0: -1}),
        R_SYM,
        LaurentPoly({1: 1, -1: 1}),
        LaurentPoly({0: 2}),
    ]
    vs = []
    for i in range(2):
        for ent in (
            [(i, one)],
            [(2 + i, one)],
            [(i, one), (2 + i, one)],
            [(i, one), (3 - i, one)],
            [(i, LaurentPoly.t(1)), (2 + i, one)],
        ):
            v = [zero] * 4
            for pos, val in ent:
                v[pos] = val
            if pairing(v, v).is_zero():
                vs.append(v)
    M = FormMatrix.identity(model)
    for _ in range(5):
        M = transvection(model, rng.choice(vs), rng.choice(rs)) @ M
    return M


def test_acceptance_growth_rate():
    t0 = time.time()
    q_dense = list(range(3, 25))
    q_sparse = [40, 80, 120, 160, 200]

    corpus_1x1 = {
        "t-2": LaurentPoly({1: 1, 0: -2}),
        "t-3": LaurentPoly({1: 1, 0: -3}),
        "t^2-t-1": LaurentPoly({2: 1, 1: -1, 0: -1}),
        "lehmer": LEHMER,
    }
    def assert_deviations_settle(devs, label):
        # roots pinned to the unit circle (Salem factors) make the raw
        # deviation oscillate, so monotonicity is asserted on the median
        # over a trailing 5-sample window, which filters the spikes
        meds = [statistics.median(devs[i - 4 : i + 1]) for i in range(4, len(devs))]
        last5 = meds[-5:]
        assert all(b <= a + 1e-12 for a, b in zip(last5, last5[1:])), label

    for name, p in corpus_1x1.items():
        res = growth_scan([[p]], q_dense + q_sparse)
        # exact resultant oracle on the dense prefix
        for rep in res.reports[: len(q_dense)]:
            assert rep.torsion_order == resultant_with_tq_minus_1(p, rep.q), name
        assert res.deviations[-1] < 0.05, name
        assert_deviations_settle(res.deviations, name)

    # five 2x2 cases taken from short form-preserving words whose block
    # determinant has no cyclotomic factor and no root pinned to the
    # unit circle
    for seed in (8, 16, 24, 74, 105):
        M = _corpus_word(seed)
        B = [list(r) for r in bottom_left_block(M)]
        det = block_det(B)
        assert not det.is_zero() and kronecker_zero_test(det) is None
        res = growth_scan(B, q_dense + q_sparse)
        assert res.deviations[-1] < 0.05, seed
        assert_deviations_settle(res.deviations, seed)
    elapsed = time.time() - t0
    assert elapsed < 600
    print(
        f"\n[acceptance 4] PASS growth rate: 4 scalar + 5 matrix cases, "
        f"|log T_q / q - m| < 0.05 at q=200, deviations decreasing, "
        f"resultant oracle q<=24, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 5. Heegaard homology


def _sp_generators(g):
    gens = []
    ident = np.eye(2 * g, dtype=int)
    for i in range(g):
        for s in (1, -1):
            M = ident.copy()
            M[i, g + i] = s
            gens.append(M)
            M = ident.copy()
            M[g + i, i] = s
            gens.append(M)
    for i in range(g - 1):
        M = ident.copy()
        M[i, i + 1] = 1
        M[g + i + 1, g + i] = -1
        gens.append(M)
    return gens


def test_acceptance_heegaard():
    for g in (2, 3, 4):
        rep = heegaard_homology(np.eye(2 * g, dtype=int).tolist())
        assert rep["betti"] == g and rep["torsion"] == 1

    rng = random.Random(5)
    agreements = 0
    for _ in range(100):
        g = rng.choice([2, 3])
        gens = _sp_generators(g)
        M = np.eye(2 * g, dtype=int)
        for _ in range(rng.randint(2, 8)):
            M = rng.choice(gens) @ M
        rep = heegaard_homology(M.tolist())
        assert rep["betti"] <= g
        if rep["det_bottom_left"] != 0:
            assert rep["det_agrees"] is True
            assert rep["torsion"] == abs(rep["det_bottom_left"])
            agreements += 1
    print(
        f"\n[acceptance 5] PASS heegaard: identity gives Z^g, 100 random "
        f"words, {agreements} nonzero-determinant agreements, b1 <= g always"
    )


def test_heegaard_det_bottom_left_is_the_bareiss_determinant():
    # the matrices of test_acceptance_heegaard: the identities, whose B = 0
    # is singular, and the same 100 seeded words
    mats = [np.eye(2 * g, dtype=int) for g in (2, 3, 4)]
    rng = random.Random(5)
    for _ in range(100):
        gens = _sp_generators(rng.choice([2, 3]))
        M = np.eye(len(gens[0]), dtype=int)
        for _ in range(rng.randint(2, 8)):
            M = rng.choice(gens) @ M
        mats.append(M)
    dets = []
    for M in mats:
        g = len(M) // 2
        dets.append(heegaard_homology(M.tolist())["det_bottom_left"])
        assert dets[-1] == abs(bareiss_det(M[g:, :g].tolist())), M
    assert dets.count(0) > 3 and max(dets) > 1


# ---------------------------------------------------------------------------
# 6. walk trend


def test_acceptance_walk_trend():
    t0 = time.time()
    gens, probs = bundled_generators(3)
    config = WalkConfig(
        generators=gens,
        probabilities=probs,
        g=3,
        n_steps=64,
        n_trials=1000,
        master_seed=7,
        q_list=(3,),
    )
    report = run_walk(config, workers=8)
    ntr = report.n_trials
    sched = report.schedule
    frac = report.fraction_mahler_positive

    # trend: non-decreasing within two Monte-Carlo standard errors
    for n1, n2 in zip(sched, sched[1:]):
        f1, f2 = frac[n1], frac[n2]
        se = math.sqrt((f1 * (1 - f1) + f2 * (1 - f2)) / ntr + 1e-12)
        assert f2 >= f1 - 2 * se, (n1, n2)
    assert frac[64] > 0.9

    hyper = report.hyperplane_fraction[3][1e-3]
    assert hyper[64] < hyper[4]

    var = report.lyapunov_var[3]
    for n1, n2 in zip(sched, sched[1:]):
        ratio = var[n1] / var[n2]
        assert 2 / 1.5 <= ratio <= 2 * 1.5, (n1, n2, ratio)

    # determinism across worker counts on a reduced configuration
    small = WalkConfig(
        generators=gens,
        probabilities=probs,
        g=3,
        n_steps=16,
        n_trials=50,
        master_seed=7,
        q_list=(3,),
    )
    r1 = run_walk(small, workers=1)
    r8 = run_walk(small, workers=8)
    assert json.dumps(r1.to_json_obj()) == json.dumps(r8.to_json_obj())

    elapsed = time.time() - t0
    assert elapsed < 900
    print(
        f"\n[acceptance 6] PASS walk trend: frac(64)={frac[64]:.3f} > 0.9, "
        f"monotone within 2 SE, hyperplane {hyper[64]:.3f} < {hyper[4]:.3f}, "
        f"variance halving, deterministic, {elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# 7. invariance


def test_acceptance_invariance():
    gens, probs = bundled_generators(3)
    base_cfg = dict(
        generators=gens,
        probabilities=probs,
        g=3,
        n_steps=16,
        n_trials=50,
        master_seed=11,
        q_list=(3,),
    )
    plain = run_walk(WalkConfig(**base_cfg), workers=4).to_json_obj()
    twisted = run_walk(
        WalkConfig(**base_cfg, unit_twist_seed=99), workers=4
    ).to_json_obj()
    unit_invariant_keys = (
        "fraction_mahler_positive",
        "constraint_bins",
        "lyapunov_mean",
        "lyapunov_var",
        "lyapunov_hat",
        "hyperplane_fraction",
        "max_det_degree",
        "degenerate_counts",
    )
    for key in unit_invariant_keys:
        assert json.dumps(plain[key]) == json.dumps(twisted[key]), key

    # growth scan is invariant under multiplying the presentation by a
    # unit power of t
    B = [list(r) for r in bottom_left_block(_corpus_word(16))]
    qs = list(range(3, 30))
    ref = growth_scan(B, qs)
    for k in (1, -2, 5):
        shifted = [[LaurentPoly.t(k) * e for e in row] for row in B]
        res = growth_scan(shifted, qs)
        assert [r.torsion_order for r in res.reports] == [
            r.torsion_order for r in ref.reports
        ]
        assert [r.betti for r in res.reports] == [r.betti for r in ref.reports]
        assert res.mahler.log_measure == pytest.approx(
            ref.mahler.log_measure, abs=1e-12
        )
    print(
        "\n[acceptance 7] PASS invariance: walk statistics bit-identical "
        "under unit twists; growth scan invariant under t^k scaling"
    )
