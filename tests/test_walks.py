"""Random-walk experiments: determinism, exact/embedded lane agreement."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from torsionlab.hermitian import (
    ExteriorMarking,
    FormMatrix,
    SurfaceModel,
    block_det,
    bottom_left_block,
    exterior_power_matrix,
)
from torsionlab.mahler import kronecker_zero_test
from torsionlab.ringcore import LaurentPoly
from torsionlab.walks import (
    WalkConfig,
    WalkReport,
    _normalized_iota,
    _sample_indices,
    _trial_record,
    bundled_generators,
    hyperplane_stat,
    lyapunov_estimate,
    mahler_positive_fraction,
    proximality_probe,
    run_walk,
    sample_word,
)

GENS, PROBS = bundled_generators(3)


def small_config(**kw):
    base = dict(
        generators=GENS,
        probabilities=PROBS,
        g=3,
        n_steps=8,
        n_trials=12,
        master_seed=1234,
        q_list=(3,),
    )
    base.update(kw)
    return WalkConfig(**base)


# -- configuration ------------------------------------------------------


def test_bundled_set_shape():
    assert len(GENS) == len(PROBS)
    assert sum(PROBS) == 1
    cfg = small_config()
    assert cfg.inverses_present
    assert cfg.d_mu() >= 2


def test_inverses_present_matches_pairwise_products():
    ident = FormMatrix.identity(SurfaceModel(3))

    def pairwise(gens):
        # the definition by ring products: a two-sided inverse in the set
        return all(any(a @ b == ident and b @ a == ident for b in gens) for a in gens)

    minus = FormMatrix(ident.model, [[-e for e in row] for row in ident.rows])
    twist = GENS[0].scale(LaurentPoly.t(2))
    sets = [
        GENS,  # the bundled set, closed under inverses
        GENS[1:],  # GENS[1] has lost its inverse GENS[0]
        [minus],  # an involution is its own inverse
        [minus, GENS[0]],
        [twist, GENS[1].scale(LaurentPoly.t(-2))],
        [twist, GENS[1]],
    ]
    got = [small_config(generators=gens, probabilities=[Fraction(1, len(gens))] * len(gens))
           .inverses_present for gens in sets]
    assert got == [pairwise(gens) for gens in sets]
    assert got == [True, False, True, False, True, False]


def test_schedule_is_log_spaced():
    assert small_config(n_steps=64).schedule() == [2, 4, 8, 16, 32, 64]
    assert small_config(n_steps=24).schedule() == [2, 4, 8, 16, 24]


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(probabilities=PROBS[:-1])
    bad = [Fraction(1, 2)] * len(GENS)
    with pytest.raises(ValueError):
        small_config(probabilities=bad)
    with pytest.raises(ValueError):
        small_config(q_list=(2,))
    with pytest.raises(ValueError):
        small_config(g=4)


# -- sampling determinism ----------------------------------------------


def test_sample_word_deterministic():
    cfg = small_config()
    w1 = sample_word(cfg, 3, 6)
    w2 = sample_word(cfg, 3, 6)
    assert w1 == w2
    assert sample_word(cfg, 4, 6) != w1


def test_sample_prefix_consistent():
    # the first n letters do not depend on how many are drawn later
    cfg = small_config()
    i8 = _sample_indices(cfg, 5, 8)
    i4 = _sample_indices(cfg, 5, 4)
    assert list(i8[:4]) == list(i4)


def test_letter_frequencies():
    # two-generator config with 3:1 odds; binomial 4-sigma band
    gens = [GENS[0], GENS[1]]
    cfg = small_config(
        generators=gens,
        probabilities=[Fraction(3, 4), Fraction(1, 4)],
        n_trials=1,
        n_steps=4000,
    )
    idx = _sample_indices(cfg, 0, 4000)
    freq = (idx == 0).mean()
    sigma = math.sqrt(0.75 * 0.25 / 4000)
    assert abs(freq - 0.75) < 4 * sigma


def test_words_preserve_form():
    from torsionlab.hermitian import check_form_preserved

    cfg = small_config()
    for trial in range(3):
        assert check_form_preserved(sample_word(cfg, trial, 5))


# -- per-trial record vs brute force ----------------------------------


def test_embedded_lane_matches_brute_force_exterior():
    cfg = small_config(n_steps=8, n_trials=1)
    rec = _trial_record(cfg, 0)
    q = 3
    idx = _sample_indices(cfg, 0, 8)
    mk = ExteriorMarking(3)
    mats = [_normalized_iota(M, q, 1) for M in cfg.generators]
    A = np.eye(4, dtype=complex)
    for i in idx:
        A = mats[int(i)] @ A
    ext = exterior_power_matrix(A, mk)
    v = ext @ mk.e_vector()
    # L_n is the log of the exterior norm of the image of e, per step
    assert rec["L_n"][q][8] == pytest.approx(math.log(np.linalg.norm(v)) / 8, abs=1e-9)
    # f_ratio is the normalized f-coefficient
    assert rec["f_ratio"][q][8] == pytest.approx(
        abs(v[mk.f_index]) / np.linalg.norm(v), abs=1e-9
    )


def _full_word_oracle(cfg, trial, n):
    """(det_degree, mahler_positive) from the full word's bottom-left block."""
    det = block_det(bottom_left_block(sample_word(cfg, trial, n)))
    if det.is_zero():
        return -1, False
    return det.degree_span(), kronecker_zero_test(det) is None


@pytest.mark.parametrize("swap", [False, True])
def test_exact_lane_matches_full_word(swap):
    gens = list(GENS)
    if swap:
        # a form-preserving product of two transvections, not a transvection:
        # M - I has rank 2 at t = 2
        gens[0] = GENS[0] @ GENS[2]
        at2 = np.array(
            [[sum(c * 2.0**k for k, c in e.coeffs.items()) for e in row]
             for row in gens[0].rows]
        )
        assert np.linalg.matrix_rank(at2 - np.eye(4)) == 2
    cfg = small_config(generators=gens, n_steps=16, n_trials=4)
    seen = set()
    for trial in range(cfg.n_trials):
        rec = _trial_record(cfg, trial)
        for n in cfg.schedule():
            deg, positive = _full_word_oracle(cfg, trial, n)
            assert rec["det_degree"][n] == deg, (trial, n)
            assert rec["mahler_positive"][n] == positive, (trial, n)
            seen.add(positive)
    assert seen == {False, True}


def test_exact_lane_degree_ledger():
    cfg = small_config(n_steps=8, n_trials=1)
    rec = _trial_record(cfg, 0)
    d_mu = cfg.d_mu()
    for n, deg in rec["det_degree"].items():
        assert deg <= (cfg.g - 1) * d_mu * n


# -- aggregation --------------------------------------------------------


def test_run_walk_worker_invariance():
    cfg = small_config()
    r1 = run_walk(cfg, workers=1)
    r2 = run_walk(cfg, workers=3)
    assert json.dumps(r1.to_json_obj()) == json.dumps(r2.to_json_obj())


def test_unit_twist_statistics_bit_identical():
    cfg = small_config()
    base = run_walk(cfg, workers=1).to_json_obj()
    twisted = run_walk(small_config(unit_twist_seed=77), workers=1).to_json_obj()
    for key in (
        "fraction_mahler_positive",
        "constraint_bins",
        "lyapunov_mean",
        "lyapunov_var",
        "lyapunov_hat",
        "hyperplane_fraction",
        "max_det_degree",
    ):
        assert json.dumps(base[key]) == json.dumps(twisted[key]), key


def test_report_shapes():
    cfg = small_config()
    rep = run_walk(cfg, workers=1)
    assert rep.schedule == [2, 4, 8]
    assert set(rep.fraction_mahler_positive) == {2, 4, 8}
    assert all(0.0 <= v <= 1.0 for v in rep.fraction_mahler_positive.values())
    assert rep.degenerate_counts[3] == 0
    assert json.loads(json.dumps(rep.to_json_obj()))  # serializable
    assert list(rep.to_json_obj()) == [f.name for f in dataclasses.fields(WalkReport)]


def test_convenience_wrappers():
    cfg = small_config(n_trials=6)
    sched, mean, var, lam = lyapunov_estimate(cfg, 3)
    assert sched == [2, 4, 8]
    assert set(mean) == {2, 4, 8} and lam is not None
    frac, bins = mahler_positive_fraction(cfg)
    assert set(frac) == {2, 4, 8}
    hyper = hyperplane_stat(cfg, 3)
    assert 1e-3 in hyper and set(hyper[1e-3]) == {2, 4, 8}
    with pytest.raises(ValueError):
        lyapunov_estimate(cfg, 2)


def test_proximality_probe_finds_witness():
    cfg = small_config()
    rep = proximality_probe(cfg, 3, length_cap=4, max_words=600)
    assert rep.witness is not None
    assert rep.gap_ratio > 1.001
    # the witness word really has the claimed gap
    mk = ExteriorMarking(3)
    A = np.eye(mk.dim, dtype=complex)
    for gi in rep.witness:
        A = exterior_power_matrix(_normalized_iota(cfg.generators[gi], 3, 1), mk) @ A
    ev = np.sort(np.abs(np.linalg.eigvals(A)))[::-1]
    assert ev[0] / ev[1] == pytest.approx(rep.gap_ratio, rel=1e-9)
