"""Random-walk experiments: determinism, exact/embedded lane agreement."""

import concurrent.futures
import dataclasses
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from torsionlab import walks
from torsionlab.hermitian import (
    ExteriorMarking,
    FormMatrix,
    NonPrimitiveRoot,
    SurfaceModel,
    block_det,
    bottom_left_block,
    exterior_power_matrix,
    transvection,
)
from torsionlab.mahler import kronecker_zero_test
from torsionlab.ringcore import LaurentPoly, _primes_below_2_31, _primes_for
from torsionlab.walks import (
    _WIDE_ROW,
    DELTA_GRID,
    WalkConfig,
    WalkReport,
    _exact_lane,
    _letter_plan,
    _modular_dets,
    _normalized_iota,
    _run_setup,
    _sample_indices,
    _slice_bounds,
    _trial_chunk,
    _trial_letters,
    bundled_generators,
    proximality_probe,
    run_walk,
    sample_word,
)

from oracles import e_vector

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
    # the embedded lane evaluates at a primitive q-th root of unity
    with pytest.raises(NonPrimitiveRoot):
        small_config(q_list=(3, 4), root_index=2)
    assert small_config(q_list=(3, 5), root_index=2).root_index == 2
    # the report keys every per-q result by q
    for repeated in ((3, 3), (3, 5, 3)):
        with pytest.raises(ValueError, match="distinct"):
            small_config(q_list=repeated)
    # the schedule starts at 2 steps, and the report averages over trials
    for bad in (dict(n_steps=1), dict(n_steps=0), dict(n_trials=0)):
        with pytest.raises(ValueError):
            small_config(**bad)
    assert small_config(n_steps=2, n_trials=1).schedule() == [2]
    # alpha sets the constraint rate: NaN passed a bare alpha <= 0 test
    for alpha in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match="alpha"):
            small_config(alpha=alpha)


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


# -- per-trial lanes vs brute force -----------------------------------


def _iota_term_sum(M, q, root_index):
    # the per-term evaluation _normalized_iota used to run
    lo = min(e.deg_lo for row in M.rows for e in row if e)
    zeta = np.exp(2j * np.pi * root_index / q)
    out = np.zeros((M.n, M.n), dtype=complex)
    for i, row in enumerate(M.rows):
        for j, e in enumerate(row):
            for k, c in e.coeffs.items():
                out[i, j] += c * zeta ** ((k - lo) % q)
    return out


@pytest.mark.parametrize("q, root_index", [(3, 1), (3, 2), (5, 3), (8, 3), (97, 10)])
def test_normalized_iota_matches_term_sum(q, root_index):
    gens = GENS + [(GENS[0] @ GENS[2]).scale(LaurentPoly.t(-5))] + bundled_generators(4)[0][:3]
    for M in gens:
        got = _normalized_iota(M, q, root_index)
        assert np.abs(got - _iota_term_sum(M, q, root_index)).max() <= 1e-12
    with pytest.raises(NonPrimitiveRoot):
        _normalized_iota(GENS[0], 4, 2)


def _row(cols, r):
    """Row r of every column of a chunk, its floats and NaNs exactly."""
    return {key: repr(col[r].tolist()) for key, col in cols.items()}


def _points(row, sched):
    """One trial's row of a per-point column as {n: value}, without its
    NaNs: the points the trial did not reach."""
    return {n: v for n, v in zip(sched, row.tolist()) if not math.isnan(v)}


def test_embedded_lane_matches_brute_force_exterior():
    cfg = small_config(n_steps=8, n_trials=1)
    cols = _trial_chunk((cfg, [0]))
    L_n = _points(cols["L_n"][0, 0], cfg.schedule())
    f_ratio = _points(cols["f_ratio"][0, 0], cfg.schedule())
    q = 3
    idx = _sample_indices(cfg, 0, 8)
    mk = ExteriorMarking(3)
    mats = [_normalized_iota(M, q, 1) for M in cfg.generators]
    A = np.eye(4, dtype=complex)
    for i in idx:
        A = mats[int(i)] @ A
    ext = exterior_power_matrix(A, mk)
    v = ext @ e_vector(mk)
    # L_n is the log of the exterior norm of the image of e, per step
    assert L_n[8] == pytest.approx(math.log(np.linalg.norm(v)) / 8, abs=1e-9)
    # f_ratio is the normalized f-coefficient
    assert f_ratio[8] == pytest.approx(
        abs(v[mk.f_index]) / np.linalg.norm(v), abs=1e-9
    )


def _embedded_one_trial(mats, idx, sched, h):
    """The embedded lane of one trial as its own loop, one QR per step."""
    L_n, f_ratio = {}, {}
    Y = np.zeros((2 * h, h), dtype=complex)
    Y[:h, :h] = np.eye(h)
    logvol = 0.0
    for step, gi in enumerate(idx.tolist(), 1):
        Q, R = np.linalg.qr(mats[gi] @ Y)
        vol = float(np.prod(np.abs(np.diag(R))))
        if vol <= 0.0 or not math.isfinite(vol):
            return L_n, f_ratio, True
        logvol += math.log(vol)
        Y = Q
        if step in sched:
            L_n[step] = logvol / step
            f_ratio[step] = float(abs(np.linalg.det(Y[h:, :])))
    return L_n, f_ratio, False


def test_chunk_records_match_trials_run_alone():
    # the lockstep lane gives each trial the floats of its own loop, bit for
    # bit, whatever else is in the chunk
    cfg = small_config(n_steps=64, n_trials=8, unit_twist_seed=77, q_list=(3, 5))
    setup = _run_setup(cfg)
    chunk = _trial_chunk((cfg, list(range(8))))
    for t in range(8):
        assert _row(chunk, t) == _row(_trial_chunk((cfg, [t])), 0), t
        idx, _ = _trial_letters(cfg, t)
        for j, q in enumerate(cfg.q_list):
            own = _embedded_one_trial(setup.iota[q], idx, set(setup.sched), 2)
            lane = (_points(chunk["L_n"][t, j], setup.sched),
                    _points(chunk["f_ratio"][t, j], setup.sched),
                    bool(chunk["degenerate"][t, j]))
            assert repr(lane) == repr(own)
    sub = _trial_chunk((cfg, [6, 1, 3]))
    assert [_row(sub, r) for r in range(3)] == [_row(chunk, t) for t in (6, 1, 3)]


def test_letter_indices_take_the_smallest_type_that_holds_them(monkeypatch):
    # 272 generators need uint16; both lanes must see every drawn index,
    # 256 and past included, not one wrapped to 8 bits
    many = WalkConfig(generators=GENS * 17, probabilities=[Fraction(1, 272)] * 272, g=3,
                      n_steps=16, n_trials=4, master_seed=5, q_list=(3,))
    seen = []
    exact, embedded = walks._exact_lane, walks._embedded_lane

    def exact_spy(setup, idx, twists, bounds, h):
        seen.append(idx.copy())
        return exact(setup, idx, twists, bounds, h)

    def embedded_spy(mats, idxs, sched, h):
        seen.append(idxs.copy())
        return embedded(mats, idxs, sched, h)

    monkeypatch.setattr(walks, "_exact_lane", exact_spy)
    monkeypatch.setattr(walks, "_embedded_lane", embedded_spy)
    _trial_chunk((many, list(range(4))))
    drawn = [_trial_letters(many, t)[0].tolist() for t in range(4)]
    assert max(map(max, drawn)) > 255
    assert [a.dtype for a in seen] == [np.dtype(np.uint16)] * 5
    assert [a.tolist() for a in seen] == drawn + [drawn]
    seen.clear()
    _trial_chunk((small_config(n_steps=4, n_trials=2), [0, 1]))
    assert [a.dtype for a in seen] == [np.dtype(np.uint8)] * 3


def test_zero_letter_degenerates_only_its_trials(monkeypatch):
    cfg = small_config(n_steps=8, n_trials=8, q_list=(3, 5))
    setup = _run_setup(cfg)
    base = _trial_chunk((cfg, list(range(8))))
    idxs = [_trial_letters(cfg, t)[0].tolist() for t in range(8)]
    # a generator drawn by some of the trials but not all
    gi = next(i for i in range(len(GENS)) if 0 < sum(i in idx for idx in idxs) < 8)
    zeroed = {q: [np.zeros_like(m) if i == gi else m for i, m in enumerate(mats)]
              for q, mats in setup.iota.items()}
    monkeypatch.setattr(walks, "_run_setup", lambda config: dataclasses.replace(setup, iota=zeroed))
    got = _trial_chunk((cfg, list(range(8))))
    for t in range(8):
        assert not base["degenerate"][t].any()
        if gi not in idxs[t]:
            assert _row(got, t) == _row(base, t), t
            continue
        first = idxs[t].index(gi) + 1
        for j, q in enumerate(cfg.q_list):
            assert got["degenerate"][t, j]
            # the values before the zero letter stand, and none after it
            kept = {n: v for n, v in _points(base["L_n"][t, j], setup.sched).items() if n < first}
            assert _points(got["L_n"][t, j], setup.sched) == kept
            assert set(_points(got["f_ratio"][t, j], setup.sched)) == set(kept)
        for key in ("verdict", "det_degree"):
            assert got[key][t].tolist() == base[key][t].tolist()


def _lane_args(setup, cfg, trial):
    """The trial's letters, unit twists and frame bounds, the bounds taken
    on its letters as a one-row array."""
    idx, twists = _trial_letters(cfg, trial)
    return idx, twists, _slice_bounds(setup.norms, idx[None], setup.sched, cfg.g - 1)[0]


def _full_word_oracle(cfg, trial, n):
    """(degree span, not Mahler-zero) of det B from the full word's
    bottom-left block."""
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
    setup = _run_setup(cfg)
    for trial in range(cfg.n_trials):
        verdicts, degrees = _exact_lane(setup, *_lane_args(setup, cfg, trial), cfg.g - 1)
        assert len(verdicts) == len(degrees) == len(cfg.schedule())
        for n, verdict, degree in zip(cfg.schedule(), verdicts, degrees):
            deg, positive = _full_word_oracle(cfg, trial, n)
            assert degree == deg, (trial, n)
            assert (verdict == "not_mahler_zero") == positive, (trial, n)
            seen.add(positive)
    assert seen == {False, True}


def _oracle_check(cfg, trials):
    """The modular lane's det B at every schedule point equals block_det of
    the bottom-left block of the full word, shifted by t^(h * sum of the
    unit twists) when the letters are twisted.  Returns the dets."""
    h = cfg.g - 1
    setup = _run_setup(cfg)
    dets = []
    for trial in trials:
        idx, twists, bounds = _lane_args(setup, cfg, trial)
        lane = _modular_dets(setup, idx, twists, bounds, h)
        assert list(lane) == cfg.schedule()
        for n, det in lane.items():
            want = block_det(bottom_left_block(sample_word(cfg, trial, n)))
            if twists is not None:
                want = want.shift(h * int(twists[:n].sum()))
            assert det == want, (trial, n)
            dets.append(det)
    return dets


@pytest.mark.parametrize("twist", [None, 77])
def test_modular_lane_matches_word_oracle(twist):
    cfg = small_config(n_steps=64, n_trials=3, unit_twist_seed=twist)
    dets = _oracle_check(cfg, range(cfg.n_trials))
    # the last points need several primes: heights well past 2^62
    assert max(d.content_max() for d in dets).bit_length() > 70


def test_modular_lane_non_transvection_letter():
    gens = list(GENS)
    gens[0] = GENS[0] @ GENS[2]
    _oracle_check(small_config(generators=gens, n_steps=16, n_trials=4), range(4))


@pytest.mark.parametrize("g", [4, 5])
def test_modular_lane_higher_genus_and_zero_dets(g):
    gens, probs = bundled_generators(g)
    cfg = small_config(generators=gens, probabilities=probs, g=g, n_steps=16, n_trials=4)
    dets = _oracle_check(cfg, range(cfg.n_trials))
    # some of these short walks have det B = 0 at a schedule point, and the
    # exact lane files them as degenerate_zero
    assert any(d.is_zero() for d in dets)
    setup = _run_setup(cfg)
    verdicts = [v for t in range(cfg.n_trials)
                for v in _exact_lane(setup, *_lane_args(setup, cfg, t), g - 1)[0]]
    assert verdicts.count("degenerate_zero") == sum(d.is_zero() for d in dets)


# k (t + 1/t - 2) keeps a letter augmentation-trivial, but its residues sum
# to 0 mod p, so a row's products stay below 2 p^2 < 2^63 even unreduced;
# k (t + 1 + 1/t) with k = -1 mod 2^31 - 1 has residues near p there, and
# three such products pass 2^63
WIDE_SCALES = [(2**41, -2), ((2**31 - 1) * 2**11 - 1, 1)]


def _wide_config(scale=WIDE_SCALES[1], **kw):
    # coefficients above 2^40 put a row's sum of |c| past 2^32, so these
    # letters are reduced modulo each prime, and the frame after every term
    model = SurfaceModel(3)
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    k, mid = scale
    big = LaurentPoly({1: k, -1: k, 0: mid * k})
    # v = a_1 writes into an a-row, v = b_1 straight into a b-row of the frame
    wide = [transvection(model, v, c, torelli_like=mid == -2)
            for v in ([one, zero, zero, zero], [zero, zero, one, zero]) for c in (big, -big)]
    probs = [Fraction(1, 2 * len(GENS))] * len(GENS) + [Fraction(1, 8)] * 4
    return small_config(generators=GENS + wide, probabilities=probs, **kw)


def _row_l1(M):
    """The largest row sum of the l1 norms of the entries of the letter M."""
    return max(sum(sum(map(abs, e.coeffs.values())) for e in row) for row in M.rows)


@pytest.mark.parametrize("scale", WIDE_SCALES)
def test_modular_lane_wide_coefficients(scale):
    cfg = _wide_config(scale, n_steps=16, n_trials=6)
    letters = _run_setup(cfg).letters
    assert [L.wide for L in letters] == [False] * len(GENS) + [True] * 4
    drawn = {int(i) for t in range(cfg.n_trials) for i in _trial_letters(cfg, t)[0][:8]}
    assert set(range(len(GENS), len(GENS) + 4)) <= drawn
    _oracle_check(cfg, range(cfg.n_trials))


def test_modular_lane_reduces_before_every_near_wide_letter():
    # k (t + 1/t - 2) with k as large as keeps a letter's row_l1 below
    # _WIDE_ROW: one letter takes the bound from 2^31 past 2^62, so the
    # frame is reduced before every later letter, and unreduced it would
    # pass 2^63 on the next
    model = SurfaceModel(3)
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    gens = []
    for v in ([one, zero, zero, zero], [zero, zero, one, zero], [one, zero, zero, one]):
        k = (_WIDE_ROW - 2) // (4 * sum(map(bool, v)))
        for c in (k, -k):
            gens.append(transvection(model, v, LaurentPoly({1: c, -1: c, 0: -2 * c}),
                                     torelli_like=True))
    assert all(not _letter_plan(M).wide and _WIDE_ROW - 16 < _row_l1(M) < _WIDE_ROW
               for M in gens)
    assert all(2**31 * _row_l1(M) > 2**62 for M in gens)
    cfg = small_config(generators=gens, probabilities=[Fraction(1, 6)] * 6,
                       n_steps=16, n_trials=3)
    dets = _oracle_check(cfg, range(cfg.n_trials))
    assert any(not d.is_zero() for d in dets)


# -- the letter plan: L = I + sum_a r_a x_a y_a^T ----------------------


def _plan_matrix(L, n):
    """I + sum_a r_a x_a y_a^T, rebuilt from the plan's terms."""
    rows = [[LaurentPoly.const(int(i == k)) for k in range(n)] for i in range(n)]
    for ys, adds in L.terms:
        for i, e, c in adds:
            for k, y in ys:
                rows[i][k] = rows[i][k] + LaurentPoly({e: c * y})
    return rows


def _near_wide_gens():
    """The letters of test_modular_lane_reduces_before_every_near_wide_letter."""
    model = SurfaceModel(3)
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    gens = []
    for v in ([one, zero, zero, zero], [zero, zero, one, zero], [one, zero, zero, one]):
        k = (_WIDE_ROW - 2) // (4 * sum(map(bool, v)))
        for c in (k, -k):
            gens.append(transvection(model, v, LaurentPoly({1: c, -1: c, 0: -2 * c}),
                                     torelli_like=True))
    return gens


# T(a_0) T(a_1 + b_1): one term reads row 2 of the frame (b_0) and writes
# row 0; the other reads row 1 - row 3 and writes rows 1 and 3, so its w_a
# must be taken before the letter writes either
MIXED = GENS[0] @ GENS[10]


def test_letter_plan_rebuilds_the_letter():
    letters = [M for g in (3, 4, 5) for M in bundled_generators(g)[0]]
    letters += [GENS[0] @ GENS[2], MIXED] + _wide_config().generators[len(GENS):]
    letters += _near_wide_gens()
    for M in letters:
        L = _letter_plan(M)
        assert _plan_matrix(L, M.n) == [list(row) for row in M.rows]
        growth = [1] * M.n
        for ys, adds in L.terms:
            for i, _, c in adds:
                growth[i] += abs(c) * sum(abs(y) for _, y in ys)
        assert L.growth == max(growth) >= _row_l1(M)
        assert L.wide == (L.growth >= _WIDE_ROW)
        exps = [e for _, adds in L.terms for _, e, _ in adds]
        assert (L.left, L.right) == (max(0, -min(exps)), max(0, max(exps)))


@pytest.mark.parametrize("g", [3, 4, 5])
def test_bundled_transvection_is_one_term(g):
    for M in bundled_generators(g)[0]:
        L = _letter_plan(M)
        assert len(L.terms) == 1
        assert L.growth >= _row_l1(M)
        ys, adds = L.terms[0]
        # r = +-(t + 1/t - 2) and x, y have one or two entries +-1
        assert sorted(abs(c) for _, _, c in adds) in ([1, 1, 2], [1, 1, 1, 1, 2, 2])


def test_modular_lane_mixed_view_and_copy_letter():
    probs = [Fraction(1, 2 * len(GENS))] * len(GENS) + [Fraction(1, 2)]
    cfg = small_config(generators=GENS + [MIXED], probabilities=probs, n_steps=16, n_trials=4)
    assert all(len(GENS) in _trial_letters(cfg, t)[0][:4] for t in range(cfg.n_trials))
    _oracle_check(cfg, range(cfg.n_trials))


def _full_norm_bounds(gens, idx, sched, h):
    """The frame bounds as a loop over every row of each letter's full norm
    matrix, one new list of columns per letter."""
    norms = [
        tuple(tuple((k, sum(map(abs, x.coeffs.values()))) for k, x in enumerate(row) if x)
              for row in M.rows)
        for M in gens
    ]
    cols = [[int(i == j) for i in range(2 * h)] for j in range(h)]
    out = {}
    for step, i in enumerate(idx, 1):
        cols = [[sum(n * col[k] for k, n in row) for row in norms[int(i)]] for col in cols]
        if step in sched:
            out[step] = max(max(col[h:]) for col in cols)
    return out


G4, P4 = bundled_generators(4)


@pytest.mark.parametrize("make", [
    lambda: small_config(n_steps=64, n_trials=6, unit_twist_seed=5),
    lambda: _wide_config(n_steps=64, n_trials=4),
    lambda: small_config(generators=G4, probabilities=P4, g=4, n_steps=64, n_trials=4),
])
def test_frame_bounds_match_the_full_norm_loop(make):
    cfg = make()
    setup = _run_setup(cfg)
    idxs = np.array([_trial_letters(cfg, trial)[0] for trial in range(cfg.n_trials)])
    # every trial's bounds in one slice, and each on its own
    stacked = _slice_bounds(setup.norms, idxs, setup.sched, cfg.g - 1)
    for idx, got in zip(idxs, stacked):
        assert got == _full_norm_bounds(cfg.generators, idx, setup.sched, cfg.g - 1)
        assert list(got) == cfg.schedule()
        assert _slice_bounds(setup.norms, idx[None], setup.sched, cfg.g - 1) == [got]


@pytest.mark.parametrize("make", [lambda: small_config(n_steps=64, n_trials=2),
                                  lambda: _wide_config(n_steps=16, n_trials=3)])
def test_frame_bound_covers_true_coefficients(make):
    cfg = make()
    norms = _run_setup(cfg).norms
    for trial in range(cfg.n_trials):
        idx, _ = _trial_letters(cfg, trial)
        bounds = _slice_bounds(norms, idx[None], set(cfg.schedule()), 2)[0]
        for n, bound in bounds.items():
            block = bottom_left_block(sample_word(cfg, trial, n))
            assert bound >= max(e.content_max() for row in block for e in row), (trial, n)


def test_chunk_columns_do_not_depend_on_the_bound_slices(monkeypatch):
    # the frame bounds of a chunk are taken BOUND_ROWS trials at a time; a
    # slice of one trial, slices of three with a shorter last one, and the
    # whole chunk in one slice give the same columns
    wide = _wide_config().generators[len(GENS):]
    gens = GENS + [MIXED, wide[0], wide[2]]
    probs = [Fraction(1, 2 * len(GENS))] * len(GENS) + [Fraction(1, 6)] * 3
    cfg = small_config(generators=gens, probabilities=probs, n_steps=16, n_trials=10,
                       unit_twist_seed=77)
    drawn = {int(i) for t in range(cfg.n_trials) for i in _trial_letters(cfg, t)[0]}
    assert set(range(len(GENS), len(gens))) <= drawn
    trials = list(range(cfg.n_trials))
    assert walks.BOUND_ROWS >= len(trials)
    want = _trial_chunk((cfg, trials))
    for rows in (1, 3):
        monkeypatch.setattr(walks, "BOUND_ROWS", rows)
        got = _trial_chunk((cfg, trials))
        assert [_row(got, r) for r in trials] == [_row(want, r) for r in trials]


def _prime_count(bound, avoid=1):
    # the prime rule _modular_dets used before _primes_for, on the primes
    # that do not divide avoid
    k = 1
    while True:
        kept = [p for p in _primes_below_2_31(k)[:k] if avoid % p]
        if kept and math.prod(kept) > 2 * bound:
            return len(kept)
        k += 1


def test_primes_for_matches_old_prime_count_on_frame_bounds():
    cfg = small_config(n_steps=256, n_trials=2)
    norms = _run_setup(cfg).norms
    bounds = [0]
    for trial in range(cfg.n_trials):
        idx, _ = _trial_letters(cfg, trial)
        bounds += _slice_bounds(norms, idx[None], set(cfg.schedule()), 2)[0].values()
    assert max(bounds).bit_length() > 31 * 8
    for bound in bounds:
        k = _prime_count(bound)
        assert _primes_for([bound])[0] == list(_primes_below_2_31(k)[:k]), bound


def test_primes_for_counts_match_the_single_bound_rule():
    # many bounds at once, in no order, against one bound at a time; the
    # bounds include both sides of the products of the first kept primes
    gen = random.Random(22)
    p0, p1, p2, p3 = _primes_below_2_31(4)[:4]
    for avoid in (1, p0, -p1 * p3, 7 * p0 * p2):
        a, b = [p for p in (p0, p1, p2, p3) if avoid % p][:2]
        bounds = [0, 1, a // 2, a // 2 + 1, a * b // 2, a * b // 2 + 1]
        bounds += [gen.getrandbits(gen.randint(1, 1200)) for _ in range(30)]
        gen.shuffle(bounds)
        primes, counts = _primes_for(bounds, avoid=avoid)
        assert len(primes) == max(counts) and all(avoid % p for p in primes)
        for bound, n in zip(bounds, counts):
            assert n == _prime_count(bound, avoid), (bound, avoid)
            assert primes[:n] == _primes_for([bound], avoid=avoid)[0]


def test_exact_lane_degree_ledger():
    cfg = small_config(n_steps=8, n_trials=1)
    setup = _run_setup(cfg)
    _, degrees = _exact_lane(setup, *_lane_args(setup, cfg, 0), cfg.g - 1)
    d_mu = cfg.d_mu()
    for n, deg in zip(cfg.schedule(), degrees):
        assert deg <= (cfg.g - 1) * d_mu * n


# -- aggregation --------------------------------------------------------


def test_run_walk_worker_invariance():
    cfg = small_config()
    r1 = run_walk(cfg, workers=1)
    r2 = run_walk(cfg, workers=3)
    assert json.dumps(r1.to_json_obj()) == json.dumps(r2.to_json_obj())


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        return map(fn, chunks)


def test_run_walk_clamps_workers_to_trials(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    _InProcessPool.started.clear()
    cfg = small_config(n_trials=5)
    ref = json.dumps(run_walk(cfg, workers=1).to_json_obj())
    for workers in (2, 5, 16, 64):
        assert json.dumps(run_walk(cfg, workers=workers).to_json_obj()) == ref
    assert _InProcessPool.started == [2, 5, 5, 5]


def test_report_takes_embedded_statistics_over_live_trials(monkeypatch):
    # a zero iota image degenerates the trials that draw its generator; the
    # report's embedded statistics are those of the trials still live at
    # each point, from each trial's own loop, whichever chunks they ran in
    cfg = small_config(n_steps=16, n_trials=24, q_list=(3, 5))
    setup = _run_setup(cfg)
    idxs = [_trial_letters(cfg, t)[0] for t in range(cfg.n_trials)]
    firsts = [[idx.tolist().index(i) + 1 if i in idx else None for idx in idxs]
              for i in range(len(GENS))]
    # a generator some trials never draw, and some first draw past step 2
    gi = next(i for i, f in enumerate(firsts) if None in f and any(n and n > 2 for n in f))
    zeroed = {q: [np.zeros_like(m) if i == gi else m for i, m in enumerate(mats)]
              for q, mats in setup.iota.items()}
    monkeypatch.setattr(walks, "_run_setup", lambda config: dataclasses.replace(setup, iota=zeroed))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    rep = run_walk(cfg, workers=1)
    assert json.dumps(run_walk(cfg, workers=5).to_json_obj()) == json.dumps(rep.to_json_obj())
    sched = cfg.schedule()
    for q in cfg.q_list:
        own = [_embedded_one_trial(zeroed[q], idx, set(sched), 2) for idx in idxs]
        assert rep.degenerate_counts[q] == sum(degen for _, _, degen in own)
        assert 0 < rep.degenerate_counts[q] < cfg.n_trials
        for n in sched:
            vals = [L[n] for L, _, _ in own if n in L]
            ratios = [f[n] for _, f, _ in own if n in f]
            assert rep.lyapunov_mean[q][n] == float(np.mean(vals))
            assert rep.lyapunov_var[q][n] == float(np.var(vals, ddof=1))
            for d in DELTA_GRID:
                assert rep.hyperplane_fraction[q][d][n] == sum(x < d for x in ratios) / len(ratios)
        last = sorted(L[sched[-1]] for L, _, _ in own if sched[-1] in L)
        trim = max(1, len(last) // 20)
        assert rep.lyapunov_hat[q] == float(np.mean(last[trim:-trim]))
        # degenerate trials count at the points they reached
        assert sum(sched[1] in L for L, _, _ in own) > len(last)


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


@pytest.mark.filterwarnings("error")
def test_rng_keys_keep_every_bit_of_the_seed():
    # a Philox key word of 2^63 or more once went through float64: seeds 0
    # and 1 shared their twist key, and seed -1 drew the letters of seed 0
    def keys(seed):
        cfg = small_config(master_seed=seed, unit_twist_seed=77)
        return [rng(cfg, 3).bit_generator.state["state"]["key"].tolist()
                for rng in (walks._letter_rng, walks._twist_rng)]

    assert keys(0)[1] != keys(1)[1]
    assert keys(2**63 + 12345)[0] == [2**63 + 12345, 3]
    letters = [_sample_indices(small_config(master_seed=s), 0, 64).tolist() for s in (-1, 0)]
    assert letters[0] != letters[1]


@pytest.mark.filterwarnings("error")
def test_twist_counter_keeps_every_bit_of_the_seed():
    # the twist counter went to numpy as a list: a seed in [2^63, 2^64)
    # passed through float64, so 2^63 + 1 drew the twists of 2^63, and a
    # seed of 2^64 or more raised OverflowError
    def twists(seed):
        return walks._twist_rng(small_config(unit_twist_seed=seed), 2).integers(-3, 4, size=12).tolist()

    assert twists(0) == [2, 0, -3, 1, 1, -3, 3, -2, 2, -3, 0, 1]
    assert twists(1) == [2, -3, 0, 1, -3, -1, -3, -3, 0, -3, -1, -3]
    assert twists(-1) == [-1, 3, -1, -1, -3, -1, -3, -2, 3, 0, 3, -3]
    assert twists(2**63 - 1) == [-2, -3, 2, 3, -2, -1, 0, 1, 0, 2, 0, -3]
    assert twists(2**63) != twists(2**63 + 1)
    assert twists(2**70) == twists(2**70 % 2**64) and twists(-2**63 - 1) == twists(2**63 - 1)


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
    # the per-cover series and the Mahler fractions all come from one report
    rep = run_walk(small_config(n_trials=6), workers=1)
    assert rep.schedule == [2, 4, 8]
    assert set(rep.lyapunov_mean[3]) == set(rep.lyapunov_var[3]) == {2, 4, 8}
    assert rep.lyapunov_hat[3] is not None
    assert set(rep.fraction_mahler_positive) == set(rep.constraint_bins) == {2, 4, 8}
    hyper = rep.hyperplane_fraction[3]
    assert 1e-3 in hyper and set(hyper[1e-3]) == {2, 4, 8}


def test_proximality_probe_finds_witness():
    cfg = small_config()
    rep = proximality_probe(cfg, 3)
    assert rep.witness is not None
    assert rep.gap_ratio > 1.001
    # the witness word really has the claimed gap
    mk = ExteriorMarking(3)
    A = np.eye(mk.dim, dtype=complex)
    for gi in rep.witness:
        A = exterior_power_matrix(_normalized_iota(cfg.generators[gi], 3, 1), mk) @ A
    ev = np.sort(np.abs(np.linalg.eigvals(A)))[::-1]
    assert ev[0] / ev[1] == pytest.approx(rep.gap_ratio, rel=1e-9)
