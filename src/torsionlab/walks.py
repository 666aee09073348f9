"""Random-walk experiments on the form-preserving matrix groups.

Each trial has its own counter-based RNG substream keyed by
(master_seed, trial_index), so reports are bit-identical regardless of
worker count or scheduling.  The walk order is b_n ... b_1: new letters
multiply on the left.

Two lanes run over the same sampled letters.  The exact lane carries
the Laurent a-frame, the image of the a-basis (the word's first g-1
columns), and inspects det of its b-rows, the bottom-left block, at a
logarithmic schedule of lengths.  The embedded lane propagates the
a-subspace frame through the iota image of each letter with QR
renormalization: the accumulated log-volume is the exterior norm of the
image of e, and the f-coefficient is the bottom-block minor of the
frame.  Letters are unit-normalized (lowest entry exponent shifted to
zero) before embedding, which makes every |iota| statistic exactly
independent of unit twists of the generators.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import numpy as np

from .hermitian import (
    ExteriorMarking,
    FormMatrix,
    SurfaceModel,
    block_det,
    check_form_preserved,
    degree_bound,
    exterior_power_matrix,
    form_inverse,
    transvection,
)
from .mahler import (
    ConstraintParams,
    ConstraintVerdict,
    build_K_alpha,
    constraint_check,
)
from .ringcore import LaurentPoly


DELTA_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@dataclass
class WalkConfig:
    generators: list[FormMatrix]
    probabilities: list[Fraction]
    g: int
    n_steps: int = 64
    n_trials: int = 200
    master_seed: int = 0
    q_list: tuple[int, ...] = (3,)
    alpha: float = 0.05
    root_index: int = 1
    unit_twist_seed: int | None = None

    def __post_init__(self):
        if len(self.generators) != len(self.probabilities):
            raise ValueError("one probability per generator")
        probs = [Fraction(p) for p in self.probabilities]
        if any(p <= 0 for p in probs):
            raise ValueError("probabilities must be positive")
        if sum(probs) != 1:
            raise ValueError("probabilities must sum to 1 exactly")
        self.probabilities = probs
        for M in self.generators:
            if M.q is not None:
                raise ValueError("walk generators must live over the Laurent ring")
            if M.model.g != self.g:
                raise ValueError("generator genus mismatch")
            if not check_form_preserved(M):
                raise ValueError("generator does not preserve the form")
        for q in self.q_list:
            if q < 3:
                raise ValueError("cover degrees must be >= 3")

    @property
    def inverses_present(self) -> bool:
        """Heuristic semigroup-generation check: every generator has a
        two-sided inverse in the set.  The generators preserve the form,
        so the inverse is the block shuffle of form_inverse."""
        gens = set(self.generators)
        return all(form_inverse(M) in gens for M in gens)

    def schedule(self) -> list[int]:
        """Logarithmic schedule 2, 4, 8, ... up to n_steps."""
        out = []
        n = 2
        while n <= self.n_steps:
            out.append(n)
            n *= 2
        if out and out[-1] != self.n_steps:
            out.append(self.n_steps)
        return out

    def d_mu(self) -> int:
        return degree_bound(self.generators)


@dataclass
class WalkReport:
    config_seed: int
    n_trials: int
    schedule: list[int]
    q_list: list[int]
    fraction_mahler_positive: dict
    constraint_bins: dict
    lyapunov_mean: dict
    lyapunov_var: dict
    lyapunov_hat: dict
    hyperplane_fraction: dict
    degenerate_counts: dict
    max_det_degree: dict
    degree_bound_per_n: dict
    d_mu: int
    inverses_present: bool

    def to_json_obj(self) -> dict:
        def keystr(d):
            return {
                str(k): (keystr(v) if isinstance(v, dict) else v)
                for k, v in d.items()
            }

        return keystr({f.name: getattr(self, f.name) for f in fields(self)})


# ---------------------------------------------------------------------------
# sampling


def _letter_rng(config: WalkConfig, trial_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=[config.master_seed & (2**64 - 1), trial_index])
    )


def _twist_rng(config: WalkConfig, trial_index: int) -> np.random.Generator:
    seed = config.unit_twist_seed or 0
    return np.random.Generator(
        np.random.Philox(
            key=[(config.master_seed ^ 0x9E3779B97F4A7C15) & (2**64 - 1), trial_index],
            counter=[seed, 0, 0, 0],
        )
    )


def _sample_indices(config: WalkConfig, trial_index: int, n: int) -> np.ndarray:
    rng = _letter_rng(config, trial_index)
    p = np.array([float(x) for x in config.probabilities])
    p = p / p.sum()
    return rng.choice(len(config.generators), size=n, p=p)


def sample_word(config: WalkConfig, trial_index: int, n: int) -> FormMatrix:
    """Exact product b_n ... b_1 of the trial's first n letters."""
    if n > config.n_steps:
        raise ValueError("n exceeds configured n_steps")
    idx = _sample_indices(config, trial_index, n)
    word = FormMatrix.identity(SurfaceModel(config.g))
    for i in idx:
        word = config.generators[int(i)] @ word
    return word


# ---------------------------------------------------------------------------
# per-trial computation


def _normalized_iota(M: FormMatrix, q: int, root_index: int) -> np.ndarray:
    """iota image of the canonical unit-normalized lift of M."""
    lo = None
    for row in M.rows:
        for e in row:
            if not e.is_zero():
                lo = e.deg_lo if lo is None else min(lo, e.deg_lo)
    shift = -(lo or 0)
    zeta = np.exp(2j * np.pi * root_index / q)
    n = M.n
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = M.rows[i][j]
            for k, c in e.coeffs.items():
                out[i, j] += c * zeta ** ((k + shift) % q)
    return out


def _frame_product(letter: FormMatrix, frame: list) -> list:
    """letter @ frame for a 2h x h frame given as rows of LaurentPoly,
    skipping the zero entries of the letter."""
    zero = LaurentPoly.zero()
    out = []
    for row in letter.rows:
        terms = [(c, frame[k]) for k, c in enumerate(row) if c]
        out.append(
            [sum((c * f[j] for c, f in terms), zero) for j in range(len(frame[0]))]
        )
    return out


def _trial_record(config: WalkConfig, trial_index: int) -> dict:
    """All per-trial statistics, deterministic in (seed, trial_index)."""
    sched = config.schedule()
    sched_set = set(sched)
    h = config.g - 1
    d_mu = config.d_mu()
    idx = _sample_indices(config, trial_index, config.n_steps)
    gens = config.generators
    if config.unit_twist_seed is not None:
        twists = _twist_rng(config, trial_index).integers(-3, 4, size=config.n_steps)
    else:
        twists = None

    K = build_K_alpha(config.alpha, 60)
    params = ConstraintParams(
        alpha=config.alpha, K=frozenset(K), d_mu=d_mu, g=config.g
    )

    # embedded lane state, one frame per cover degree
    frames = {}
    for q in config.q_list:
        mats = [_normalized_iota(Mg, q, config.root_index) for Mg in gens]
        Y = np.zeros((2 * h, h), dtype=complex)
        Y[:h, :h] = np.eye(h)
        frames[q] = {"mats": mats, "Y": Y, "logvol": 0.0, "dead": False}

    # exact lane state: the image of the a-basis, the word's first h columns
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    frame = [[one if i == j else zero for j in range(h)] for i in range(2 * h)]
    rec = {
        "trial": trial_index,
        "mahler_positive": {},
        "constraint_verdict": {},
        "det_degree": {},
        "L_n": {q: {} for q in config.q_list},
        "f_ratio": {q: {} for q in config.q_list},
        "degenerate": {q: False for q in config.q_list},
    }
    for step in range(1, config.n_steps + 1):
        gi = int(idx[step - 1])
        letter = gens[gi]
        if twists is not None:
            letter = letter.scale(LaurentPoly.t(int(twists[step - 1])))
        frame = _frame_product(letter, frame)
        for q in config.q_list:
            st = frames[q]
            if st["dead"]:
                continue
            Y = st["mats"][gi] @ st["Y"]
            Q, R = np.linalg.qr(Y)
            vol = float(np.prod(np.abs(np.diag(R))))
            if vol <= 0.0 or not math.isfinite(vol):
                st["dead"] = True
                rec["degenerate"][q] = True
                continue
            st["logvol"] += math.log(vol)
            # fix phases so the minor below is well defined up to modulus
            st["Y"] = Q
        if step in sched_set:
            det = block_det(frame[h:], q=None)
            if det.is_zero():
                rec["mahler_positive"][step] = False
                rec["constraint_verdict"][step] = "degenerate_zero"
                rec["det_degree"][step] = -1
            else:
                deg = det.degree_span()
                rec["det_degree"][step] = deg
                if deg > h * d_mu * step:
                    raise RuntimeError("degree ledger violation")
                v = constraint_check(det, params, step)
                rec["mahler_positive"][step] = (
                    v.verdict is ConstraintVerdict.NOT_MAHLER_ZERO
                )
                rec["constraint_verdict"][step] = (
                    v.verdict.value
                    if v.hit_index is None
                    else f"cyclotomic_hit_{v.hit_index}"
                )
            for q in config.q_list:
                st = frames[q]
                if st["dead"]:
                    continue
                rec["L_n"][q][step] = st["logvol"] / step
                minor = np.linalg.det(st["Y"][h : 2 * h, :])
                rec["f_ratio"][q][step] = float(abs(minor))
    return rec


def _trial_chunk(args) -> list[dict]:
    config, indices = args
    return [_trial_record(config, i) for i in indices]


def _worker_count() -> int:
    env = os.environ.get("TORSIONLAB_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def run_walk(config: WalkConfig, workers: int | None = None) -> WalkReport:
    """Run all trials and aggregate the per-length statistics."""
    nw = workers if workers is not None else _worker_count()
    indices = list(range(config.n_trials))
    if nw <= 1 or config.n_trials < 4:
        records = [_trial_record(config, i) for i in indices]
    else:
        chunks = [(config, indices[i::nw]) for i in range(nw)]
        records = []
        with ProcessPoolExecutor(max_workers=nw) as pool:
            for part in pool.map(_trial_chunk, chunks):
                records.extend(part)
        records.sort(key=lambda r: r["trial"])
    return _aggregate(config, records)


def _aggregate(config: WalkConfig, records: list[dict]) -> WalkReport:
    sched = config.schedule()
    h = config.g - 1
    d_mu = config.d_mu()
    frac_pos = {}
    bins: dict = {n: {} for n in sched}
    max_deg = {}
    for n in sched:
        hits = sum(1 for r in records if r["mahler_positive"].get(n))
        frac_pos[n] = hits / len(records)
        for r in records:
            v = r["constraint_verdict"].get(n, "missing")
            bins[n][v] = bins[n].get(v, 0) + 1
        max_deg[n] = max(r["det_degree"].get(n, -1) for r in records)
    ly_mean: dict = {}
    ly_var: dict = {}
    ly_hat: dict = {}
    hyper: dict = {}
    degen: dict = {}
    for q in config.q_list:
        ly_mean[q] = {}
        ly_var[q] = {}
        hyper[q] = {d: {} for d in DELTA_GRID}
        degen[q] = sum(1 for r in records if r["degenerate"][q])
        for n in sched:
            vals = [
                r["L_n"][q][n]
                for r in records
                if n in r["L_n"][q]
            ]
            if vals:
                arr = np.array(vals)
                ly_mean[q][n] = float(arr.mean())
                ly_var[q][n] = float(arr.var(ddof=1)) if len(arr) > 1 else 0.0
            ratios = [
                r["f_ratio"][q][n] for r in records if n in r["f_ratio"][q]
            ]
            for d in DELTA_GRID:
                if ratios:
                    hyper[q][d][n] = sum(1 for x in ratios if x < d) / len(ratios)
        last = sched[-1]
        vals = sorted(
            r["L_n"][q][last] for r in records if last in r["L_n"][q]
        )
        if vals:
            trim = max(1, len(vals) // 20)
            core = vals[trim:-trim] if len(vals) > 2 * trim else vals
            ly_hat[q] = float(np.mean(core))
    return WalkReport(
        config_seed=config.master_seed,
        n_trials=len(records),
        schedule=sched,
        q_list=list(config.q_list),
        fraction_mahler_positive=frac_pos,
        constraint_bins=bins,
        lyapunov_mean=ly_mean,
        lyapunov_var=ly_var,
        lyapunov_hat=ly_hat,
        hyperplane_fraction=hyper,
        degenerate_counts=degen,
        max_det_degree=max_deg,
        degree_bound_per_n={n: h * d_mu * n for n in sched},
        d_mu=d_mu,
        inverses_present=config.inverses_present,
    )


def lyapunov_estimate(config: WalkConfig, q: int, root_index: int = 1):
    """Lyapunov series for one cover degree; see run_walk for the full
    report.  Returns (schedule, mean L_n, var L_n, lambda_hat)."""
    if q < 3:
        raise ValueError("cover degree must be >= 3")
    sub = replace(config, q_list=(q,), root_index=root_index)
    rep = run_walk(sub)
    return (
        rep.schedule,
        rep.lyapunov_mean[q],
        rep.lyapunov_var[q],
        rep.lyapunov_hat.get(q),
    )


def mahler_positive_fraction(config: WalkConfig):
    """Fraction of trials with exactly-positive Mahler determinant, per
    scheduled length, plus the verdict bins of the zero-measure rest."""
    rep = run_walk(config)
    return rep.fraction_mahler_positive, rep.constraint_bins


def hyperplane_stat(config: WalkConfig, q: int, root_index: int = 1):
    """Empirical mass of the normalized f-coefficient below each delta."""
    if q < 3:
        raise ValueError("cover degree must be >= 3")
    sub = replace(config, q_list=(q,), root_index=root_index)
    rep = run_walk(sub)
    return rep.hyperplane_fraction[q]


@dataclass
class ProximalityReport:
    witness: list[int] | None
    gap_ratio: float | None
    words_examined: int
    length_cap: int


def proximality_probe(
    config: WalkConfig,
    q: int,
    root_index: int = 1,
    length_cap: int = 8,
    max_words: int = 4096,
    gap_threshold: float = 1e-3,
) -> ProximalityReport:
    """Search short words for a proximal element in the exterior action.

    A witness is a word whose exterior-power image has a simple dominant
    eigenvalue with gap ratio > 1 + gap_threshold.
    """
    marking = ExteriorMarking(config.g)
    if marking.dim > 70:
        raise ValueError("exterior dimension too large for the probe")
    mats = [
        exterior_power_matrix(
            _normalized_iota(Mg, q, root_index), marking
        )
        for Mg in config.generators
    ]
    examined = 0
    frontier = [([], np.eye(marking.dim, dtype=complex))]
    for _ in range(length_cap):
        nxt = []
        for wordidx, mat in frontier:
            for gi, gm in enumerate(mats):
                if examined >= max_words:
                    return ProximalityReport(None, None, examined, length_cap)
                cand_idx = wordidx + [gi]
                cand = gm @ mat
                examined += 1
                ev = np.sort(np.abs(np.linalg.eigvals(cand)))[::-1]
                if ev[1] > 0 and ev[0] / ev[1] > 1 + gap_threshold:
                    return ProximalityReport(
                        cand_idx, float(ev[0] / ev[1]), examined, length_cap
                    )
                nxt.append((cand_idx, cand))
        frontier = nxt
    return ProximalityReport(None, None, examined, length_cap)


# ---------------------------------------------------------------------------
# bundled generator sets


def bundled_generators(g: int = 3):
    """Augmentation-trivial transvection set at genus g, with inverses.

    Vectors mix the a- and b-blocks so the walk explores nontrivial
    bottom-left blocks; the coefficient t + 1/t - 2 vanishes at t = 1.
    """
    model = SurfaceModel(g)
    h = g - 1
    r = LaurentPoly({1: 1, -1: 1, 0: -2})
    zero = LaurentPoly.zero()
    one = LaurentPoly.one()

    def vec(entries):
        v = [zero] * (2 * h)
        for pos, val in entries:
            v[pos] = val
        return v

    vectors = []
    for i in range(h):
        vectors.append(vec([(i, one)]))  # a_i
        vectors.append(vec([(h + i, one)]))  # b_i
        vectors.append(vec([(i, one), (h + i, one)]))  # a_i + b_i
    for i in range(h - 1):
        vectors.append(vec([(i, one), (h + i + 1, one)]))  # a_i + b_{i+1}
        vectors.append(vec([(i + 1, one), (h + i, one)]))  # a_{i+1} + b_i
    gens = []
    for v in vectors:
        gens.append(transvection(model, v, r, torelli_like=True))
        gens.append(transvection(model, v, -r, torelli_like=True))
    probs = [Fraction(1, len(gens))] * len(gens)
    return gens, probs
