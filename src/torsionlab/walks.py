"""Random-walk experiments on the form-preserving matrix groups.

Each trial has its own counter-based RNG substream keyed by
(master_seed, trial_index), so reports are bit-identical regardless of
worker count or scheduling.  The walk order is b_n ... b_1: new letters
multiply on the left.

Two lanes run over the same sampled letters; a worker draws the letters
of all of its trials first.  The exact lane runs one trial at a time.  It
carries the a-frame, the image of the a-basis (the word's first g-1
columns), and inspects det of its b-rows, the bottom-left block, at a
logarithmic schedule of lengths.  It keeps the frame modulo a batch of
primes below 2^31, as one int64 array of dense coefficient windows, with
enough primes for a per-entry l1 bound tracked exactly beforehand.  Each
generator is planned once as I + sum_a r_a x_a y_a^T (one term for a
transvection), and a letter updates the frame in place: each
w_a = y_a^T F is taken into a scratch row, then added in one pass per
term c t^e of r_a into each target row of x_a, so the identity costs
nothing.  Residues are reduced only when a running magnitude bound
requires it; at schedule points only, the b-rows are lifted to integers
by CRT and det B taken exactly over the Laurent ring.

The embedded lane runs all of the worker's trials in lockstep, one loop
over the steps per cover degree: it propagates each trial's a-subspace
frame through the iota image of its letter, with one stacked QR
renormalization per step.  The accumulated log-volume is the exterior
norm of the image of e, and the f-coefficient is the bottom-block minor
of the frame.  Each trial gets the floats its own loop would give,
whichever trials share its chunk.  Letters are unit-normalized (lowest
entry exponent shifted to zero) before embedding, which makes every
|iota| statistic exactly independent of unit twists of the generators.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .hermitian import (
    ExteriorMarking,
    FormMatrix,
    NonPrimitiveRoot,
    SurfaceModel,
    block_det,
    check_form_preserved,
    degree_bound,
    exterior_power_matrix,
    form_inverse,
    iota_embed,
    transvection,
)
from .mahler import (
    ConstraintParams,
    ConstraintVerdict,
    _check_alpha,
    build_K_alpha,
    constraint_check,
)
from .ringcore import LaurentPoly, _crt_symmetric, _primes_for


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
        if len(set(self.q_list)) != len(self.q_list):
            raise ValueError(f"cover degrees must be distinct, got {list(self.q_list)}")
        for q in self.q_list:
            if q < 3:
                raise ValueError("cover degrees must be >= 3")
            if math.gcd(self.root_index, q) != 1:
                raise NonPrimitiveRoot(f"root_index {self.root_index} is not coprime to q = {q}")
        if self.n_steps < 2:
            raise ValueError("n_steps must be >= 2, the first schedule point")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        _check_alpha(self.alpha)

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


# Philox keys and counters are uint64 arrays: numpy casts a list holding a
# word of 2^63 or more through float64, which rounds it, and refuses one of
# 2^64 or more
def _letter_rng(config: WalkConfig, trial_index: int) -> np.random.Generator:
    key = np.array([config.master_seed & (2**64 - 1), trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _twist_rng(config: WalkConfig, trial_index: int) -> np.random.Generator:
    seed = (config.unit_twist_seed or 0) & (2**64 - 1)
    key = np.array([(config.master_seed ^ 0x9E3779B97F4A7C15) & (2**64 - 1), trial_index],
                   dtype=np.uint64)
    counter = np.array([seed, 0, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _sample_indices(config: WalkConfig, trial_index: int, n: int) -> np.ndarray:
    rng = _letter_rng(config, trial_index)
    p = np.array([float(x) for x in config.probabilities])
    p = p / p.sum()
    return rng.choice(len(config.generators), size=n, p=p)


def _trial_letters(config: WalkConfig, trial_index: int):
    """The trial's n_steps letter indices, and its unit-twist exponents
    (None without unit_twist_seed)."""
    idx = _sample_indices(config, trial_index, config.n_steps)
    if config.unit_twist_seed is None:
        return idx, None
    return idx, _twist_rng(config, trial_index).integers(-3, 4, size=config.n_steps)


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
    lo = min((e.deg_lo for row in M.rows for e in row if e), default=0)
    return iota_embed(M.scale(LaurentPoly.t(-lo)).reduce_mod_q(q), root_index)


# a letter whose growth is below this keeps every partial sum of its update
# of residues inside int64 for primes below 2^31; a wider letter has its
# multipliers reduced modulo each prime, and each row it writes after every
# product
_WIDE_ROW = 1 << 32
# the frame's entries are residues below 2^31 right after a reduction, and
# it is reduced again before a letter would take their bound past 2^62
_REDUCED = 1 << 31
_LAZY_LIMIT = 1 << 62


@dataclass(frozen=True)
class _LetterPlan:
    """A generator L as I + sum_a r_a x_a y_a^T, read once per run.

    r_a is a Laurent polynomial and x_a, y_a are integer vectors.  Each
    entry of terms is (ys, adds) for one term a: ys lists (k, y_ak) over
    the nonzero entries of y_a, and adds lists (i, e, x_ai c) over the
    target rows i of x_a and the terms c t^e of r_a.  left and right are
    how far the terms' exponents reach below and above 0, the widening of
    the frame's window.

    norms lists (i, ((k, l1 norm of L_ik), ...)) for the rows i of L that
    are not rows of I.  growth = max_i (1 + sum_a |x_ai| ||r_a||_1
    ||y_a||_1), at least the largest row sum of those l1 norms, bounds
    every partial sum of the update, and each w_a and c w_a, in units of
    the frame's largest |entry|; the letter is wide when growth reaches
    _WIDE_ROW.
    """

    terms: tuple
    left: int
    right: int
    norms: tuple
    growth: int
    wide: bool


def _primitive(v: list) -> tuple[int, tuple]:
    """(f, w) with v = f w and w primitive, for v sorted (key, value)
    pairs with nonzero values: w's are coprime and its first is positive."""
    f = math.gcd(*(c for _, c in v)) * (1 if v[0][1] > 0 else -1)
    return f, tuple((k, c // f) for k, c in v)


def _letter_plan(M: FormMatrix) -> _LetterPlan:
    # row i of L - I, its entries grouped by their Laurent value r up to an
    # integer factor, is a sum of x_i r y^T with y primitive; the rows that
    # share r and y make one term, so an outer product makes one term
    xs = {}
    for i, row in enumerate(M.rows):
        vecs = {}
        for k, entry in enumerate(row):
            if i == k:
                entry = entry - 1
            if entry:
                f, r = _primitive(entry.terms())
                vecs.setdefault(r, {})[k] = f
        for r, v in vecs.items():
            f, y = _primitive(sorted(v.items()))
            xs.setdefault((r, y), {})[i] = f
    terms, growth = [], [1] * M.n
    for (r, y), x in xs.items():
        terms.append((y, tuple((i, e, xi * c) for i, xi in x.items() for e, c in r)))
        for i, xi in x.items():
            growth[i] += abs(xi) * sum(abs(c) for _, c in r) * sum(abs(c) for _, c in y)
    exps = [e for r, _ in xs for e, _ in r]
    norms = [
        tuple((k, sum(map(abs, x.cs))) for k, x in enumerate(row) if x)
        for row in M.rows
    ]
    return _LetterPlan(
        terms=tuple(terms),
        left=max([0] + [-e for e in exps]),
        right=max([0] + exps),
        norms=tuple((i, row) for i, row in enumerate(norms) if row != ((i, 1),)),
        growth=max(growth),
        wide=max(growth) >= _WIDE_ROW,
    )


@dataclass(frozen=True)
class _RunSetup:
    """What every trial of a run shares: built once per run_walk call, and
    once per chunk in worker processes."""

    sched: list
    d_mu: int
    params: ConstraintParams
    iota: dict  # cover degree -> _normalized_iota of each generator
    letters: list  # _LetterPlan of each generator


def _run_setup(config: WalkConfig) -> _RunSetup:
    d_mu = config.d_mu()
    K = build_K_alpha(config.alpha, 60)
    return _RunSetup(
        sched=config.schedule(),
        d_mu=d_mu,
        params=ConstraintParams(alpha=config.alpha, K=frozenset(K), d_mu=d_mu, g=config.g),
        iota={
            q: [_normalized_iota(M, q, config.root_index) for M in config.generators]
            for q in config.q_list
        },
        letters=[_letter_plan(M) for M in config.generators],
    )


def _frame_bounds(plans: list, sched: list, h: int) -> dict:
    """For each schedule point n, a bound on every |coefficient| of the
    frame's b-rows after the first n letters: the l1 norm of (L F)_ij is at
    most sum_k ||L_ik||_1 ||F_kj||_1, tracked exactly column by column over
    the rows that L moves."""
    cols = [[int(i == j) for i in range(2 * h)] for j in range(h)]
    out = {}
    for step, L in enumerate(plans, 1):
        for col in cols:
            new = [sum([n * col[k] for k, n in row]) for _, row in L.norms]
            for (i, _), v in zip(L.norms, new):
                col[i] = v
        if step in sched:
            out[step] = max(max(col[h:]) for col in cols)
    return out


def _modular_dets(setup: _RunSetup, idx, twists, h: int) -> dict:
    """det B at each schedule point of the walk on the letters idx (times
    t^twists, if given), from the a-frame kept modulo a batch of primes.

    The frame F is one int64 array (2h, exponents, h, primes), updated in
    place: a letter I + sum_a r_a x_a y_a^T first takes each w_a = y_a^T F
    into a scratch row of its own, then adds c w_a at offset e into each
    target row of x_a.  The identity costs nothing: the window of live
    exponents only widens by the terms' exponent range, inside the one
    preallocated buffer, and a unit twist only moves the window's base
    exponent.  Residues are reduced lazily:
    `bound` caps every |entry| since the last reduction (2^31 times the
    growth of each letter since), and the frame is reduced when the next
    letter would take it past 2^62, before a wide letter and at schedule
    points.  A wide letter's multipliers are reduced modulo each prime,
    and so is each row it writes after every product.  At schedule points
    the b-rows are lifted by CRT over as many primes as that point's bound
    needs.
    """
    plans = [setup.letters[int(i)] for i in idx]
    bounds = _frame_bounds(plans, setup.sched, h)
    primes, counts = _primes_for(bounds.values())
    at = dict(zip(bounds, counts))
    P = np.array(primes, dtype=np.int64)
    lo = sum(L.left for L in plans)
    frame = np.zeros((2 * h, 1 + lo + sum(L.right for L in plans), h, len(primes)), dtype=np.int64)
    # a row per term for its w_a, and one for c w_a
    scratch = np.empty((1 + max(len(L.terms) for L in plans), *frame.shape[1:]), dtype=np.int64)
    for j in range(h):
        frame[j, lo, j] = 1
    # the live exponents are the window [a, b), and base is the exponent at a
    a, b, base, bound = lo, lo + 1, 0, _REDUCED
    reduced = {}  # multiplier of a wide letter -> its residues

    def residues(c):
        if c not in reduced:
            reduced[c] = np.array([c % p for p in primes], dtype=np.int64)
        return reduced[c]

    def add(dst, src, c, wide, tmp):  # dst += c src, reduced if wide
        if wide:
            np.multiply(src, residues(c), out=tmp)
            tmp += dst
            np.remainder(tmp, P, out=dst)
        elif c == 1:
            dst += src
        elif c == -1:
            dst -= src
        else:
            np.multiply(src, c, out=tmp)
            dst += tmp

    dets = {}
    for step, L in enumerate(plans, 1):
        if bound > _REDUCED and (L.wide or bound * L.growth > _LAZY_LIMIT):
            np.remainder(frame[:, a:b], P, out=frame[:, a:b])
            bound = _REDUCED
        tmp = scratch[-1, : b - a]
        ws = scratch[:, : b - a]
        for w, (ys, _) in zip(ws, L.terms):
            (k, c), *rest = ys  # w_a = y_a^T F: its first entry written, the rest added
            np.multiply(frame[k, a:b], residues(c) if L.wide else c, out=w)
            if L.wide:
                np.remainder(w, P, out=w)
            for k, c in rest:
                add(w, frame[k, a:b], c, L.wide, tmp)
        for w, (_, adds) in zip(ws, L.terms):
            for i, e, c in adds:
                add(frame[i, a + e : b + e], w, c, L.wide, tmp)
        a, b, base = a - L.left, b + L.right, base - L.left
        bound = _REDUCED if L.wide else bound * L.growth
        if twists is not None:
            base += int(twists[step - 1])
        if step in at:
            np.remainder(frame[:, a:b], P, out=frame[:, a:b])
            bound = _REDUCED
            k, width = at[step], b - a
            rows = frame[h:, a:b, :, :k].transpose(3, 0, 2, 1).reshape(k, -1)
            vals = _crt_symmetric(rows, primes[:k])
            block = [
                [LaurentPoly.from_list(vals[(i * h + j) * width : (i * h + j + 1) * width], base)
                 for j in range(h)]
                for i in range(h)
            ]
            dets[step] = block_det(block)
    return dets


def _trial_record(config: WalkConfig, trial_index: int, setup: _RunSetup, idx, twists) -> dict:
    """The trial's exact-lane statistics, from its letters idx and unit
    twists: det B at each schedule point and its cyclotomic constraints."""
    h = config.g - 1
    rec = {
        "trial": trial_index,
        "mahler_positive": {},
        "constraint_verdict": {},
        "det_degree": {},
    }
    for step, det in _modular_dets(setup, idx, twists, h).items():
        if det.is_zero():
            rec["mahler_positive"][step] = False
            rec["constraint_verdict"][step] = "degenerate_zero"
            rec["det_degree"][step] = -1
            continue
        deg = det.degree_span()
        rec["det_degree"][step] = deg
        if deg > h * setup.d_mu * step:
            raise RuntimeError("degree ledger violation")
        v = constraint_check(det, setup.params, step)
        rec["mahler_positive"][step] = v.verdict is ConstraintVerdict.NOT_MAHLER_ZERO
        rec["constraint_verdict"][step] = (
            v.verdict.value if v.hit_index is None else f"cyclotomic_hit_{v.hit_index}"
        )
    return rec


def _embedded_lane(mats: list, idxs: np.ndarray, sched: list, h: int):
    """The embedded lane of every trial at one cover degree, in lockstep.

    Row r of idxs holds trial r's letters, and mats the iota image of each
    generator.  Each step multiplies every live trial's a-frame by its
    letter and renormalizes all of them with one stacked QR: the
    accumulated log-volume is the exterior norm of the image of e, and the
    determinant of the frame's bottom block the f-coefficient.  A trial
    whose volume is not positive and finite is degenerate and leaves the
    live set.  Returns L_n and f_ratio (step -> value) and the degenerate
    flag of each trial.
    """
    n_trials = len(idxs)
    L_n = [{} for _ in range(n_trials)]
    f_ratio = [{} for _ in range(n_trials)]
    degenerate = [False] * n_trials
    mats = np.stack(mats)
    live = np.arange(n_trials)
    Y = np.zeros((n_trials, 2 * h, h), dtype=complex)
    Y[:, :h, :] = np.eye(h)
    logvol = np.zeros(n_trials)
    for step in range(1, idxs.shape[1] + 1):
        Q, R = np.linalg.qr(mats[idxs[live, step - 1]] @ Y)
        vol = np.prod(np.abs(np.diagonal(R, axis1=1, axis2=2)), axis=1)
        ok = (vol > 0.0) & np.isfinite(vol)
        if not ok.all():
            for t in live[~ok].tolist():
                degenerate[t] = True
            live, Q, vol, logvol = live[ok], Q[ok], vol[ok], logvol[ok]
            if not live.size:
                break
        # math.log per trial, as the per-trial loop took it
        logvol = logvol + [math.log(v) for v in vol.tolist()]
        # Q is one orthonormal basis of the frame's image; another would
        # move the minor below only by a phase, so its modulus is well defined
        Y = Q
        if step in sched:
            minors = np.linalg.det(Y[:, h : 2 * h, :])
            for t, lv, minor in zip(live.tolist(), logvol.tolist(), minors):
                L_n[t][step] = lv / step
                f_ratio[t][step] = float(abs(minor))
    return L_n, f_ratio, degenerate


def _trial_chunk(args) -> list[dict]:
    """Records of the trials `indices`: the exact lane one trial at a time,
    then the embedded lane once per cover degree over all of them."""
    config, indices = args
    setup = _run_setup(config)
    letters = [_trial_letters(config, i) for i in indices]
    records = [_trial_record(config, i, setup, *lt) for i, lt in zip(indices, letters)]
    for rec in records:
        rec["L_n"], rec["f_ratio"], rec["degenerate"] = {}, {}, {}
    idxs = np.array([idx for idx, _ in letters])
    for q in config.q_list:
        lane = _embedded_lane(setup.iota[q], idxs, setup.sched, config.g - 1)
        for rec, L, f, degen in zip(records, *lane):
            rec["L_n"][q], rec["f_ratio"][q], rec["degenerate"][q] = L, f, degen
    return records


def run_walk(config: WalkConfig, workers: int | None = None) -> WalkReport:
    """Run all trials and aggregate the per-length statistics, on `workers`
    processes (default: up to 8 CPUs), never more than one per trial."""
    nw = workers if workers is not None else min(8, os.cpu_count() or 1)
    nw = min(nw, config.n_trials)
    indices = list(range(config.n_trials))
    if nw <= 1 or config.n_trials < 4:
        records = _trial_chunk((config, indices))
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


@dataclass
class ProximalityReport:
    witness: list[int] | None
    gap_ratio: float | None
    words_examined: int
    length_cap: int


# proximality_probe searches words of up to PROBE_LENGTH_CAP letters, at
# most PROBE_MAX_WORDS of them, for a gap ratio above 1 + PROBE_GAP
PROBE_LENGTH_CAP = 8
PROBE_MAX_WORDS = 4096
PROBE_GAP = 1e-3


def proximality_probe(config: WalkConfig, q: int, root_index: int = 1) -> ProximalityReport:
    """Search short words for a proximal element in the exterior action.

    A witness is a word whose exterior-power image has a simple dominant
    eigenvalue with gap ratio > 1 + PROBE_GAP.
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
    for _ in range(PROBE_LENGTH_CAP):
        nxt = []
        for wordidx, mat in frontier:
            for gi, gm in enumerate(mats):
                if examined >= PROBE_MAX_WORDS:
                    return ProximalityReport(None, None, examined, PROBE_LENGTH_CAP)
                cand_idx = wordidx + [gi]
                cand = gm @ mat
                examined += 1
                ev = np.sort(np.abs(np.linalg.eigvals(cand)))[::-1]
                if ev[1] > 0 and ev[0] / ev[1] > 1 + PROBE_GAP:
                    return ProximalityReport(
                        cand_idx, float(ev[0] / ev[1]), examined, PROBE_LENGTH_CAP
                    )
                nxt.append((cand_idx, cand))
        frontier = nxt
    return ProximalityReport(None, None, examined, PROBE_LENGTH_CAP)


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
