"""Seeded workload plans: the CLI calls each run makes, and their inputs.

A plan is a list of rounds; a round is a list of calls; a call is the argv
a user would type plus what its output is checked against.  The worker
only stops at the end of a round, so every run sees the same mix of input
classes and the seed changes which inputs of each class, never the mix.
Only `algebra` and the shipped pools under `reference/` are used here, so
making a plan never touches torsionlab.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from pathlib import Path

import algebra

REFERENCE = Path(__file__).resolve().parent / "reference"

# gated by BENCHMARK.json; mahler_domain also runs under --workload all
WORKLOADS = ("walk", "tower", "mahler_walkdet", "mahler_cyclotomic", "mahler_domain")

# walk: the genus-3 bundled set, one CLI call runs WALK_TRIALS trials
WALK_STEPS = 64
WALK_TRIALS = 8
WALK_MASTER_SEEDS = list(range(48))

# tower: Lehmer, a seeded 2x2 block, and a presentation degenerate at even q
LEHMER = {10: 1, 9: 1, 7: -1, 6: -1, 5: -1, 4: -1, 3: -1, 1: 1, 0: 1}
DEGENERATE = {3: 1, 2: -2, 1: -2, 0: 1}  # (t + 1)(t^2 - 3t + 1)
TOWER_QMAX = {"lehmer": 100, "block": 60, "degenerate": 100}
TOWER_BLOCK_POOL = 24
TOWER_ROUNDS = 12
ORACLE_QMAX = 24  # Sylvester-resultant cross-check up to this cover degree

# mahler_walkdet: determinants of bundled walks, grouped by the time the
# seed commit took on them; a round takes one determinant from each group,
# so every round costs about the same whatever the seed
WALKDET_LENGTHS = (16, 20, 24, 28, 32, 36, 40)
WALKDET_DEGREES = (20, 48)
WALKDET_GROUPS = 8
WALKDET_POOL = 48

# mahler_cyclotomic: inputs +-t^k * prod Phi_m, half of them times a
# non-cyclotomic factor of small Mahler measure
CYCLO_ROUNDS = 16
SMALL_MEASURE = (
    {10: 1, 9: 1, 7: -1, 6: -1, 5: -1, 4: -1, 3: -1, 1: 1, 0: 1},  # Lehmer, 1.17628
    {3: 1, 1: -1, 0: -1},  # t^3 - t - 1, smallest Pisot number 1.32472
    {4: 1, 3: -1, 0: -1},  # t^4 - t^3 - 1, Pisot number 1.38028
)
# kronecker_zero_test caches Phi_m and Phi_m(2) for every m it scans past,
# which is every m up to the factor it is looking for with phi(m) at most
# the degree still to be factored.  That cold fill is a large part of a
# run, so it must not depend on the seed: the first item of every run is
# +-t^k * Phi_FILL_INDEX, which fills F = {m <= 1050 : phi(m) <= 240}, and
# every later item only scans inside F.  A larger F (say up to 1980) would
# put half of the run into that one call.
FILL_INDEX = 1050
FILL_DEGREE = 240  # phi(1050)
EDGE_INDICES = (700, FILL_INDEX)  # one factor from here, inside F
HEAVY_MAX_INDEX = FILL_DEGREE + 1  # every m <= 241 has phi(m) <= 240
# Outside the seed commit's domain (ungated workload mahler_domain): the
# index scan asks for Phi_m with m > 2000 (cache limit), or the degree
# exceeds 1000 (scan horizon).  Both raise at the seed commit.
BEYOND_CACHE = (2010, 2040, 2070, 2100, 2310)  # every m in (2000, 5000] with phi(m) <= 528


def _call(argv, items, expect, outputs=()):
    return {"argv": [str(a) for a in argv], "items": items, "expect": expect,
            "outputs": [str(o) for o in outputs]}


@lru_cache(maxsize=None)
def load_reference(name: str):
    """A shipped pool with its reference outputs; shared, do not mutate."""
    return json.loads((REFERENCE / name).read_text())


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def plan_walk(rng: random.Random, work: Path) -> list:
    config = load_reference("walk.json")["config"]
    out = work / "walk_out"
    seeds = rng.sample(WALK_MASTER_SEEDS, len(WALK_MASTER_SEEDS))
    rounds = []
    for m in seeds:
        cfg = _write_json(work / f"walk_{m}.json", {**config, "master_seed": m})
        argv = ["walk", "run", "--config", cfg, "--out", out, "--threads", "1"]
        outputs = [out / "report.json", out / "series.csv", out / "manifest.json"]
        rounds.append([_call(argv, WALK_TRIALS, {"kind": "walk", "master_seed": m}, outputs)])
    return rounds


def plan_tower(rng: random.Random, work: Path) -> list:
    ref = load_reference("tower.json")

    def scan(name, binf, index=None):
        out = work / f"scan_{name}.csv"
        argv = ["torsion", "scan", "--binf", binf, "--qmax", TOWER_QMAX[name], "--out", out]
        expect = {"kind": "tower", "presentation": name, "index": index}
        return _call(argv, TOWER_QMAX[name], expect, [out, work / "manifest.json"])

    fixed = {
        name: _write_json(work / f"binf_{name}.json", ref[name]["binf"])
        for name in ("lehmer", "degenerate")
    }
    rounds = []
    for i in rng.sample(range(len(ref["blocks"])), TOWER_ROUNDS):
        block = _write_json(work / f"binf_block_{i}.json", ref["blocks"][i]["binf"])
        calls = [scan("lehmer", fixed["lehmer"]), scan("block", block, i),
                 scan("degenerate", fixed["degenerate"])]
        rng.shuffle(calls)
        rounds.append(calls)
    return rounds


def plan_mahler_walkdet(rng: random.Random, work: Path) -> list:
    groups = load_reference("mahler_walkdet.json")["groups"]
    orders = [rng.sample(range(len(g)), len(g)) for g in groups]
    rounds = []
    for r in range(min(len(o) for o in orders)):
        calls = []
        for g, order in enumerate(orders):
            i = order[r]
            path = _write_json(work / f"walkdet_{g}_{i}.json", groups[g][i]["poly"])
            calls.append(_call(["mahler", "eval", "--poly", path], 1,
                               {"kind": "walkdet", "group": g, "index": i}))
        rng.shuffle(calls)
        rounds.append(calls)
    return rounds


# -- mahler_cyclotomic inputs ------------------------------------------------


def _pick_indices(rng, budget, max_index, min_total=0, repeats=False, allowed=None):
    """Random Phi indices (log-uniform up to max_index) of total degree at
    most budget and at least min_total."""
    for _ in range(10000):
        picked: dict[int, int] = {}
        total = 0
        while True:
            m = int(round(max_index ** rng.random()))
            phi = algebra.totient(m)
            e = rng.randint(1, 3) if repeats else 1
            if total + e * phi > budget:
                break
            if allowed is None or allowed(m):
                picked[m] = picked.get(m, 0) + e
                total += e * phi
        if picked and total >= min_total:
            return picked
    raise RuntimeError("could not meet the degree window")


def _in_fill(m: int) -> bool:
    return m <= FILL_INDEX and algebra.totient(m) <= FILL_DEGREE


def _cyclo_indices(rng, kind: str, first: bool = False) -> dict[int, int]:
    if kind == "edge":  # one large index; the scan reaches it with phi(m) left
        lo, hi = EDGE_INDICES
        # phi(m) + 10 <= FILL_DEGREE leaves room for a perturbing factor
        m = FILL_INDEX if first else rng.choice(
            [m for m in range(lo, hi + 1) if algebra.totient(m) <= FILL_DEGREE - 10])
        idx = {} if first else _pick_indices(rng, 40, 30)
        idx[m] = idx.get(m, 0) + 1
        return idx
    # narrow degree windows keep the cost of a round nearly seed-independent
    if kind == "heavy":  # degree 940..990 from indices <= 481
        return _pick_indices(rng, 990, HEAVY_MAX_INDEX, min_total=940)
    if kind == "mixed":  # indices up to 1050 inside F, degree 150..230
        return _pick_indices(rng, FILL_DEGREE - 10, FILL_INDEX, min_total=150,
                             allowed=_in_fill)
    if kind == "repeated":  # small indices with multiplicity, degree 200..300
        return _pick_indices(rng, 300, 40, min_total=200, repeats=True)
    if kind == "beyond_cache":
        idx = _pick_indices(rng, 60, 30)
        idx[rng.choice(BEYOND_CACHE)] = 1
        return idx
    if kind == "beyond_degree":
        return _pick_indices(rng, 1290, 2000, min_total=1001)
    raise ValueError(kind)


def _cyclo_call(rng, work: Path, name: str, kind: str, perturbed: bool, first=False):
    dense = algebra.cyclotomic_product(_cyclo_indices(rng, kind, first))
    if perturbed:
        factor = rng.choice(SMALL_MEASURE)
        dense = algebra.mul(dense, algebra.honest(factor))
    sign = rng.choice((1, -1))
    poly = algebra.laurent_from_dense([sign * c for c in dense], lo=rng.randint(-8, 8))
    path = _write_json(work / f"{name}.json", algebra.laurent_to_json(poly))
    expect = {"kind": "cyclotomic", "class": kind, "perturbed": perturbed}
    return _call(["mahler", "kronecker", "--poly", path], 1, expect)


def _cyclo_rounds(rng, work: Path, kinds, rounds: int) -> list:
    """One input of each kind per round, half of them perturbed."""
    out = []
    for r in range(rounds):
        perturbed = rng.sample([False, True] * (len(kinds) // 2), len(kinds))
        calls = [_cyclo_call(rng, work, f"cyclo_{r}_{j}", kind, p)
                 for j, (kind, p) in enumerate(zip(kinds, perturbed))]
        rng.shuffle(calls)
        out.append(calls)
    return out


def plan_mahler_cyclotomic(rng: random.Random, work: Path) -> list:
    rounds = _cyclo_rounds(rng, work, ("edge", "heavy", "mixed", "repeated"), CYCLO_ROUNDS)
    rounds[0].insert(0, _cyclo_call(rng, work, "cyclo_fill", "edge", False, first=True))
    return rounds


def plan_mahler_domain(rng: random.Random, work: Path) -> list:
    """Inputs the seed commit cannot decide: not a gated workload."""
    return _cyclo_rounds(rng, work, ("beyond_cache", "beyond_degree"), CYCLO_ROUNDS)


PLANNERS = {
    "walk": plan_walk,
    "tower": plan_tower,
    "mahler_walkdet": plan_mahler_walkdet,
    "mahler_cyclotomic": plan_mahler_cyclotomic,
    "mahler_domain": plan_mahler_domain,
}


def make_plan(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs of one run under `work` and return its plan."""
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    rounds = PLANNERS[workload](rng, work)
    inputs = sorted({a for rnd in rounds for c in rnd for a in c["argv"]
                     if a.endswith(".json") and a.startswith(str(work))})
    return {"workload": workload, "seed": seed, "rounds": rounds, "inputs": inputs}
