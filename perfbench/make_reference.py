"""Regenerate the input pools and reference outputs under perfbench/reference.

Run from the repository root at the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py [walk|tower|mahler_walkdet ...]

The pools hold inputs that need the library to build (walk configurations,
presentation blocks of form-preserving words, walk determinants) together
with the outputs the CLI printed for them.  `run.py` only selects from these
pools by seed; `mahler_cyclotomic` needs no pool because its inputs and its
check are built by `algebra.py` alone.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path

from torsionlab.cli import dispatch
from torsionlab.hermitian import (
    FormMatrix,
    SurfaceModel,
    block_det,
    bottom_left_block,
    transvection,
)
from torsionlab.mahler import kronecker_zero_test
from torsionlab.ringcore import LaurentPoly
from torsionlab.walks import bundled_generators

import algebra
import workloads

HERE = Path(__file__).resolve().parent
REF = HERE / "reference"
TMP = HERE / ".work" / f"make_reference-{os.getpid()}"


def _cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = dispatch(argv)
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}")
    return json.loads(buf.getvalue())


def _write(name: str, obj) -> None:
    path = REF / name
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n")
    print(f"wrote {path} ({path.stat().st_size} bytes)")


def make_walk() -> None:
    gens, probs = bundled_generators(3)
    base = {
        "generators": [m.to_json_obj() for m in gens],
        "probabilities": [str(p) for p in probs],
        "g": 3,
        "n_steps": workloads.WALK_STEPS,
        "n_trials": workloads.WALK_TRIALS,
        "q_list": [3],
    }
    reports = {}
    for master_seed in workloads.WALK_MASTER_SEEDS:
        cfg = TMP / "walk.json"
        cfg.write_text(json.dumps({**base, "master_seed": master_seed}))
        out = TMP / "walk_out"
        _cli(["walk", "run", "--config", str(cfg), "--out", str(out), "--threads", "1"])
        reports[str(master_seed)] = json.loads((out / "report.json").read_text())
    _write("walk.json", {"config": base, "reports": reports})


def _scan(rows_obj, qmax: int) -> dict:
    binf = TMP / "binf.json"
    binf.write_text(json.dumps(rows_obj))
    out = TMP / "scan.csv"
    summary = _cli(
        ["torsion", "scan", "--binf", str(binf), "--qmax", str(qmax), "--out", str(out)]
    )
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {
        "binf": rows_obj,
        "qmax": qmax,
        "summary": summary | {"out": None},
        "rows": [[int(q), order, int(betti), float(lg)] for q, order, betti, lg in rows],
    }


def _short_word_block(rng: random.Random):
    """Bottom-left block of a short word in form-preserving transvections."""
    model = SurfaceModel(3)
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    w = FormMatrix.identity(model)
    for _ in range(rng.randint(3, 5)):
        v = [zero] * 4
        kind = rng.randrange(3)
        k = rng.randint(-1, 1)
        if kind == 0:  # a_i + t^k b_j with i != j is isotropic
            i = rng.randrange(2)
            v[i], v[2 + (1 - i)] = one, LaurentPoly.t(k)
        elif kind == 1:  # inside the a-Lagrangian
            v[0], v[1] = one, LaurentPoly.t(k)
        else:  # inside the b-Lagrangian
            v[2], v[3] = one, LaurentPoly.t(k)
        r = rng.choice([one, -one, LaurentPoly({1: 1, -1: 1})])
        w = transvection(model, v, r) @ w
    return bottom_left_block(w)


def make_tower() -> None:
    lehmer = [[algebra.laurent_to_json(workloads.LEHMER)]]
    degenerate = [[algebra.laurent_to_json(workloads.DEGENERATE)]]
    blocks = []
    rng = random.Random(20160702)
    while len(blocks) < workloads.TOWER_BLOCK_POOL:
        B = _short_word_block(rng)
        det = block_det(B)
        if det.is_zero():
            continue
        l1 = sum(abs(c) for c in det.coeffs.values())
        if not (8 <= l1 <= 40 and det.degree_span() <= 10):
            continue
        rows = {"rows": [[e.to_json_obj() for e in row] for row in B]}
        scan = _scan(rows, workloads.TOWER_QMAX["block"])
        # every cover nondegenerate, so the circulant path decides large q
        if any(betti for _, _, betti, _ in scan["rows"]):
            continue
        blocks.append(scan)
        print(f"block {len(blocks)}: det {det}")
    _write(
        "tower.json",
        {
            "lehmer": _scan({"rows": lehmer}, workloads.TOWER_QMAX["lehmer"]),
            "degenerate": _scan({"rows": degenerate}, workloads.TOWER_QMAX["degenerate"]),
            "blocks": blocks,
        },
    )


def make_mahler_walkdet() -> None:
    """Walk determinants grouped by the time `mahler eval` took on them
    here, so a round (one per group) costs about the same for every seed."""
    gens, _ = bundled_generators(3)
    lo, hi = workloads.WALKDET_DEGREES
    pool, seen = [], set()
    rng = random.Random(20160703)
    while len(pool) < workloads.WALKDET_POOL:
        n = rng.choice(workloads.WALKDET_LENGTHS)
        w = FormMatrix.identity(SurfaceModel(3))
        for _ in range(n):
            w = gens[rng.randrange(len(gens))] @ w
        det = block_det(bottom_left_block(w))
        if det.is_zero() or det in seen or kronecker_zero_test(det) is not None:
            continue
        deg = det.degree_span()
        if not lo <= deg <= hi:
            continue
        seen.add(det)
        path = TMP / "poly.json"
        path.write_text(det.dumps())
        t0 = time.perf_counter()
        out = _cli(["mahler", "eval", "--poly", str(path)])
        seconds = time.perf_counter() - t0
        pool.append({"poly": det.to_json_obj(), "walk_length": n, "degree": deg,
                     "ref_seconds": round(seconds, 3)} | out)
        print(f"walk det n={n} degree={deg} {seconds:.2f} s")
    pool.sort(key=lambda p: p["ref_seconds"])
    size = workloads.WALKDET_POOL // workloads.WALKDET_GROUPS
    groups = [pool[i:i + size] for i in range(0, len(pool), size)]
    _write("mahler_walkdet.json", {"groups": groups})


MAKERS = {"walk": make_walk, "tower": make_tower, "mahler_walkdet": make_mahler_walkdet}


def main(names: list[str]) -> None:
    REF.mkdir(exist_ok=True)
    TMP.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or list(MAKERS):
            MAKERS[name]()
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
