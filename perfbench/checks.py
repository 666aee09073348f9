"""Output checks, one per workload.

Each check takes a call from the plan and what the CLI produced (exit
code, stdout, the output files) and returns (items correct, items failed,
note).  A non-zero exit or an exception fails every item of the call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import algebra
import workloads

WALK_FLOAT_RTOL = 1e-9  # report floats come from LAPACK QR; see walk()
TOWER_LOG_RTOL = 1e-12
MAHLER_ABS_TOL = 1e-10


def _json_object(text: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    return obj


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(a, b, rtol: float, atol: float) -> bool:
    return _number(a) and _number(b) and math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def _same(a, b, rtol: float) -> bool:
    """Structural equality; floats within rtol, everything else exact."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return _close(a, b, rtol, 1e-12)
    return type(a) is type(b) and a == b


def walk(call, stdout: str, files: dict) -> tuple[int, int, str]:
    """report.json equals the seed commit's report for that master seed.

    Counts, bins, degrees and schedules must match exactly.  The Lyapunov
    and hyperplane floats come from numpy's QR, whose last bits depend on
    the BLAS kernel chosen for the CPU, so they match within 1e-9.
    """
    n = call["items"]
    m = call["expect"]["master_seed"]
    ref = workloads.load_reference("walk.json")["reports"][str(m)]
    try:
        report = _json_object(files["report.json"])
        summary = _json_object(stdout)
    except (KeyError, ValueError) as exc:
        return 0, n, f"walk seed {m}: unreadable output ({exc})"
    if summary.get("n_trials") != n or not _same(report, ref, WALK_FLOAT_RTOL):
        return 0, n, f"walk seed {m}: report differs from reference"
    return n, 0, ""


def tower(call, stdout: str, files: dict, oracle: dict) -> tuple[int, int, str]:
    """Torsion orders and Betti numbers equal the seed-commit reference
    for every q; up to ORACLE_QMAX they also equal |Res(Delta, t^q - 1)|."""
    exp = call["expect"]
    ref_all = workloads.load_reference("tower.json")
    name = exp["presentation"]
    ref = ref_all["blocks"][exp["index"]] if name == "block" else ref_all[name]
    n = call["items"]
    try:
        summary = _json_object(stdout)
        rows = list(csv.reader(io.StringIO(files[os.path.basename(call["outputs"][0])])))
    except (KeyError, ValueError) as exc:
        return 0, n, f"tower {name}: unreadable output ({exc})"
    want = ref["summary"]
    mahler_ok = (summary.get("mahler") is None if want["mahler"] is None
                 else _close(summary.get("mahler"), want["mahler"], 0.0, MAHLER_ABS_TOL))
    if (summary.get("rows") != n or summary.get("degenerate") != want["degenerate"]
            or not mahler_ok):
        return 0, n, f"tower {name}: summary differs from reference"
    if rows[:1] != [["q", "torsion_order", "betti", "log_torsion_over_q"]]:
        return 0, n, f"tower {name}: bad CSV header"
    by_q = {}
    for row in rows[1:]:
        try:
            by_q[int(row[0])] = (row[1], int(row[2]), float(row[3]))
        except (IndexError, ValueError):
            continue
    ok = 0
    bad = []
    delta_key = json.dumps(ref["binf"], sort_keys=True)
    for q, order, betti, lg in ref["rows"]:
        got = by_q.get(q)
        good = (got is not None and got[0] == order and got[1] == betti
                and math.isclose(got[2], lg, rel_tol=TOWER_LOG_RTOL, abs_tol=1e-15))
        if good and q <= workloads.ORACLE_QMAX:
            res = oracle_value(oracle, delta_key, ref["binf"], q)
            good = (betti == 0 and int(order) == res) if res else betti > 0
        if good:
            ok += 1
        else:
            bad.append(q)
    return ok, n - ok, f"tower {name}: wrong at q={bad[:5]}" if bad else ""


def oracle_value(cache: dict, key: str, binf, q: int) -> int:
    if (key, q) not in cache:
        rows = [[algebra.laurent_from_json(e) for e in row] for row in binf["rows"]]
        cache[key, q] = algebra.cover_torsion_oracle(algebra.matrix_det_laurent(rows), q)
    return cache[key, q]


def walkdet(call, stdout: str, files: dict) -> tuple[int, int, str]:
    """log_measure within 1e-10 of the reference; one root per degree."""
    exp = call["expect"]
    ref = workloads.load_reference("mahler_walkdet.json")["groups"][exp["group"]][exp["index"]]
    try:
        out = _json_object(stdout)
    except ValueError as exc:
        return 0, 1, f"walkdet {exp}: unreadable output ({exc})"
    if (out.get("method") != "root_product" or out.get("n_roots") != ref["degree"]
            or out.get("leading_coeff") != ref["leading_coeff"]
            or not _close(out.get("log_measure"), ref["log_measure"], 0.0, MAHLER_ABS_TOL)):
        return 0, 1, f"walkdet {exp}: {out} differs from reference"
    return 1, 0, ""


def cyclotomic(call, stdout: str, files: dict, poly_text: str) -> tuple[int, int, str]:
    """Perturbed inputs must not be certified; every other input must be,
    and sign * t^k * prod Phi_m^e, multiplied out by algebra.cyclotomic,
    must equal it exactly."""
    exp = call["expect"]
    try:
        out = _json_object(stdout)
    except ValueError as exc:
        return 0, 1, f"cyclotomic {exp['class']}: unreadable output ({exc})"
    if exp["perturbed"]:
        if out != {"mahler_zero": False}:
            return 0, 1, f"cyclotomic {exp['class']}: perturbed input certified"
        return 1, 0, ""
    if out.get("mahler_zero") is not True:
        return 0, 1, f"cyclotomic {exp['class']}: product of cyclotomics rejected"
    try:
        indices = {int(m): int(e) for m, e in out["cyclotomic_indices"].items()}
        sign, k = int(out["sign"]), int(out["k_exponent"])
    except (KeyError, ValueError, AttributeError) as exc:
        return 0, 1, f"cyclotomic {exp['class']}: malformed certificate ({exc})"
    poly = algebra.laurent_from_json(json.loads(poly_text))
    degree = max(poly) - min(poly)
    # phi(m) >= sqrt(m / 2), so no factor of this degree has a larger index
    if sign not in (1, -1) or any(
        not 1 <= m <= 2 * degree * degree + 2 or e < 1 for m, e in indices.items()
    ):
        return 0, 1, f"cyclotomic {exp['class']}: malformed certificate"
    product = algebra.cyclotomic_product(indices)
    rebuilt = algebra.laurent_from_dense([sign * c for c in product], lo=k)
    if rebuilt != poly:
        return 0, 1, f"cyclotomic {exp['class']}: certificate does not multiply out"
    return 1, 0, ""


def check(call, rc, stdout: str, files: dict, state: dict) -> tuple[int, int, str]:
    """Dispatch on the call's kind; `state` holds per-run memo tables."""
    n = call["items"]
    kind = call["expect"]["kind"]
    if rc != 0:
        return 0, n, f"{kind}: exit code {rc}"
    if kind == "walk":
        return walk(call, stdout, files)
    if kind == "tower":
        return tower(call, stdout, files, state.setdefault("oracle", {}))
    if kind == "walkdet":
        return walkdet(call, stdout, files)
    if kind == "cyclotomic":
        path = call["argv"][-1]
        memo = state.setdefault("cyclotomic", {})
        if (path, stdout) not in memo:
            with open(path) as fh:
                memo[path, stdout] = cyclotomic(call, stdout, files, fh.read())
        return memo[path, stdout]
    raise ValueError(f"unknown kind {kind}")
