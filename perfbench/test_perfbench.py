"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q

The generator is deterministic in its seed, every checker rejects a
corrupted output, and tracing changes no output.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import algebra  # noqa: E402
import calib  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- independent algebra -------------------------------------------------


def test_moebius_cyclotomic_matches_definition():
    # t^n - 1 = prod_{d | n} Phi_d
    for n in (1, 2, 12, 30, 105, 2010):
        prod = algebra.cyclotomic_product({d: 1 for d in range(1, n + 1) if n % d == 0})
        assert prod == [-1] + [0] * (n - 1) + [1]
        assert len(algebra.cyclotomic(n)) - 1 == algebra.totient(n)


def test_resultant_oracle_known_values():
    # |Res(t - 2, t^q - 1)| = 2^q - 1; Lehmer's polynomial has no root of unity
    assert [algebra.cover_torsion_oracle({1: 1, 0: -2}, q) for q in (1, 5, 9)] == [1, 31, 511]
    assert algebra.cover_torsion_oracle(workloads.DEGENERATE, 4) == 0
    assert algebra.cover_torsion_oracle(workloads.LEHMER, 7) != 0


def test_small_measure_factors_are_not_cyclotomic():
    np = pytest.importorskip("numpy")
    for f in workloads.SMALL_MEASURE:
        roots = np.roots(algebra.honest(f)[::-1])
        assert max(abs(roots)) > 1.1


def test_calibration_scales_to_reference_seconds():
    cal = calib.Calibration()
    cal.run(0.0)
    assert cal.units == 1 and cal.seconds > 0
    assert calib.to_reference(2.0, int(calib.REFERENCE_RATE), 1.0) == 2.0
    assert calib.to_reference(2.0, int(calib.REFERENCE_RATE), 2.0) == 1.0


# -- generator -----------------------------------------------------------


def _portable(plan: dict, work: Path) -> str:
    """The plan and its input files, with the work directory stripped."""
    text = json.dumps(plan["rounds"]).replace(str(work), "<work>")
    files = {Path(p).name: Path(p).read_text() for p in plan["inputs"]}
    return text + json.dumps(files, sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_in_its_seed(tmp_path, workload):
    a = workloads.make_plan(workload, 7, tmp_path / "a")
    b = workloads.make_plan(workload, 7, tmp_path / "b")
    c = workloads.make_plan(workload, 8, tmp_path / "c")
    assert _portable(a, tmp_path / "a") == _portable(b, tmp_path / "b")
    assert _portable(a, tmp_path / "a") != _portable(c, tmp_path / "c")


def test_cyclotomic_plan_keeps_the_mix_and_the_fill(tmp_path):
    plan = workloads.make_plan("mahler_cyclotomic", 3, tmp_path)
    first = plan["rounds"][0][0]
    poly = algebra.laurent_from_json(json.loads(Path(first["argv"][-1]).read_text()))
    assert max(poly) - min(poly) == workloads.FILL_DEGREE
    for rnd in plan["rounds"]:
        kinds = [(c["expect"]["class"], c["expect"]["perturbed"]) for c in rnd
                 if c is not first]
        assert sum(p for _, p in kinds) == 2
        assert sorted(k for k, _ in kinds) == ["edge", "heavy", "mixed", "repeated"]


# -- checkers reject corrupted output ---------------------------------------


def _call(plan, kind):
    return next(c for rnd in plan["rounds"] for c in rnd if c["expect"]["kind"] == kind)


def test_walk_check_rejects_corruption(tmp_path):
    call = _call(workloads.make_plan("walk", 1, tmp_path), "walk")
    ref = workloads.load_reference("walk.json")["reports"][str(call["expect"]["master_seed"])]
    stdout = json.dumps({"n_trials": call["items"]})
    assert checks.walk(call, stdout, {"report.json": json.dumps(ref)})[1] == 0
    bad = copy.deepcopy(ref)
    bins = bad["constraint_bins"]["64"]
    key = next(iter(bins))
    bins[key] += 1
    assert checks.walk(call, stdout, {"report.json": json.dumps(bad)})[0] == 0
    bad = copy.deepcopy(ref)
    bad["lyapunov_hat"]["3"] *= 1 + 1e-6
    assert checks.walk(call, stdout, {"report.json": json.dumps(bad)})[0] == 0
    assert checks.walk(call, stdout, {})[0] == 0


def _tower_output(ref, flip_q=None):
    buf = io.StringIO()
    buf.write("q,torsion_order,betti,log_torsion_over_q\r\n")
    for q, order, betti, lg in ref["rows"]:
        if q == flip_q:
            order = str(int(order) + 1)
        buf.write(f"{q},{order},{betti},{lg!r}\r\n")
    summary = dict(ref["summary"], out="x")
    return json.dumps(summary), buf.getvalue()


@pytest.mark.parametrize("name", ["lehmer", "degenerate", "block"])
def test_tower_check_rejects_a_flipped_torsion_digit(tmp_path, name):
    plan = workloads.make_plan("tower", 2, tmp_path)
    call = next(c for rnd in plan["rounds"] for c in rnd
                if c["expect"]["presentation"] == name)
    tower = workloads.load_reference("tower.json")
    ref = tower["blocks"][call["expect"]["index"]] if name == "block" else tower[name]
    csv_name = Path(call["outputs"][0]).name
    stdout, text = _tower_output(ref)
    assert checks.tower(call, stdout, {csv_name: text}, {}) == (call["items"], 0, "")
    for q in (3, 50):  # one inside the oracle range, one beyond it
        stdout, text = _tower_output(ref, flip_q=q)
        ok, failed, _ = checks.tower(call, stdout, {csv_name: text}, {})
        assert (ok, failed) == (call["items"] - 1, 1)


def test_tower_oracle_catches_a_wrong_reference(tmp_path):
    plan = workloads.make_plan("tower", 2, tmp_path)
    call = next(c for rnd in plan["rounds"] for c in rnd
                if c["expect"]["presentation"] == "lehmer")
    ref = workloads.load_reference("tower.json")["lehmer"]
    stdout, text = _tower_output(ref)
    oracle = {}
    key = json.dumps(ref["binf"], sort_keys=True)
    oracle[key, 5] = algebra.cover_torsion_oracle(workloads.LEHMER, 5) + 1
    ok, failed, note = checks.tower(call, stdout, {Path(call["outputs"][0]).name: text}, oracle)
    assert failed == 1 and "q=[5]" in note


def test_walkdet_check_rejects_corruption(tmp_path):
    call = _call(workloads.make_plan("mahler_walkdet", 4, tmp_path), "walkdet")
    ref = workloads.load_reference("mahler_walkdet.json")["groups"][call["expect"]["group"]][
        call["expect"]["index"]]
    good = {k: ref[k] for k in ("log_measure", "leading_coeff", "method", "n_roots")}
    assert checks.walkdet(call, json.dumps(good), {}) == (1, 0, "")
    for key, value in (("log_measure", ref["log_measure"] + 1e-9),
                       ("n_roots", ref["n_roots"] - 1),
                       ("method", "kronecker_exact_zero")):
        assert checks.walkdet(call, json.dumps(dict(good, **{key: value})), {})[0] == 0


def test_cyclotomic_check_rejects_a_wrong_index(tmp_path):
    indices = {12: 1, 7: 2, 1: 1}
    dense = algebra.cyclotomic_product(indices)
    poly = algebra.laurent_from_dense([-c for c in dense], lo=3)
    text = json.dumps(algebra.laurent_to_json(poly))
    pure = {"expect": {"kind": "cyclotomic", "class": "mixed", "perturbed": False}, "items": 1}
    cert = {"mahler_zero": True, "k_exponent": 3, "sign": -1,
            "cyclotomic_indices": {str(m): e for m, e in indices.items()}}
    assert checks.cyclotomic(pure, json.dumps(cert), {}, text) == (1, 0, "")
    for bad in (
        dict(cert, cyclotomic_indices={"10": 1, "7": 2, "1": 1}),  # phi(10) = phi(12)
        dict(cert, sign=1),
        dict(cert, k_exponent=2),
        {"mahler_zero": False},
    ):
        assert checks.cyclotomic(pure, json.dumps(bad), {}, text)[0] == 0
    perturbed = dict(pure, expect=dict(pure["expect"], perturbed=True))
    assert checks.cyclotomic(perturbed, json.dumps({"mahler_zero": False}), {}, text)[1] == 0
    assert checks.cyclotomic(perturbed, json.dumps(cert), {}, text)[0] == 0


def test_nonzero_exit_fails_every_item(tmp_path):
    call = _call(workloads.make_plan("tower", 2, tmp_path), "tower")
    assert checks.check(call, 2, "", {}, {})[:2] == (0, call["items"])


# -- tracing -----------------------------------------------------------------


def _dispatch(argv):
    from torsionlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.dispatch(argv)
    return rc, out.getvalue()


def test_tracing_changes_no_output_and_restores_the_library(tmp_path):
    from torsionlab import cli, homology, mahler, ringcore, walks

    poly = tmp_path / "p.json"
    poly.write_text(json.dumps(algebra.laurent_to_json(workloads.LEHMER)))
    binf = tmp_path / "b.json"
    binf.write_text(json.dumps({"rows": [[algebra.laurent_to_json(workloads.LEHMER)]]}))
    argvs = [
        ["mahler", "eval", "--poly", str(poly)],
        ["mahler", "kronecker", "--poly", str(poly)],
        ["torsion", "scan", "--binf", str(binf), "--qmax", "90", "--out", str(tmp_path / "s.csv")],
    ]
    originals = (cli.dispatch, walks.block_det, homology.mahler_measure,
                 ringcore.LaurentPoly.__mul__, mahler.mp, walks.np)
    plain = [_dispatch(a) for a in argvs]
    tracer = spans.Tracer()
    inst = spans.install(tracer)
    try:
        traced = [_dispatch(a) for a in argvs]
    finally:
        inst.restore()
    assert traced == plain
    assert originals == (cli.dispatch, walks.block_det, homology.mahler_measure,
                         ringcore.LaurentPoly.__mul__, mahler.mp, walks.np)
    m = tracer.metrics()
    assert m["mahler.polyroots.calls"] >= 2 and m["mahler.polyroots.max_dps"] > 15
    assert m["homology.cover_homology.calls"] == 90
    assert m["homology.cover_homology.circulant_det"] == 90 - 80  # h*q > 80
    assert m["homology.circulant_det.nonzero_ratio"] == 1.0
    assert m["mahler.kronecker_zero_test.rejected"] >= 2
    for name in spans.SPANS:
        assert m[f"{name}.self_s"] <= m[f"{name}.busy_s"] + 1e-9
    # the top-level dispatch spans cover every other span
    top = sum(m[f"{s}.self_s"] for s in spans.SPANS)
    assert top == pytest.approx(m["cli.dispatch.busy_s"], rel=1e-6)


def test_traced_worker_replays_identical_outputs():
    out = run.measure_traced("walk", 11, 0.01)
    assert out["failed"] == 0, out["notes"]
    assert out["metrics"]["hermitian.matmul.calls"]["value"] > 0
    assert out["metrics"]["walks.embedded_qr.calls"]["value"] == (
        workloads.WALK_TRIALS * workloads.WALK_STEPS)
    assert out["metrics"]["trace.overhead"]["value"] > 1.0
