"""Command-line driver: dispatch, exit codes, plot data, manifests."""

import csv
import decimal
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torsionlab
from torsionlab.cli import dispatch, emit_plot_data
from torsionlab.hermitian import SurfaceModel, block_det, bottom_left_block, transvection
from torsionlab.homology import GrowthScanResult, growth_scan
from torsionlab.ringcore import LaurentPoly, cyclotomic
from torsionlab.walks import WalkConfig, bundled_generators, run_walk

LEHMER = LaurentPoly(
    {10: 1, 9: 1, 7: -1, 6: -1, 5: -1, 4: -1, 3: -1, 1: 1, 0: 1}
)


def run_cli(capsys, *argv):
    rc = dispatch(list(argv))
    out = capsys.readouterr().out
    return rc, out


# -- mahler subcommands ------------------------------------------------


def test_mahler_eval(tmp_path, capsys):
    f = tmp_path / "lehmer.json"
    f.write_text(LEHMER.dumps())
    rc, out = run_cli(capsys, "mahler", "eval", "--poly", str(f))
    assert rc == 0
    obj = json.loads(out)
    assert obj["log_measure"] == pytest.approx(0.1623576, abs=1e-6)
    assert list(obj) == ["log_measure", "leading_coeff", "method", "n_roots", "dps", "residual"]
    assert obj["n_roots"] == 10 and obj["dps"] > 30 and 0 < obj["residual"] <= 1e-12


def test_mahler_kronecker(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(LaurentPoly({2: 1, 1: 1, 0: 1}).dumps())
    rc, out = run_cli(capsys, "mahler", "kronecker", "--poly", str(f))
    assert rc == 0
    obj = json.loads(out)
    assert obj["mahler_zero"] is True
    assert obj["cyclotomic_indices"] == {"3": 1}


def test_mahler_kalpha(capsys):
    rc, out = run_cli(capsys, "mahler", "kalpha", "--alpha", "1.0", "--mmax", "10")
    assert rc == 0
    assert json.loads(out)["K"] == [1, 2, 4, 6]


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_mahler_kalpha_rejects_alpha_that_is_not_finite(capsys, alpha):
    # NaN passed the alpha <= 0 check, and both it and inf came out as
    # NaN or Infinity, which is not JSON
    rc, out = run_cli(capsys, "mahler", "kalpha", "--alpha", alpha, "--mmax", "10")
    assert rc == 2 and out == ""


# -- rep subcommands ---------------------------------------------------


def test_rep_commands(tmp_path, capsys):
    gens, _ = bundled_generators(3)
    f = tmp_path / "m.json"
    f.write_text(gens[0].dumps())
    rc, out = run_cli(capsys, "rep", "check-form", str(f))
    assert rc == 0
    obj = json.loads(out)
    assert obj["form_preserved"] is True
    assert obj["torelli_like"] is True

    rc, out = run_cli(capsys, "rep", "block", str(f))
    assert rc == 0
    assert "det" in json.loads(out)

    rc, out = run_cli(capsys, "rep", "iota", str(f), "--q", "5")
    assert rc == 0
    obj = json.loads(out)
    assert len(obj["real"]) == 4
    rc, _ = run_cli(capsys, "rep", "iota", str(f), "--q", "6", "--root", "2")
    assert rc == 2  # non-primitive root is an input error


def test_rep_block_writes_det_past_the_int_str_limit(tmp_path, capsys):
    # transvections along b1 and b2 with r = c (t + 1/t - 2), c = 10^3000:
    # every input coefficient has 3001 digits, and B = diag(r, r), so
    # det B = c^2 (t^2 - 4t + 6 - 4/t + 1/t^2) has 6001-digit coefficients
    model = SurfaceModel(3)
    r = LaurentPoly({-1: 1, 0: -2, 1: 1}) * 10**3000
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    M = (transvection(model, [zero, zero, one, zero], r)
         @ transvection(model, [zero, zero, zero, one], r))
    f = tmp_path / "m.json"
    f.write_text(M.dumps())
    rc, out = run_cli(capsys, "rep", "block", str(f))
    assert rc == 0
    det = json.loads(out)["det"]
    zeros = "0" * 6000
    assert det == [[-2, "1" + zeros], [-1, "-4" + zeros], [0, "6" + zeros],
                   [1, "-4" + zeros], [2, "1" + zeros]]
    want = block_det(bottom_left_block(M))
    assert {k: int(decimal.Decimal(c)) for k, c in det} == want.coeffs


# -- torsion scan ------------------------------------------------------


def test_torsion_scan_row_count(tmp_path, capsys):
    f = tmp_path / "b.json"
    f.write_text(json.dumps({"rows": [[LaurentPoly({1: 1, 0: -2}).to_json_obj()]]}))
    out_csv = tmp_path / "scan.csv"
    rc, out = run_cli(
        capsys, "torsion", "scan", "--binf", str(f), "--qmax", "50",
        "--out", str(out_csv),
    )
    assert rc == 0
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == ["q", "torsion_order", "betti", "log_torsion_over_q"]
    assert len(rows) - 1 == 50
    # torsion orders travel as decimal strings
    q, torsion, betti, ratio = rows[-1]
    assert int(torsion) == 2**50 - 1
    assert float(ratio) == pytest.approx(math.log(2), abs=0.02)
    assert (tmp_path / "manifest.json").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert str(f) in manifest["input_digests"]


def test_torsion_scan_creates_the_directory_of_its_output(tmp_path, capsys):
    # the directory must exist before the scan runs, not only when the
    # manifest is written after the CSV
    f = tmp_path / "b.json"
    f.write_text(json.dumps({"rows": [[LaurentPoly({1: 1, 0: -2}).to_json_obj()]]}))
    out_csv = tmp_path / "new" / "deeper" / "s.csv"
    rc, _ = run_cli(capsys, "torsion", "scan", "--binf", str(f), "--qmax", "5", "--out", str(out_csv))
    assert rc == 0
    assert len(list(csv.reader(out_csv.open()))) == 6
    assert (out_csv.parent / "manifest.json").exists()


def test_torsion_scan_writes_orders_past_the_int_str_limit(tmp_path, capsys):
    # Res(t^q - 1, t - 10) = 10^q - 1 has q digits, beyond the 4300-digit
    # limit of str(); no interpreter setting may outlive the call
    limit = sys.get_int_max_str_digits()
    f = tmp_path / "b.json"
    f.write_text(json.dumps({"rows": [[LaurentPoly({1: 1, 0: -10}).to_json_obj()]]}))
    out_csv = tmp_path / "scan.csv"
    rc, out = run_cli(
        capsys, "torsion", "scan", "--binf", str(f), "--qmax", "4400", "--stride", "4399",
        "--out", str(out_csv),
    )
    assert rc == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert [(r["q"], r["betti"]) for r in rows] == [("1", "0"), ("4400", "0")]
    assert rows[0]["torsion_order"] == "9"
    assert rows[1]["torsion_order"] == "9" * 4400  # 10^4400 - 1
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("rows", [
    [[[[1, 1]], [[0, 1]]], [[[0, 1]]]],  # ragged: [t, 1] over [1]
    [[[[1, 1]], [[0, 1]]]],  # 1 x 2: [t, 1]
])
def test_torsion_scan_rejects_non_square_blocks(tmp_path, capsys, rows):
    f = tmp_path / "b.json"
    f.write_text(json.dumps({"rows": rows}))
    out_csv = tmp_path / "scan.csv"
    rc = dispatch(["torsion", "scan", "--binf", str(f), "--qmax", "5", "--out", str(out_csv)])
    assert rc == 2
    assert "square" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("option, value", [("--stride", "0"), ("--stride", "-1"),
                                           ("--qmax", "0"), ("--qmax", "-5")])
def test_torsion_scan_names_the_option_below_one(tmp_path, capsys, option, value):
    # a stride of 0 printed range()'s own message, and a stride of -1 or a
    # qmax of 0 an empty q_range, which names neither option
    f = tmp_path / "b.json"
    f.write_text(json.dumps({"rows": [[LaurentPoly({1: 1, 0: -2}).to_json_obj()]]}))
    out_csv = tmp_path / "scan.csv"
    argv = {"--qmax": "5", "--stride": "1", option: value}
    rc = dispatch(["torsion", "scan", "--binf", str(f), *(x for kv in argv.items() for x in kv),
                   "--out", str(out_csv)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {option} must be at least 1, got {value}\n"
    assert not out_csv.exists()


MOD2 = bundled_generators(3)[0][0].reduce_mod_q(2).to_json_obj()


@pytest.mark.parametrize("argv, obj", [
    (["heegaard", "--matrix"], [[1.5, 0], [0, 1]]),
    (["heegaard", "--matrix"], [1, 2]),
    (["heegaard", "--matrix"], {"rows": 5}),
    (["heegaard", "--matrix"], [[None, 0], [0, 1]]),
    (["mahler", "eval", "--poly"], {"poly": [[0, 1.5], [1, 1]]}),
    (["torsion", "scan", "--qmax", "5", "--binf"], {"rows": [[[[0.5, 1], [1, 1]]]]}),
    (["torsion", "scan", "--qmax", "5", "--binf"], {"rows": [[5]]}),
    (["torsion", "scan", "--qmax", "5", "--binf"], {"g": 3, "ring": "laurent", "rows": 5}),
    # a bundled generator mod 2 with a row, or an entry, as the string "10"
    (["rep", "check-form"], {**MOD2, "rows": ["10", *MOD2["rows"][1:]]}),
    (["rep", "check-form"], {**MOD2, "rows": [["10", *MOD2["rows"][0][1:]], *MOD2["rows"][1:]]}),
    # a list where a matrix or a walk config belongs
    (["rep", "check-form"], [1, 2]),
    (["rep", "block"], [1, 2]),
    (["rep", "iota", "--q", "3"], [1, 2]),
    (["walk", "run", "--threads", "1", "--config"], [1, 2]),
    (["walk", "probe", "--config"], [1, 2]),
    # polynomials: a float, bool or null exponent or coefficient, a string
    # int() refuses, entries that are not [exponent, coeff] pairs, and a
    # repeated exponent
    (["mahler", "kronecker", "--poly"], [[0, 1], [1, 2.0]]),
    (["mahler", "kronecker", "--poly"], [[0.0, 1], [1, 1]]),
    (["mahler", "kronecker", "--poly"], [[0, True], [1, 1]]),
    (["mahler", "kronecker", "--poly"], [[False, 1], [1, 1]]),
    (["mahler", "kronecker", "--poly"], [[0, None], [1, 1]]),
    (["mahler", "kronecker", "--poly"], [[None, 1], [1, 1]]),
    (["mahler", "kronecker", "--poly"], {"poly": [[0, "1.5"], [1, 1]]}),
    (["mahler", "kronecker", "--poly"], [["1.5", 1], [1, 1]]),
    (["mahler", "kronecker", "--poly"], [[0, 1, 2], [1, 1]]),
    (["mahler", "kronecker", "--poly"], [[0], [1, 1]]),
    (["mahler", "kronecker", "--poly"], [5, [1, 1]]),
    (["mahler", "kronecker", "--poly"], {"poly": 5}),
    (["mahler", "kronecker", "--poly"], [[1, 1], [0, 1], [1, "2"]]),
])
def test_non_integer_and_malformed_inputs_exit_2(tmp_path, capsys, argv, obj):
    # floats, null and misshapen rows are bad input: never truncated, never
    # an internal error
    f = tmp_path / "in.json"
    f.write_text(json.dumps(obj))
    out_csv = tmp_path / "scan.csv"
    extra = ["--out", str(out_csv)] if argv[:2] in (["torsion", "scan"], ["walk", "run"]) else []
    rc = dispatch([*argv, str(f), *extra])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error:")
    assert not out_csv.exists()


# -- heegaard ----------------------------------------------------------


def test_heegaard_command(tmp_path, capsys):
    f = tmp_path / "phi.json"
    f.write_text(json.dumps([[1, 0], [2, 1]]))
    rc, out = run_cli(capsys, "heegaard", "--matrix", str(f))
    assert rc == 0
    obj = json.loads(out)
    assert obj["betti"] == 0
    assert obj["torsion"] == "2"


def test_heegaard_writes_torsion_past_the_int_str_limit(tmp_path, capsys):
    # a -> a + 10^3999 b on both handles: torsion and det B are 10^7998
    n = 10**3999
    P = [[1, 0, 0, 0], [0, 1, 0, 0], [n, 0, 1, 0], [0, n, 0, 1]]
    f = tmp_path / "phi.json"
    f.write_text(json.dumps(P))
    rc, out = run_cli(capsys, "heegaard", "--matrix", str(f))
    assert rc == 0
    obj = json.loads(out)
    big = "1" + "0" * 7998
    assert (obj["betti"], obj["torsion"], obj["det_bottom_left"]) == (0, big, big)
    assert obj["factors"][-2:] == ["1" + "0" * 3999] * 2 and obj["det_agrees"] is True


# -- walk --------------------------------------------------------------


WALK_GENS = [g.to_json_obj() for g in bundled_generators(3)[0]]
WALK_PROBS = [str(p) for p in bundled_generators(3)[1]]


def walk_config_file(tmp_path, **kw):
    cfg = {
        "g": 3,
        "generators": WALK_GENS,
        "probabilities": WALK_PROBS,
        "n_steps": 8,
        "n_trials": 8,
        "master_seed": 3,
        "q_list": [3],
    }
    cfg.update(kw)
    f = tmp_path / "walk.json"
    f.write_text(json.dumps(cfg))
    return f


def test_walk_run_outputs(tmp_path, capsys):
    f = walk_config_file(tmp_path)
    out_dir = tmp_path / "out"
    rc, out = run_cli(
        capsys, "walk", "run", "--config", str(f), "--out", str(out_dir),
        "--threads", "1",
    )
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["n_trials"] == 8
    rows = list(csv.reader((out_dir / "series.csv").open()))
    assert rows[0] == ["series", "x", "y", "stderr"]
    series = {r[0] for r in rows[1:]}
    assert "frac_mahler_positive" in series
    assert "L_n_mean_q3" in series
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["master_seed"] == 3


@pytest.mark.parametrize("bad", [{"n_steps": 0}, {"n_steps": 1}, {"n_trials": 0}])
def test_walk_run_rejects_empty_walks(tmp_path, capsys, bad):
    f = walk_config_file(tmp_path, **bad)
    out_dir = tmp_path / "out"
    rc = dispatch(["walk", "run", "--config", str(f), "--out", str(out_dir), "--threads", "1"])
    assert rc == 2
    assert "internal error" not in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("bad", [
    {"n_steps": 8.5}, {"n_trials": 2.5}, {"master_seed": 1.5}, {"q_list": [3.5]},
    {"q_list": 3}, {"root_index": 1.5}, {"unit_twist_seed": 0.5}, {"g": 3.0},
    {"alpha": "x"}, {"alpha": True}, {"alpha": math.nan}, {"alpha": math.inf},
    {"generators": 5}, {"generators": [5, *WALK_GENS[1:]]},
    {"probabilities": [None, *WALK_PROBS[1:]]}, {"probabilities": [[1], *WALK_PROBS[1:]]},
    {"probabilities": ["1/0", *WALK_PROBS[1:]]},
])
def test_walk_run_rejects_non_integer_fields(tmp_path, capsys, bad):
    f = walk_config_file(tmp_path, **bad)
    out_dir = tmp_path / "out"
    rc = dispatch(["walk", "run", "--config", str(f), "--out", str(out_dir), "--threads", "1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_dir.exists()


def test_walk_run_rejects_non_primitive_root(tmp_path, capsys):
    # root_index 2 is not a primitive 4th root of unity
    f = walk_config_file(tmp_path, q_list=[3, 4], root_index=2)
    out_dir = tmp_path / "out"
    rc = dispatch(["walk", "run", "--config", str(f), "--out", str(out_dir), "--threads", "1"])
    assert rc == 2
    assert "not coprime" in capsys.readouterr().err
    assert not out_dir.exists()


def _walk_outputs(tmp_path, name, **kw):
    """report.json and series.csv of a walk run on its own config."""
    (tmp_path / name).mkdir()
    f = walk_config_file(tmp_path / name, **kw)
    out_dir = tmp_path / name / "out"
    rc = dispatch(["walk", "run", "--config", str(f), "--out", str(out_dir), "--threads", "1"])
    assert rc == 0, name
    return [(out_dir / n).read_bytes() for n in ("report.json", "series.csv")]


def test_walk_run_takes_twist_seeds_and_root_indices_of_any_size(tmp_path, capsys):
    # a twist seed past 2^63 was a Philox counter word numpy could not
    # take, and a root index past the float range an angle it could not
    # compute: both had exit 1.  Twist seeds count modulo 2^64, and roots
    # only modulo q
    big = _walk_outputs(tmp_path, "big", unit_twist_seed=2**70)
    assert big == _walk_outputs(tmp_path, "wrapped", unit_twist_seed=2**70 % 2**64)
    assert (_walk_outputs(tmp_path, "root", root_index=10**400)
            == _walk_outputs(tmp_path, "root1", root_index=1))


def test_rep_iota_takes_a_root_index_past_the_float_range(tmp_path, capsys):
    gens, _ = bundled_generators(3)
    f = tmp_path / "m.json"
    f.write_text((gens[0] @ gens[5]).dumps())
    rc, big = run_cli(capsys, "rep", "iota", str(f), "--q", "3", "--root", str(10**400))
    assert rc == 0
    rc, one = run_cli(capsys, "rep", "iota", str(f), "--q", "3", "--root", "1")
    assert rc == 0
    big, one = json.loads(big), json.loads(one)
    assert (big["real"], big["imag"]) == (one["real"], one["imag"])
    assert any(x for row in one["imag"] for x in row)


def test_walk_run_takes_an_alpha_past_the_circle_bound_float_range(tmp_path, capsys):
    # K(1000) holds no index of Phi_3 or Phi_5, so a det B made of them is
    # small_everywhere, and its circle bound e^(alpha' deg) is past the
    # float range: the run exited 1 with "math range error"
    model = SurfaceModel(3)
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    r = LaurentPoly({1: 1, 0: 1, -1: 1})
    gens = [transvection(model, v, c).to_json_obj()
            for v in ([one, zero, one, zero], [zero, one, zero, one]) for c in (r, -r)]
    f = walk_config_file(tmp_path, generators=gens, probabilities=["1/4"] * 4, alpha=1000,
                         n_steps=4, n_trials=20, master_seed=0, q_list=[5])
    out_dir = tmp_path / "out"
    rc = dispatch(["walk", "run", "--config", str(f), "--out", str(out_dir), "--threads", "1"])
    assert rc == 0, capsys.readouterr().err
    bins = json.loads((out_dir / "report.json").read_text())["constraint_bins"]
    assert bins["2"] == {"degenerate_zero": 12, "small_everywhere": 8}


def test_walk_run_rejects_repeated_cover_degree(tmp_path, capsys):
    f = walk_config_file(tmp_path, q_list=[3, 3])
    out_dir = tmp_path / "out"
    rc = dispatch(["walk", "run", "--config", str(f), "--out", str(out_dir), "--threads", "1"])
    assert rc == 2
    assert "distinct" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_walk_run_rejects_thread_counts_below_one(tmp_path, capsys, threads):
    # both used to run one process and exit 0
    f = walk_config_file(tmp_path)
    out_dir = tmp_path / "out"
    rc = dispatch(["walk", "run", "--config", str(f), "--out", str(out_dir), "--threads", threads])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out_dir.exists()
    gens, probs = bundled_generators(3)
    cfg = WalkConfig(generators=gens, probabilities=probs, g=3, n_steps=4, n_trials=4)
    with pytest.raises(ValueError, match="at least 1"):
        run_walk(cfg, workers=int(threads))


def test_walk_probe(tmp_path, capsys):
    f = walk_config_file(tmp_path)
    rc, out = run_cli(capsys, "walk", "probe", "--config", str(f), "--q", "3")
    assert rc == 0
    assert json.loads(out)["witness"] is not None


# -- exit codes and plot data ------------------------------------------


def test_exit_codes(tmp_path, capsys):
    assert dispatch(["mahler", "eval", "--nope"]) == 2
    capsys.readouterr()
    assert dispatch(["mahler", "eval", "--poly", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()


def test_parser_reuse_leaks_no_options(tmp_path, capsys):
    f = walk_config_file(tmp_path)
    for extra, seed in ((["--seed", "5"], 5), ([], 3)):
        out_dir = tmp_path / f"out{seed}"
        rc, _ = run_cli(capsys, "walk", "run", "--config", str(f), "--out", str(out_dir),
                        "--threads", "1", *extra)
        assert rc == 0
        assert json.loads((out_dir / "manifest.json").read_text())["master_seed"] == seed
    for _ in range(2):
        assert dispatch(["walk", "run", "--config", str(f)]) == 2
        assert "--out" in capsys.readouterr().err


def test_mahler_eval_beyond_float_range(tmp_path, capsys):
    # t - 2^1500: the float seeds overflow; the measure is 1500 log 2
    f = tmp_path / "big.json"
    f.write_text(LaurentPoly({1: 1, 0: -(2 ** 1500)}).dumps())
    rc, out = run_cli(capsys, "mahler", "eval", "--poly", str(f))
    assert rc == 0
    obj = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in output"))
    assert obj["log_measure"] == pytest.approx(1500 * math.log(2), abs=1e-9)
    assert 0 < obj["residual"] <= 1e-12
    assert dispatch(["mahler", "eval", "--poly", str(f), "--tol", "nan"]) == 2
    assert "tolerance" in capsys.readouterr().err


def test_python_m_torsionlab(tmp_path):
    src = str(Path(torsionlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    f = tmp_path / "lehmer.json"
    f.write_text(LEHMER.dumps())

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "torsionlab", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    proc = run("mahler", "eval", "--poly", str(f))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["log_measure"] == pytest.approx(0.1623576, abs=1e-6)
    assert run("no-such-command").returncode == 2


# runs every subcommand that reaches mahler.py, with relative paths, in a
# fresh interpreter; argv[1] == "blocked" makes `import mpmath` fail first
NO_MPMATH_RUN = """
import json, random, sys
if sys.argv[1] == "blocked":
    sys.modules["mpmath"] = None
import torsionlab.cli
assert sys.modules.get("mpmath", "not loaded") == ("not loaded" if sys.argv[1] == "normal" else None)
from torsionlab import mahler
from torsionlab.hermitian import FormMatrix, SurfaceModel, block_det, bottom_left_block
from torsionlab.ringcore import LaurentPoly, cyclotomic
from torsionlab.walks import bundled_generators
lehmer = LaurentPoly({10: 1, 9: 1, 7: -1, 6: -1, 5: -1, 4: -1, 3: -1, 1: 1, 0: 1})
gens, probs = bundled_generators(3)
pick = random.Random(2016)
while True:
    w = FormMatrix.identity(SurfaceModel(3))
    for _ in range(64):
        w = gens[pick.randrange(len(gens))] @ w
    walk64 = block_det(bottom_left_block(w))
    if not walk64.is_zero() and mahler.kronecker_zero_test(walk64) is None:
        break
polys = {"lehmer": lehmer, "walk64": walk64, "three_phi6_lehmer": LaurentPoly({0: 3}) * cyclotomic(6) * lehmer,
         "t900": LaurentPoly.from_list([1, 2 ** 900, 1, 1]), "phi6_phi12": cyclotomic(6) * cyclotomic(12)}
for name, p in polys.items():
    open(name + ".json", "w").write(p.dumps())
open("binf.json", "w").write(json.dumps({"rows": [[lehmer.to_json_obj()]]}))
json.dump({"g": 3, "generators": [g.to_json_obj() for g in gens], "probabilities": [str(p) for p in probs],
           "n_steps": 8, "n_trials": 16, "master_seed": 3, "q_list": [3]}, open("walk.json", "w"))
argvs = [["mahler", "eval", "--poly", name + ".json"] for name in polys if name != "phi6_phi12"]
argvs += [["mahler", "kronecker", "--poly", name + ".json"] for name in ("lehmer", "phi6_phi12")]
argvs += [["torsion", "scan", "--binf", "binf.json", "--qmax", "60", "--out", "scan/scan.csv"],
          ["walk", "run", "--config", "walk.json", "--out", "walk", "--threads", "1"]]
for argv in argvs:
    assert torsionlab.cli.dispatch(argv) == 0, argv
if sys.argv[1] == "blocked":
    try:
        mahler.mp
    except ImportError:
        pass
    else:
        raise AssertionError("mahler.mp without mpmath")
else:
    assert "mpmath" not in sys.modules
    import mpmath
    assert mahler.mp is mpmath
"""


def test_library_runs_without_mpmath(tmp_path):
    # mpmath is test-only: with its import blocked, every subcommand that
    # reaches the Mahler path prints and writes byte for byte what a normal
    # run does; a normal import loads no mpmath, and mahler.mp imports it
    # on first use, for perfbench's tracer
    src = str(Path(torsionlab.__file__).resolve().parents[1])
    outputs = {}
    for mode in ("blocked", "normal"):
        cwd = tmp_path / mode
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-c", NO_MPMATH_RUN, mode], cwd=cwd, capture_output=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        files = {str(f.relative_to(cwd)): f.read_bytes() for f in sorted(cwd.rglob("*")) if f.is_file()}
        outputs[mode] = proc.stdout, files
    stdout, files = outputs["blocked"]
    assert stdout.count(b"log_measure") == 4 and {"scan/scan.csv", "walk/report.json"} <= set(files)
    assert outputs["blocked"] == outputs["normal"]


LOADS_RUN = """
import contextlib, io, json, sys
import torsionlab
if sys.argv[1:]:
    import torsionlab.cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = torsionlab.cli.dispatch(sys.argv[1:])
    assert rc == 0, (rc, sys.argv)
print(json.dumps([sorted(m for m in sys.modules if m.startswith("torsionlab")),
                  "concurrent.futures.process" in sys.modules]))
"""


def test_each_command_loads_only_its_modules(tmp_path):
    # a fresh interpreter per command: the package loads no submodule, and
    # the CLI only the library modules its command runs; no command loads
    # the process pool, which only a walk on more than one worker starts
    gens, _ = bundled_generators(3)
    (tmp_path / "p.json").write_text(LEHMER.dumps())
    (tmp_path / "m.json").write_text(gens[0].dumps())
    (tmp_path / "binf.json").write_text(json.dumps({"rows": [[LEHMER.to_json_obj()]]}))
    (tmp_path / "phi.json").write_text(json.dumps([[1, 0], [2, 1]]))
    walk = str(walk_config_file(tmp_path, n_steps=4, n_trials=2))
    base = {"torsionlab", "torsionlab.cli", "torsionlab.ringcore"}
    mahler = base | {"torsionlab.mahler"}
    rep = base | {"torsionlab.hermitian"}
    homology = mahler | rep | {"torsionlab.homology"}
    walks = mahler | rep | {"torsionlab.walks"}
    cases = [
        ((), {"torsionlab"}),
        (("--version",), base),
        (("mahler", "eval", "--poly", "p.json"), mahler),
        (("mahler", "kronecker", "--poly", "p.json"), mahler),
        (("mahler", "kalpha", "--alpha", "1.0", "--mmax", "10"), mahler),
        (("rep", "check-form", "m.json"), rep),
        (("rep", "block", "m.json"), rep),
        (("rep", "iota", "m.json", "--q", "5"), rep),
        (("torsion", "scan", "--binf", "binf.json", "--qmax", "5", "--out", "scan/s.csv"), homology),
        (("heegaard", "--matrix", "phi.json"), homology),
        (("walk", "run", "--config", walk, "--out", "walk", "--threads", "1"), walks),
        (("walk", "probe", "--config", walk, "--q", "3"), walks),
    ]
    src = str(Path(torsionlab.__file__).resolve().parents[1])
    for argv, want in cases:
        proc = subprocess.run([sys.executable, "-c", LOADS_RUN, *argv], cwd=tmp_path, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
        loaded, pool = json.loads(proc.stdout)
        assert (set(loaded), pool) == (want, False), argv
    # the public names still resolve, by every route
    names = {}
    exec("from torsionlab import *", names)
    assert set(torsionlab.__all__) <= set(names) and set(torsionlab.__all__) <= set(dir(torsionlab))
    for name in torsionlab.__all__:
        assert names[name] is getattr(torsionlab, name)
    from torsionlab import walks

    assert torsionlab.run_walk is walks.run_walk and torsionlab.WalkConfig is WalkConfig
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        torsionlab.nope
    with pytest.raises(ImportError):
        exec("from torsionlab import nope", {})


def test_span_past_max_span_is_a_usage_error(tmp_path, capsys):
    # t^(10^12) + 1 would need 10^12 dense slots: every command that reads
    # it exits 2 with one error line, in process and through python -m
    wide = [[0, "1"], [10**12, "1"]]
    f = tmp_path / "wide.json"
    f.write_text(json.dumps(wide))
    b = tmp_path / "binf.json"
    b.write_text(json.dumps({"rows": [[wide]]}))
    for argv in (("mahler", "eval", "--poly", str(f)), ("mahler", "kronecker", "--poly", str(f)),
                 ("torsion", "scan", "--binf", str(b), "--qmax", "5", "--out", str(tmp_path / "s.csv"))):
        rc = dispatch(list(argv))
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "") and err.startswith("error: ") and "MAX_SPAN" in err, (argv, err)
    src = str(Path(torsionlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab", "mahler", "kronecker", "--poly", str(f)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 2 and proc.stdout == "", proc
    assert "Traceback" not in proc.stderr and "MemoryError" not in proc.stderr, proc.stderr


def test_python_m_kronecker_index_beyond_2000(tmp_path):
    # Phi_2010(t) = Phi_1005(-t), of degree 528
    phi = cyclotomic(1005)
    f = tmp_path / "phi2010.json"
    f.write_text(LaurentPoly({k: (-1) ** k * c for k, c in phi.coeffs.items()}).dumps())
    src = str(Path(torsionlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab", "mahler", "kronecker", "--poly", str(f)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["mahler_zero"] is True
    assert obj["cyclotomic_indices"] == {"2010": 1}


def test_emit_plot_data_growth():
    res = growth_scan([[LaurentPoly({1: 1, 0: -2})]], range(3, 10))
    rows = list(csv.reader(io.StringIO(emit_plot_data(res))))
    series = {r[0] for r in rows[1:]}
    assert series == {"log_torsion_over_q", "mahler_measure"}


def test_emit_plot_data_walk():
    gens, probs = bundled_generators(3)
    cfg = WalkConfig(
        generators=gens, probabilities=probs, g=3, n_steps=4, n_trials=4,
        master_seed=1, q_list=(3,),
    )
    rows = list(csv.reader(io.StringIO(emit_plot_data(run_walk(cfg, workers=1)))))
    series = {r[0] for r in rows[1:]}
    assert {"frac_mahler_positive", "L_n_mean_q3", "L_n_var_q3"} <= series


def test_emit_plot_data_empty():
    empty = GrowthScanResult(reports=[], mahler=None, degenerate=True)
    assert emit_plot_data(empty).strip() == "series,x,y,stderr"
