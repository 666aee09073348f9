"""Command-line driver.

Subcommands mirror the library modules: mahler, rep, torsion, heegaard,
walk.  All numeric output uses '.' decimals regardless of locale, and
torsion orders are emitted as decimal strings because they routinely
exceed machine integers.  Every output directory gets a manifest that
pins the inputs (sha256), parameters, and seed needed to reproduce it.

Each handler imports the library module it runs when it is called, so a
call loads only what its command needs: `mahler` never loads `walks` or
`homology`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass

from . import __version__
from .ringcore import LaurentPoly, exact_str, json_int, json_rows


@dataclass
class ExperimentManifest:
    """Reproducibility record written next to every output."""

    version: str
    subcommand: str
    parameters: dict
    input_digests: dict
    master_seed: int | None = None


def _digest(path: str) -> str:
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _load_form(path: str):
    from .hermitian import FormMatrix

    with open(path) as fh:
        return FormMatrix.loads(fh.read())


def _load_poly(path: str) -> LaurentPoly:
    obj = _load_json(path)
    if isinstance(obj, dict) and "poly" in obj:
        obj = obj["poly"]
    return LaurentPoly.from_json_obj(obj)


def _rows(obj) -> list:
    """obj["rows"] of a dict, else obj, checked to be a list of lists."""
    return json_rows(obj["rows"] if isinstance(obj, dict) else obj)


def _load_poly_matrix(path: str):
    """Matrix of Laurent polynomials: {"rows": [[poly, ...], ...]} or a
    full FormMatrix JSON."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "g" in obj:
        from .hermitian import FormMatrix

        return [list(r) for r in FormMatrix.from_json_obj(obj).rows]
    return [[LaurentPoly.from_json_obj(e) for e in row] for row in _rows(obj)]


def _print_json(obj):
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _write_manifest(out_dir: str, manifest: ExperimentManifest):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(asdict(manifest), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a process exit code)


def _cmd_mahler_eval(args) -> int:
    from .mahler import mahler_measure

    p = _load_poly(args.poly)
    res = mahler_measure(p, tol=args.tol)
    _print_json(
        {
            "log_measure": res.log_measure,
            "leading_coeff": res.leading_coeff,
            "method": res.method.value,
            "n_roots": len(res.roots),
            "dps": res.dps,
            "residual": res.residual,
        }
    )
    return 0


def _cmd_mahler_kronecker(args) -> int:
    from .mahler import kronecker_zero_test

    p = _load_poly(args.poly)
    fac = kronecker_zero_test(p)
    if fac is None:
        _print_json({"mahler_zero": False})
    else:
        _print_json(
            {
                "mahler_zero": True,
                "k_exponent": fac.k_exponent,
                "sign": fac.sign,
                "cyclotomic_indices": {
                    str(m): c for m, c in sorted(fac.cyclotomic_indices.items())
                },
            }
        )
    return 0


def _cmd_mahler_kalpha(args) -> int:
    from .mahler import build_K_alpha

    K = build_K_alpha(args.alpha, args.mmax)
    _print_json({"alpha": args.alpha, "m_max": args.mmax, "K": sorted(K)})
    return 0


def _cmd_rep_check_form(args) -> int:
    from .hermitian import check_form_preserved, is_torelli_like

    M = _load_form(args.matrix)
    _print_json({"form_preserved": check_form_preserved(M), "torelli_like": is_torelli_like(M)})
    return 0


def _cmd_rep_block(args) -> int:
    from .hermitian import block_det, bottom_left_block

    M = _load_form(args.matrix)
    B = bottom_left_block(M)
    det = block_det(B)
    _print_json(
        {
            "block": [[e.to_json_obj() for e in row] for row in B],
            "det": det.to_json_obj(),
        }
    )
    return 0


def _cmd_rep_iota(args) -> int:
    from .hermitian import iota_embed

    M = _load_form(args.matrix)
    if M.q is None:
        M = M.reduce_mod_q(args.q)
    elif M.q != args.q:
        raise ValueError(f"matrix lives over Z[Z/{M.q}], not Z[Z/{args.q}]")
    A = iota_embed(M, args.root)
    _print_json(
        {
            "q": args.q,
            "root_index": args.root,
            "real": [[x.real for x in row] for row in A.tolist()],
            "imag": [[x.imag for x in row] for row in A.tolist()],
        }
    )
    return 0


def _cmd_torsion_scan(args) -> int:
    import csv

    from .homology import growth_scan

    B = _load_poly_matrix(args.binf)
    qs = list(range(1, args.qmax + 1, args.stride))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    result = growth_scan(B, qs)
    rows = _scan_rows(result)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q", "torsion_order", "betti", "log_torsion_over_q"])
        w.writerows(rows)
    manifest = ExperimentManifest(
        version=__version__,
        subcommand="torsion scan",
        parameters={"qmax": args.qmax, "stride": args.stride},
        input_digests={args.binf: _digest(args.binf)},
    )
    _write_manifest(os.path.dirname(os.path.abspath(args.out)), manifest)
    _print_json(
        {
            "rows": len(rows),
            "degenerate": result.degenerate,
            "mahler": None if result.mahler is None else result.mahler.log_measure,
            "out": args.out,
        }
    )
    return 0


def _scan_rows(result):
    return [
        [r.q, exact_str(r.torsion_order), r.betti, repr(r.log_torsion_over_q)]
        for r in result.reports
    ]


def _cmd_heegaard(args) -> int:
    from .homology import heegaard_homology

    rows = _rows(_load_json(args.matrix))
    rep = heegaard_homology([[json_int(x) for x in row] for row in rows])
    _print_json(
        {
            "betti": rep["betti"],
            "torsion": exact_str(rep["torsion"]),
            "factors": [exact_str(d) for d in rep["factors"]],
            "det_bottom_left": exact_str(rep["det_bottom_left"]),
            "det_agrees": rep["det_agrees"],
        }
    )
    return 0


def _walk_config_from_file(path: str, seed_override=None):
    import math
    from fractions import Fraction

    from .hermitian import FormMatrix
    from .walks import WalkConfig

    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"expected the walk config as a JSON object, got {type(obj).__name__}")
    gens, probs = obj["generators"], obj["probabilities"]
    if not isinstance(gens, list) or not isinstance(probs, list):
        raise ValueError("expected generators and probabilities as lists")
    gens = [FormMatrix.from_json_obj(m) for m in gens]
    try:
        probs = [Fraction(p) for p in probs]
    except (TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"expected each probability as a number or fraction, got {probs!r}") from exc
    seed = obj.get("master_seed", 0) if seed_override is None else seed_override
    twist = obj.get("unit_twist_seed")
    q_list = obj.get("q_list", [3])
    if not isinstance(q_list, list):
        raise ValueError(f"expected q_list as a list of integers, got {q_list!r}")
    alpha = obj.get("alpha", 0.05)
    if type(alpha) not in (int, float) or not math.isfinite(alpha):
        raise ValueError(f"expected alpha as a finite real number, got {alpha!r}")
    return WalkConfig(
        generators=gens,
        probabilities=probs,
        g=json_int(obj["g"]),
        n_steps=json_int(obj.get("n_steps", 64)),
        n_trials=json_int(obj.get("n_trials", 200)),
        master_seed=json_int(seed),
        q_list=tuple(json_int(q) for q in q_list),
        alpha=alpha,
        root_index=json_int(obj.get("root_index", 1)),
        unit_twist_seed=None if twist is None else json_int(twist),
    )


def _cmd_walk_run(args) -> int:
    from .walks import run_walk

    config = _walk_config_from_file(args.config, seed_override=args.seed)
    workers = args.threads
    report = run_walk(config, workers=workers)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump(report.to_json_obj(), fh, indent=2)
        fh.write("\n")
    with open(os.path.join(args.out, "series.csv"), "w", newline="") as fh:
        fh.write(emit_plot_data(report))
    manifest = ExperimentManifest(
        version=__version__,
        subcommand="walk run",
        parameters={"n_steps": config.n_steps, "n_trials": config.n_trials},
        input_digests={args.config: _digest(args.config)},
        master_seed=config.master_seed,
    )
    _write_manifest(args.out, manifest)
    _print_json(
        {
            "out": args.out,
            "n_trials": report.n_trials,
            "fraction_mahler_positive": {
                str(n): v for n, v in report.fraction_mahler_positive.items()
            },
        }
    )
    return 0


def _cmd_walk_probe(args) -> int:
    from .walks import proximality_probe

    config = _walk_config_from_file(args.config)
    rep = proximality_probe(config, args.q, root_index=args.root)
    _print_json(asdict(rep))
    return 0


# ---------------------------------------------------------------------------
# plot data


def emit_plot_data(report) -> str:
    """Tidy long-format CSV (series, x, y, stderr) for external plotting."""
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["series", "x", "y", "stderr"])
    if _is_instance(report, "homology", "GrowthScanResult"):
        for r in report.reports:
            w.writerow(["log_torsion_over_q", r.q, repr(r.log_torsion_over_q), ""])
        if report.mahler is not None:
            for r in report.reports:
                w.writerow(["mahler_measure", r.q, repr(report.mahler.log_measure), ""])
    elif _is_instance(report, "walks", "WalkReport"):
        ntr = max(report.n_trials, 1)
        for n in report.schedule:
            f = report.fraction_mahler_positive[n]
            se = (f * (1 - f) / ntr) ** 0.5
            w.writerow(["frac_mahler_positive", n, repr(f), repr(se)])
        for q in report.q_list:
            for n in report.schedule:
                if n in report.lyapunov_mean[q]:
                    mean = report.lyapunov_mean[q][n]
                    var = report.lyapunov_var[q][n]
                    se = (var / ntr) ** 0.5
                    w.writerow([f"L_n_mean_q{q}", n, repr(mean), repr(se)])
                    w.writerow([f"L_n_var_q{q}", n, repr(var), ""])
            for delta, series in report.hyperplane_fraction[q].items():
                for n, frac in series.items():
                    w.writerow([f"frac_below_{delta:g}_q{q}", n, repr(frac), ""])
    return buf.getvalue()


def _is_instance(obj, module: str, cls: str) -> bool:
    """isinstance(obj, torsionlab.<module>.<cls>), without importing the
    module: an instance of the class exists only once it is loaded."""
    mod = sys.modules.get(f"{__package__}.{module}")
    return mod is not None and isinstance(obj, getattr(mod, cls))


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after;
    parse_args fills a fresh namespace and leaves the parser unchanged."""
    top = argparse.ArgumentParser(prog="torsionlab")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    mah = sub.add_parser("mahler").add_subparsers(dest="sub", required=True)
    p = mah.add_parser("eval")
    p.add_argument("--poly", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_mahler_eval)
    p = mah.add_parser("kronecker")
    p.add_argument("--poly", required=True)
    p.set_defaults(func=_cmd_mahler_kronecker)
    p = mah.add_parser("kalpha")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mmax", type=int, required=True)
    p.set_defaults(func=_cmd_mahler_kalpha)

    rep = sub.add_parser("rep").add_subparsers(dest="sub", required=True)
    p = rep.add_parser("check-form")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_rep_check_form)
    p = rep.add_parser("block")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_rep_block)
    p = rep.add_parser("iota")
    p.add_argument("matrix")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--root", type=int, default=1)
    p.set_defaults(func=_cmd_rep_iota)

    tor = sub.add_parser("torsion").add_subparsers(dest="sub", required=True)
    p = tor.add_parser("scan")
    p.add_argument("--binf", required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_torsion_scan)

    p = sub.add_parser("heegaard")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_heegaard)

    wlk = sub.add_parser("walk").add_subparsers(dest="sub", required=True)
    p = wlk.add_parser("run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_walk_run)
    p = wlk.add_parser("probe")
    p.add_argument("--config", required=True)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--root", type=int, default=1)
    p.set_defaults(func=_cmd_walk_probe)

    return top


def dispatch(argv=None) -> int:
    """Route to a subcommand: 0 success, 1 internal error, 2 usage."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
