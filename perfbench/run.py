"""torsionlab benchmark: seeded workloads driven through torsionlab.cli.dispatch.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  Each run builds its inputs from --seed
(workloads.py), then starts fresh worker processes (worker.py) that import
torsionlab from ./src, run CLI calls with the argv a user would type, and
check every output (checks.py).  Workloads, and why each exists:

  walk               `walk run --threads 1` on the bundled genus-3 set, 64
                     steps, q_list [3]; an item is one trial.  Exact Laurent
                     matrix products dominate; no root finding, no covers.
  tower              `torsion scan` of Lehmer's polynomial, of a seeded 2x2
                     block of a short form-preserving word, and of
                     (t+1)(t^2-3t+1), degenerate at every even q; an item is
                     one cover q.  The torsion-order path of homology.
  mahler_walkdet     `mahler eval` on determinants of bundled walks (degree
                     20..48); an item is one polynomial.  mpmath root finding.
  mahler_cyclotomic  `mahler kronecker` on +-t^k * prod Phi_m, half of them
                     times a small-measure non-cyclotomic factor; an item is
                     one polynomial.  Cyclotomic cache and trial division.
  mahler_domain      like mahler_cyclotomic, but every input needs an index
                     above 2000 or has degree above 1000, which the seed
                     commit cannot decide.  Not gated (its items fail there);
                     it runs under --workload all so the defects stay visible.

With --trace 0 the last stdout line reports the end-to-end metrics:
setup_s (fresh process start to the first dispatch call: interpreter,
imports, reading inputs; median of several fresh processes),
norm_items_per_s (items checked correct per second of dispatch time),
pass_rate (items correct / items attempted, i.e. 1 - fail_rate) and
peak_rss_mb (of the worker).  Both times are in reference seconds
(calib.py), which cancels most of the drift in the speed of a shared
machine; the line before it, `raw ...`, gives the seconds as measured.
With --trace 1 an untraced worker runs first, then a traced one replays
the same calls from cold; the last line reports per-layer spans and
counts from the traced worker (measured seconds) and trace.overhead =
traced / untraced dispatch time (reference seconds).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 8  # set-up-only processes per run, besides the measuring one
TRACE_SHARE = 0.5  # of --seconds spent untraced before the traced replay
DEADLINE_S = 170.0  # every run exits well within 180 s
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "TORSIONLAB_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "threads": PINNED_THREADS,
    }


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """The inputs of one run, and the fresh workers that run them."""

    def __init__(self, workload: str, seed: int):
        self.t_begin = time.monotonic()
        self.work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.plan = workloads.make_plan(workload, seed, self.work / "in")
        self.plan_path = self.work / "plan.json"
        self.plan_path.write_text(json.dumps(self.plan))
        self.env = _worker_env()
        self.n = 0

    def worker(self, *extra: str) -> tuple[dict, float]:
        """Start one fresh worker; returns its result and its start time."""
        self.n += 1
        result = self.work / f"result{self.n}.json"
        argv = [sys.executable, str(HERE / "worker.py"), "--plan", str(self.plan_path),
                "--result", str(result), *extra]
        left = DEADLINE_S - (time.monotonic() - self.t_begin)
        if left <= 5:
            raise BenchError("out of time before starting a worker")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0 or not result.exists():
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
            raise BenchError(f"worker exited {proc.returncode}: " + " | ".join(tail))
        return json.loads(result.read_text()), t0

    def setup_samples(self) -> list[tuple[float, float]]:
        """(measured, reference) set-up seconds of fresh set-up-only workers."""
        out = []
        for _ in range(SETUP_PROBES):
            res, t0 = self.worker("--setup-only")
            out.append(_setup(res, t0))
        return out

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _reference_seconds(res: dict, seconds: float) -> float:
    return calib.to_reference(seconds, res["cal_units"], res["cal_s"])


def _setup(res: dict, t0: float) -> tuple[float, float]:
    measured = res["ready"] - t0
    return measured, _reference_seconds(res, measured)


def measure(workload: str, seed: int, seconds: float) -> dict:
    run = Runner(workload, seed)
    try:
        setup = run.setup_samples()
        res, t0 = run.worker("--seconds", str(seconds))
        setup.append(_setup(res, t0))
    finally:
        run.close()
    attempted, failed = res["ok"] + res["failed"], res["failed"]
    raw = {
        "setup_s": statistics.median(m for m, _ in setup),
        "items_per_s": res["ok"] / res["timed_s"],
        "calibration_rate": res["cal_units"] / res["cal_s"],
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "notes": res["notes"],
        "raw": raw,
        "metrics": {
            "setup_s": {"value": statistics.median(r for _, r in setup), "unit": "s"},
            "norm_items_per_s": {
                "value": res["ok"] / _reference_seconds(res, res["timed_s"]), "unit": "1/s"},
            "pass_rate": {"value": res["ok"] / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
        },
    }


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    run = Runner(workload, seed)
    try:
        plain, _ = run.worker("--seconds", str(seconds * TRACE_SHARE))
        replay = run.work / "replay.json"
        replay.write_text(json.dumps(plain["calls"]))
        traced, _ = run.worker("--replay", str(replay), "--trace")
    finally:
        run.close()
    attempted, failed = traced["ok"] + traced["failed"], traced["failed"]
    notes = traced["notes"]
    if traced["digests"] != plain["digests"]:
        failed = max(failed, 1)
        notes = notes + ["outputs differ between the traced and the untraced worker"]
    metrics = {}
    units = {"calls": "count", "busy_s": "s", "self_s": "s"}
    for key, value in traced["layers"].items():
        unit = units.get(key.rsplit(".", 1)[-1]) or spans.COUNTS[key][0]
        metrics[key] = {"value": value, "unit": unit}
    metrics["trace.overhead"] = {
        "value": _reference_seconds(traced, traced["timed_s"])
        / _reference_seconds(plain, plain["timed_s"]),
        "unit": "ratio",
    }
    metrics["trace.spans"] = {"value": traced["spans"], "unit": "count"}
    return {"attempted": attempted, "failed": failed, "notes": notes, "metrics": metrics}


def _result_line(out: dict) -> str:
    return json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    })


def run_all(seed: int, seconds: float) -> dict:
    """Every workload once, untraced; a table with fail_rate, then one JSON."""
    rows, metrics = [], {}
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        out = measure(name, seed, seconds)
        m = {k: v["value"] for k, v in out["metrics"].items()}
        rows.append((name, m, out["failed"] / out["attempted"], out))
        attempted += out["attempted"]
        failed += out["failed"]
        for k, v in out["metrics"].items():
            metrics[f"{name}.{k}"] = v
    print(f"{'workload':<18} {'setup_s':>8} {'items_per_s':>12} {'norm_items_per_s':>17} "
          f"{'fail_rate':>10} {'peak_rss_mb':>12}  (s, 1/s, 1/s, ratio, MB)")
    for name, m, fail_rate, out in rows:
        print(f"{name:<18} {m['setup_s']:>8.3f} {out['raw']['items_per_s']:>12.3f} "
              f"{m['norm_items_per_s']:>17.3f} {fail_rate:>10.4f} {m['peak_rss_mb']:>12.1f}  "
              f"[{out['attempted']} items, {out['failed']} failed]")
        for note in out["notes"][:3]:
            print(f"    {note}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "torsionlab" / "cli.py").is_file():
        print(f"error: no torsionlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))
    try:
        if args.workload == "all":
            out = run_all(args.seed, args.seconds)
        elif args.trace:
            out = measure_traced(args.workload, args.seed, args.seconds)
        else:
            out = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if "raw" in out:
        print("raw " + json.dumps(out["raw"]))
    for note in out.get("notes", ()):
        print(f"note: {note}")
    print(_result_line(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
