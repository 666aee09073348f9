"""One fresh process that runs a plan through torsionlab.cli.dispatch.

    python3 worker.py --plan PLAN --result OUT [--setup-only]
                      [--seconds S] [--replay CALLS] [--trace]

The package is imported and the input files are read first; the moment
before the first call into the workload is written as `ready` (from
time.monotonic, which every process shares), so the parent can take set-up
time from its own clock.  Calls run round by round until `--seconds` of
dispatch time have passed; `--replay` runs exactly the calls another
worker ran instead.  Each call is timed alone, then checked, then followed
by a calibration burst (calib.py) of a twentieth of its duration.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

CAL_SHARE = 0.05  # calibration time per second of measured dispatch time


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--replay")
    ap.add_argument("--trace", action="store_true")
    return ap.parse_args(argv)


def _read_files(paths) -> dict:
    out = {}
    for p in paths:
        try:
            out[os.path.basename(p)] = Path(p).read_text()
        except OSError:
            pass
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    from torsionlab import cli  # the program under test, with numpy and mpmath

    plan = json.loads(Path(args.plan).read_text())
    for path in plan["inputs"]:
        Path(path).read_bytes()
    ready = time.monotonic()

    import calib  # the benchmark's own modules sit next to this file

    cal = calib.Calibration()
    if args.setup_only:
        cal.run(0.1)
        Path(args.result).write_text(json.dumps(
            {"ready": ready, "cal_units": cal.units, "cal_s": cal.seconds}))
        return 0

    import checks

    rounds = plan["rounds"]
    if args.replay:
        schedule = [tuple(ref) for ref in json.loads(Path(args.replay).read_text())]
    else:
        schedule = None

    tracer = inst = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        inst = spans.install(tracer)

    state: dict = {}
    done, digests, notes = [], [], []
    ok = failed = 0
    timed = 0.0

    def run(r: int, c: int) -> None:
        nonlocal ok, failed, timed
        call = rounds[r][c]
        for path in call["outputs"]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.current_item = len(done)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.dispatch(call["argv"])
        except Exception as exc:  # an escaped exception fails the item
            rc = f"exception {exc!r}"
        dt = time.perf_counter() - t0
        timed += dt
        files = _read_files(call["outputs"])
        stdout = out.getvalue()
        good, bad, note = checks.check(call, rc, stdout, files, state)
        ok += good
        failed += bad
        if note and len(notes) < 20:
            notes.append(note + (f" [{err.getvalue().strip()[:200]}]" if err.getvalue() else ""))
        h = hashlib.sha256(repr(rc).encode() + stdout.encode())
        for name in sorted(files):
            h.update(name.encode() + files[name].encode())
        digests.append(h.hexdigest())
        done.append((r, c))
        cal.run(CAL_SHARE * dt)

    try:
        if schedule is not None:
            for r, c in schedule:
                run(r, c)
        else:
            r = 0
            while True:
                rnd = r % len(rounds)
                for c in range(len(rounds[rnd])):
                    run(rnd, c)
                r += 1
                if timed >= args.seconds:
                    break
    finally:
        if inst is not None:
            inst.restore()

    result = {
        "ready": ready,
        "timed_s": timed,
        "ok": ok,
        "failed": failed,
        "calls": done,
        "cal_units": cal.units,
        "cal_s": cal.seconds,
        "digests": digests,
        "notes": notes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.start)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
