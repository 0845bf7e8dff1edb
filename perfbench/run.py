"""Benchmark of buraubuilding: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {words,stab,explore} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from `src/`.
One client issues the next op when the previous one returns, one process at
a time.  Every measuring process is a fresh interpreter with a fixed
PYTHONHASHSEED, since RatFunc and VertexClass hashes depend on string
hashing.  Scratch files, the explore cache among them, live in
`.perfbench_work/` in the checkout and are removed at the end.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced pass, that pass's wall time and the tracing overhead.  The
per-layer figures are raw wall seconds, not rescaled by calibration, so the
layer self times add up to the traced pass's wall time.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  `failed` counts the ops that raised or failed their check; `correct` is
false when an op checked against a value the paper states failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from timing import calibrate, rescale, summarize  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

WORKLOADS = ("words", "stab", "explore")
SETUP_REPEATS = 5           # process starts per run whose set-up is timed
DEADLINE_S = 170.0          # a run must end within 180 s


def worker_env(workdir):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "BURAUBUILDING"))}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "BURAUBUILDING_CACHE_DIR": str(workdir / "cache"),
        "HOME": str(workdir),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def spawn(args, workdir, started, extra=()):
    """Run one worker and return its JSON result with its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    timeout = DEADLINE_S - (time.perf_counter() - started)
    if timeout <= 0:
        raise TimeoutError("out of time before starting a worker")
    before = calibrate()
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, env=worker_env(workdir),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError("worker exited with %d:\n%s"
                           % (proc.returncode, proc.stderr[-4000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - t_spawn
    result["setup_s"] = rescale(result["raw_setup_s"], before,
                                result["calibration"])
    return result


def end_to_end(main, setups):
    s = summarize(main["passes"])
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "wall_s": (s["wall"], "s"),
        "op_p50_ms": (1000.0 * s["p50"], "ms"),
        "op_tail_ms": (1000.0 * s["tail"], "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }, s


def report(args, runs, metrics, summary, notes):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print("workload %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("  %d passes of %d ops, each op timed by its best pass; "
          "op_tail is p%.1f of %d ops"
          % (summary["passes"], summary["ops"], summary["tail_percentile"],
             summary["ops"]))
    for note in notes:
        print("  " + note)
    print("  fail_ratio %.4f (%d of %d ops)"
          % (failed / attempted, failed, attempted))
    for run in runs:
        for problem in run["problems"]:
            print("  failed: " + problem)
    for name, (value, unit) in metrics.items():
        print("  %-42s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": all(r["reference_ok"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "buraubuilding" / "__init__.py").is_file():
        sys.stderr.write("error: no buraubuilding package under %s\n"
                         % (ROOT / "src"))
        return 2

    started = time.perf_counter()
    workdir = ROOT / ".perfbench_work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    notes = []
    try:
        main_run = spawn(args, workdir, started)
        if args.trace:
            traced = spawn(args, workdir, started, ["--trace"])
            metrics = {name: (traced["layers"][name], unit)
                       for name, unit, _ in PER_LAYER}
            summary = summarize(main_run["passes"])
            untraced = summarize(main_run["raw_passes"])["wall"]
            traced_wall = summarize(traced["raw_passes"])["wall"]
            metrics["trace.wall_s"] = (traced_wall, "s")
            metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
            runs = [main_run, traced]
            notes.append("raw wall times: traced pass %.4f s, untraced run "
                         "%.4f s (%.4f s rescaled)"
                         % (traced_wall, untraced, summary["wall"]))
        else:
            setups = [main_run] + [
                spawn(args, workdir, started, ["--setup-only"])
                for _ in range(SETUP_REPEATS - 1)]
            metrics, summary = end_to_end(main_run, setups)
            runs = [main_run]
            raw = summarize(main_run["raw_passes"])
            notes.append("raw wall times: setup_s %.4f  wall_s %.4f  "
                         "op_p50_ms %.3f  op_tail_ms %.3f" % (
                             statistics.median(r["raw_setup_s"] for r in setups),
                             raw["wall"], 1000 * raw["p50"], 1000 * raw["tail"]))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, runs, metrics, summary, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
