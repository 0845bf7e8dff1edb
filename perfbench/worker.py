"""One measured process of a benchmark run; run.py starts it.

Usage: worker.py --workload NAME --seed N --seconds S --workdir DIR
                 [--setup-only] [--trace]

The process imports the package, builds the seeded ops and loads the letter
matrices (its set-up), then runs passes over the ops until --seconds have
passed, or exactly one pass with --trace.  It prints one JSON line: the
clock reading when set-up ended with a calibrate() time, the op durations
of each pass, the failures and the peak resident memory.  With --setup-only it stops
after set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import workloads
from timing import calibrate, rescale

MAX_PROBLEMS = 20


def run_passes(ops, seconds, one_pass, tracer=None):
    """Closed loop over ops; checks run outside the timed region.

    Each pass records every op's wall time, raw and rescaled to the
    reference speed by calibrate() runs between the ops.
    """
    clock = time.perf_counter
    start = clock()
    out = {"passes": [], "raw_passes": [], "attempted": 0, "failed": 0,
           "reference_ok": True, "problems": []}
    while True:
        durations, raw = [], []
        before = calibrate()
        for op in ops:
            hits = tracer.cache_hits if tracer else 0
            t0 = clock()
            try:
                result = op.run()
                problem = None
            except Exception as exc:  # a raising op is a failed op
                problem = "raised %s: %s" % (type(exc).__name__, exc)
            elapsed = clock() - t0
            after = calibrate()
            raw.append(elapsed)
            durations.append(rescale(elapsed, before, after))
            before = after
            if problem is None and tracer and tracer.cache_hits > hits:
                problem = "served from the cache"
            if problem is None:
                # the checks are not part of the traced work
                state = tracer.snapshot() if tracer else None
                try:
                    problem = op.check(result)
                except Exception as exc:
                    problem = "check raised %s: %s" % (type(exc).__name__, exc)
                if tracer:
                    tracer.restore(state)
            out["attempted"] += 1
            if problem is not None:
                out["failed"] += 1
                out["reference_ok"] = out["reference_ok"] and not op.reference
                line = "%s: %s" % (op.name, problem)
                if len(out["problems"]) < MAX_PROBLEMS \
                        and line not in out["problems"]:
                    out["problems"].append(line)
        out["passes"].append(durations)
        out["raw_passes"].append(raw)
        if one_pass or clock() - start >= seconds:
            return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOAD_OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    ops = workloads.WORKLOAD_OPS[args.workload](args.seed, args.workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ready = time.perf_counter()
    result = {"ready": ready, "calibration": calibrate()}
    if not args.setup_only:
        if tracer:
            tracer.reset()
        result.update(run_passes(ops, args.seconds, args.trace, tracer))
        if tracer:
            result["layers"] = tracer.metrics()
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
