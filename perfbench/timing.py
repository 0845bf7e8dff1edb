"""Op timings: calibration against the machine's current speed, best of the
passes, median and tail.

The reference box (2 vCPUs, Intel Xeon at 2.0 GHz) runs at two speeds about
1.6x apart, switching every 10-60 s as other tenants load the shared cores.
A pure-Python loop timed just before and just after an op runs at the same
speed as the op, so each op time is rescaled by REFERENCE_S over the mean of
those two loop times: it reads as the op's wall time on the reference box
at its fast speed.  The raw wall times are kept and printed too.
"""

from __future__ import annotations

import statistics
import time

# best time of calibrate() on the reference box at its fast speed
REFERENCE_S = 1.1e-3


def calibrate():
    """Best of three timings of a fixed loop of small polynomial products
    mod 7 over tuples, the kind of work RatFunc arithmetic does."""
    coeffs = tuple(range(1, 12))
    best = None
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(100):
            out = [0] * 21
            for i, x in enumerate(coeffs):
                for j, y in enumerate(coeffs):
                    out[i + j] = (out[i + j] + x * y) % 7
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def rescale(seconds, before, after):
    """Wall time at the reference speed, given calibrate() around it."""
    return seconds * REFERENCE_S / ((before + after) / 2)


def tail(durations):
    """(value, percentile) at the highest percentile with ten ops beyond it.

    The value is the op with exactly ten slower ops, and the percentile is
    the share of ops not slower than it.  With fewer than eleven ops no op
    has ten beyond it, and the tail is the slowest op, at percentile 100.
    """
    if not durations:
        raise ValueError("no op durations")
    ordered = sorted(durations)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def summarize(passes):
    """Timings of a run from the op durations (seconds) of each pass.

    Every pass runs the same ops, so each op is timed by its best pass, as
    timeit does: on a shared machine the other tenants only ever add time.
    wall is the sum of these op times; p50 and tail are taken over them.
    """
    best = [min(times) for times in zip(*passes)]
    value, percentile = tail(best)
    return {"wall": sum(best), "p50": statistics.median(best), "tail": value,
            "tail_percentile": percentile, "ops": len(best),
            "passes": len(passes)}
