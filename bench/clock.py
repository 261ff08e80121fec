"""Op times, raw and scaled to a reference interpreter speed.

The benchmark runs on shared virtual machines whose speed moves by about
2x, in spells of a second up to a minute, with no steal time to see it
by.  A run that never leaves a slow spell reads about 1.8x slower in raw
time, so raw per-run figures are bimodal.  A short pure-Python
calibration loop, run every CAL_EVERY_NS between ops (never inside one),
tracks the machine's speed.  A sample's scaled time is its raw time
times REFERENCE_NS over the rolling median of the calibrations that
bracket it, so it reads as it would at the reference speed.

The loop builds and runs a small argparse parser.  It was chosen because
it slows down with the machine by the same factor as compacta's ops do:
NOTES.md gives the measured ratios per workload, and the loop's bias on
other kinds of code.  It does not touch compacta, so a change to
compacta cannot move it.
"""

from __future__ import annotations

import argparse
import gc
import statistics
from array import array
from time import perf_counter_ns

CAL_REPEATS = 2  # the faster of back-to-back runs drops interrupt spikes
CAL_EVERY_NS = 30_000_000
CAL_WINDOW = 5
# The loop's time at the fast state of the 2-vCPU Xeon VM the benchmark
# was tuned on.  It only sets the unit of the scaled times.
REFERENCE_NS = 600_000
UNSET = 2**63 - 1  # best time of an op that has not run


def _loop() -> None:
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c", "d"):
        p = sub.add_parser(name, help=name)
        p.add_argument("path")
        p.add_argument("--n", type=int, default=0)
    parser.parse_args(["b", "file", "--n", "3"])


def calibrate() -> int:
    """Nanoseconds the calibration loop takes at the machine's speed now.
    The collector is held off so that garbage the ops left behind is not
    collected, and charged, inside the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = UNSET
        for _ in range(CAL_REPEATS):
            t0 = perf_counter_ns()
            _loop()
            best = min(best, perf_counter_ns() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class OpClock:
    """Records each op run (op index, raw ns) between calibrations."""

    def __init__(self) -> None:
        self.cals = [calibrate()]
        self.last = perf_counter_ns()
        self.op = array("q")
        self.raw = array("q")
        self.slice = array("q")

    def record(self, i: int, t0: int, t1: int) -> None:
        self.op.append(i)
        self.raw.append(t1 - t0)
        self.slice.append(len(self.cals) - 1)
        if t1 - self.last >= CAL_EVERY_NS:
            self.cals.append(calibrate())
            self.last = perf_counter_ns()

    def _factors(self) -> list[float]:
        """Scale factor per calibration slice (closes the last slice)."""
        if self.slice and self.slice[-1] == len(self.cals) - 1:
            self.cals.append(calibrate())
        # A rolling median over CAL_WINDOW calibrations damps their noise.
        half = CAL_WINDOW // 2
        smooth = [
            statistics.median(self.cals[max(0, k - half) : k + half + 1])
            for k in range(len(self.cals))
        ]
        return [2 * REFERENCE_NS / (a + b) for a, b in zip(smooth, smooth[1:])]

    def best(self, n: int) -> tuple[array, array]:
        """Per op, the fastest scaled time and the fastest raw time over
        its runs (UNSET for an op that did not run)."""
        factor = self._factors()
        scaled = array("q", [UNSET]) * n
        raw = array("q", [UNSET]) * n
        for i, t, k in zip(self.op, self.raw, self.slice):
            s = int(t * factor[k])
            if s < scaled[i]:
                scaled[i] = s
            if t < raw[i]:
                raw[i] = t
        return scaled, raw


def scaled_call(fn, *args):
    """Run fn once; return (result, raw ns, ns at the reference speed)."""
    before = calibrate()
    t0 = perf_counter_ns()
    result = fn(*args)
    raw = perf_counter_ns() - t0
    after = calibrate()
    return result, raw, raw * 2 * REFERENCE_NS / (before + after)
