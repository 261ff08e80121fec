"""compacta benchmark: one seeded workload per run, closed loop, one caller.

    python3 bench/run.py --workload duality --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; compacta is imported from its
`src/` directory and nowhere else.  With `--trace 0` the workload's input
set is built SETUP_REPS times from cold caches (setup_s is the median),
one pass warms compacta's caches, then whole passes over the op list run
until `--seconds` have gone by.  An op's latency is the fastest of its
runs, in time scaled to a reference machine speed (see clock.py); the
end-to-end metrics are taken over those latencies, and the same figures
in raw wall time go to the `# raw` line and the run record.  With
`--trace 1` whole passes alternate untraced and traced; the per-layer
metrics are the traced set-up plus the median traced pass, and the
tracing overhead compares the two kinds of pass.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Inputs,
traces and run records go under `.bench_work/`.  See bench/NOTES.md."""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

from clock import UNSET, OpClock, calibrate, scaled_call
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

HELD_OUT_SEED = 7919  # reserved for confirming claims; never tune on it
SETUP_REPS = 3
HARD_STOP_S = 120  # passes stop after this, even in the middle of one
MIN_PASSES = 2  # timed passes per untraced run, at the least

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# (span name, fields): busy_s and calls come from the spans, the other
# fields from counts the ops read off return values.
LAYERS = [
    ("construct.construct_limit", ("busy_s", "calls", "components")),
    ("compactum.cb_derivative", ("busy_s",)),
    ("compactum.reduction", ("busy_s",)),
    ("compactum.canonical_form", ("busy_s",)),
    ("boolalg.stone_space", ("busy_s",)),
    ("boolalg.clopen_algebra", ("busy_s",)),
    ("boolalg.quotient_by_junk", ("busy_s",)),
    ("boolalg.tree_algebra", ("busy_s",)),
    ("boolalg.canonical_form", ("busy_s",)),
    ("boolalg.verify_isomorphism", ("busy_s",)),
    ("boolalg.build_isomorphism", ("busy_s", "calls", "refused")),
    (
        "compact.cover",
        ("busy_s", "calls", "balls", "flagged_pairs", "flag_scans_skipped"),
    ),
    ("compact.cover_is_valid", ("busy_s", "calls")),
    ("compact.balls_intersect", ("busy_s", "calls", "true_share")),
    ("compactum.compactum_contains", ("busy_s", "calls")),
    ("compact.clopen_partitions", ("busy_s", "emitted")),
    ("banach.sup_norm", ("busy_s", "calls")),
    ("banach.dense_family", ("busy_s",)),
    ("construct.enumerate_stage", ("busy_s", "calls", "points", "nets")),
    ("construct.hausdorff_gap", ("busy_s", "calls")),
]
LAYERS += [
    (f"cli.main.{name}", ("busy_s", "calls"))
    for name in (
        "construct", "simulate", "derive", "reduce", "stone", "dualcheck",
        "algebra", "quotient", "iso", "cover", "partitions", "supnorm",
        "suite", "render-svg",
    )
]
LAYERS += [
    (name, ("busy_s",))
    for name in (
        "trees.parse_tree", "trees.print_tree", "trees.parse_script",
        "trees.print_script", "compactum.parse_compactum",
        "compactum.print_compactum", "boolalg.parse_ba", "boolalg.print_ba",
        "compact.parse_cover", "compact.print_cover", "banach.parse_plf",
        "banach.print_plf", "svg.render_tree_svg",
    )
]
UNITS = {"busy_s": "s", "true_share": "ratio"}


def per_layer_names() -> list[tuple[str, str]]:
    names = [
        (f"{span}.{field}", UNITS.get(field, "count"))
        for span, fields in LAYERS
        for field in fields
    ]
    return names + [("trace.overhead_share", "ratio")]


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def import_compacta():
    """Import compacta from this checkout's src/, or exit 2."""
    if not (SRC / "compacta" / "__init__.py").is_file():
        sys.stderr.write(f"error: no compacta sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import compacta

    if Path(compacta.__file__).resolve().parent != SRC / "compacta":
        sys.stderr.write(f"error: compacta imported from {compacta.__file__}\n")
        sys.exit(2)
    return compacta


def git_commit() -> str:
    """HEAD commit read from .git without running git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "compacta").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def meta(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256_16": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()

    def record(self, kind: str, ok: bool, error: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors[f"{kind}: {error or 'wrong answer'}"] += 1


def run_op(kind, fn, tr, tally: Tally) -> None:
    try:
        ok = bool(fn(tr))
        tally.record(kind, ok)
    except Exception as exc:  # a failed op is counted, never fatal
        tally.record(kind, False, f"{type(exc).__name__}: {exc}")


def clear_caches() -> None:
    """Empty compacta's module-level caches (functools.lru_cache), so that
    each set-up starts as cold as the first."""
    for name, module in list(sys.modules.items()):
        if name == "compacta" or name.startswith("compacta."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def run_pass(ops, tr, tally: Tally, clock: OpClock, hard_stop: int, label=None) -> bool:
    """One pass over the op list, in order, each op's run recorded on the
    clock.  With a label, each op gets a span `op.<kind>` with its layer
    spans below it.  Returns False when the hard stop cut the pass short."""
    for i, (kind, fn) in enumerate(ops):
        if label is not None:
            tr.op_id = f"{label}{i}"
            tr.open(f"op.{kind}")
        t0 = perf_counter_ns()
        run_op(kind, fn, tr, tally)
        t1 = perf_counter_ns()
        if label is not None:
            tr.close()
        clock.record(i, t0, t1)
        if t1 >= hard_stop:
            return False
    return True


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return values[max(0, math.ceil(q * len(values)) - 1)]


def op_label(op, i: int) -> str:
    kind, fn = op
    return getattr(fn, "label", f"{kind} #{i}")


def summary(best: array) -> dict:
    """ops_per_s, op_p50_ms and op_p99_ms over the ops that ran."""
    lat = sorted(t for t in best if t != UNSET)
    return {
        "ops_per_s": len(lat) / (sum(lat) / 1e9),
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_p99_ms": percentile(lat, 0.99) / 1e6,
    }


def cold_setup(setup, args, work: Path) -> tuple[list, float, float]:
    """Build the input set with compacta's caches emptied first; returns
    the ops and the seconds it took, scaled and raw."""
    gc.collect()
    clear_caches()
    ops, raw, scaled = scaled_call(setup, random.Random(args.seed), work, NullTracer())
    return ops, scaled / 1e9, raw / 1e9


def run_untraced(setup, args, work: Path, tally: Tally, out: dict) -> dict:
    ops, *first = cold_setup(setup, args, work)
    setups = [first]
    gc.collect()
    gc.freeze()  # the input set is harness state: keep it out of GC scans
    clock = OpClock()
    start = perf_counter_ns()
    deadline = start + int(args.seconds * 1e9)
    hard_stop = start + HARD_STOP_S * 10**9
    # The warm-up pass fills compacta's caches (such as the addressing
    # cache in dyadic), which a long-lived caller has warm.  Its runs
    # count like any other, so every op that ran has a time.
    whole = run_pass(ops, NullTracer(), tally, clock, hard_stop)
    rss = peak_rss_mb()  # set-up plus one pass over every input
    pass_s = []
    # The other set-ups are spread over the run between passes, so that
    # their median, like the op times, spans the machine's spells.
    spacing = args.seconds * 1e9 / SETUP_REPS
    while whole and (len(pass_s) < MIN_PASSES or perf_counter_ns() < deadline):
        t0 = perf_counter_ns()
        whole = run_pass(ops, NullTracer(), tally, clock, hard_stop)
        pass_s.append((perf_counter_ns() - t0) / 1e9)
        if len(setups) < SETUP_REPS and perf_counter_ns() - start >= len(setups) * spacing:
            setups.append(cold_setup(setup, args, work)[1:])
    while whole and len(setups) < SETUP_REPS:  # none after a hard stop
        setups.append(cold_setup(setup, args, work)[1:])
    gc.unfreeze()
    # An op's latency is the fastest of its scaled runs.  The quantiles
    # are over the fixed op set of the seed.
    best, best_raw = clock.best(len(ops))
    ran = [i for i, t in enumerate(best) if t != UNSET]
    values = summary(best)
    p99 = values["op_p99_ms"] * 1e6
    beyond = [op_label(ops[i], i) for i in ran if best[i] > p99]
    by_kind: dict[str, list[float]] = {}
    for i in ran:
        by_kind.setdefault(ops[i][0], []).append(best[i])
    out["samples"] = len(ran)
    out["samples_beyond_p99"] = len(beyond)
    out["distinct_beyond_p99"] = len(set(beyond))
    out["ops_not_run"] = len(ops) - len(ran)
    out["timed_passes"] = len(pass_s)
    out["raw"] = summary(best_raw) | {
        "setup_s": statistics.median(raw for _, raw in setups)
    }
    out["calibration_ns_median"] = statistics.median(clock.cals)
    out["pass_s"] = pass_s
    out["setup_s_all"] = setups
    out["beyond_p99"] = sorted(beyond)
    out["per_kind"] = {
        k: {"n": len(v), "p50_ms": statistics.median(v) / 1e6, "sum_s": sum(v) / 1e9}
        for k, v in sorted(by_kind.items())
    }
    return values | {
        "setup_s": statistics.median(scaled for scaled, _ in setups),
        "peak_rss_mb": rss,
    }


def layer_values(busy, calls, counts) -> dict:
    vals = {}
    for span, fields in LAYERS:
        for field in fields:
            if field == "busy_s":
                v = busy.get(span, 0.0)
            elif field == "calls":
                v = calls[span]
            elif field == "true_share":
                n = calls[span]
                v = counts[f"{span}.true"] / n if n else 0.0
            else:
                v = counts[f"{span}.{field}"]
            vals[f"{span}.{field}"] = v
    return vals


def run_traced(setup, args, work: Path, tally: Tally, out: dict, trace_path: Path) -> dict:
    """Traced set-up, then whole passes alternating untraced and traced.
    Layer values are the set-up plus the median traced pass.  The overhead
    is the sum of the ops' fastest scaled traced times over the same sum
    for their untraced runs, minus 1."""
    tr = Tracer()
    ops = setup(random.Random(args.seed), work, tr)
    setup_busy, setup_calls = tr.busy_and_calls(0)
    setup_counts = Counter(tr.counts)
    plain, traced = OpClock(), OpClock()
    start = perf_counter_ns()
    deadline = start + int(args.seconds * 1e9)
    hard_stop = start + HARD_STOP_S * 10**9
    whole = run_pass(ops, NullTracer(), tally, plain, hard_stop)
    per_pass: list[dict] = []
    p = 0
    while whole and (not per_pass or perf_counter_ns() < deadline):
        gc.collect()
        if not run_pass(ops, NullTracer(), tally, plain, hard_stop):
            break
        gc.collect()
        since, before = tr.mark()
        whole = run_pass(ops, tr, tally, traced, hard_stop, label=f"pass{p}.")
        busy, calls = tr.busy_and_calls(since)
        for name, v in setup_busy.items():
            busy[name] += v
        calls.update(setup_calls)
        counts = tr.counts - before
        counts.update(setup_counts)
        per_pass.append(layer_values(busy, calls, counts))
        p += 1
    if not per_pass:  # the hard stop came first: report the set-up alone
        per_pass.append(layer_values(setup_busy, setup_calls, setup_counts))
    # Counts repeat exactly from pass to pass; times take the median.
    vals = dict(per_pass[0])
    for name in vals:
        if name.endswith(".busy_s"):
            vals[name] = statistics.median(pp[name] for pp in per_pass)
    a, b = plain.best(len(ops))[0], traced.best(len(ops))[0]
    both = [i for i in range(len(ops)) if a[i] != UNSET and b[i] != UNSET]
    overhead = sum(b[i] for i in both) / sum(a[i] for i in both) - 1 if both else 0.0
    vals["trace.overhead_share"] = overhead
    out["passes"] = p
    out["self_s"] = dict(sorted(tr.self_times().items(), key=lambda kv: -kv[1]))
    tr.write(trace_path, {"meta": out["meta"], "overhead_share": overhead})
    return vals


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_compacta()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    setup = WORKLOADS[args.workload]
    for _ in range(10):
        calibrate()  # warm the calibration loop before it is relied on

    info: dict = {"meta": meta(args)}
    tally = Tally()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"inputs-{tag}-{os.getpid()}"
    try:
        if args.trace:
            trace_path = WORK / "traces" / f"{tag}.json"
            values = run_traced(setup, args, work, tally, info, trace_path)
            units = dict(per_layer_names())
        else:
            values = run_untraced(setup, args, work, tally, info)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["meta"]["loadavg_end"] = os.getloadavg()
    info["error_rate"] = tally.failed / max(1, tally.attempted)
    info["errors"] = dict(tally.errors.most_common(10))
    info["metrics"] = values

    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (runs / f"{tag}-{stamp}-{os.getpid()}.json").write_text(json.dumps(info, indent=1))

    shown = (
        "meta", "samples", "samples_beyond_p99", "distinct_beyond_p99",
        "ops_not_run", "timed_passes", "passes", "raw", "errors",
    )
    for key in shown:
        if key in info:
            print(f"# {key}: {json.dumps(info[key])}")
    rate = info["error_rate"]
    print(f"# error_rate: {rate} ratio ({tally.failed}/{tally.attempted})")
    for name, v in values.items():
        print(f"# {name}: {v} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
