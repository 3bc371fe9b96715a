"""Benchmark for il: one seeded workload per run, timed from outside.

    python3 perfbench/run.py --workload difftest|compile|run|game \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; il is imported from src/.  The run
builds the workload's inputs from the seed, runs an untimed round that
checks every output against its reference, then times rounds over the
corpus until --seconds have passed (at least one round).  Every later
output must equal the checked one.  setup_s is the median wall time of
three fresh interpreters that import il.cli and build the inputs; that
is the only subprocess the benchmark starts.

With --trace 1 the timed rounds are followed by as many rounds again
with spans around the calls into each il module (see spans.py), and the
result reports the per-layer metrics of those rounds instead of the
end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The lines before it print every metric by name and unit,
including those the JSON leaves out because they apply to one workload
only.  The exit code is 1 when an output is wrong and 2 when il cannot
be imported.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from clock import Clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 3
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)


def load_workload(name: str, seed: int):
    import workloads

    if name in ("compile", "difftest"):
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        if name == "compile":
            return workloads.Compile(seed, reference)
        return workloads.Difftest(seed, reference["difftest_pool"])
    return {"run": workloads.Run, "game": workloads.Game}[name](seed)


def measure_setup(args) -> list[float]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    clock = Clock()
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, timeout=120)
        times.append(clock.scale(time.perf_counter() - t0))
    return times


class Tally:
    """Scaled latencies per item and failure counts over timed rounds."""

    def __init__(self, n: int):
        self.latency: list[list[float]] = [[] for _ in range(n)]
        self.clock = Clock()
        self.attempted = 0
        self.raised = 0
        self.undecided = 0
        self.rounds = 0

    @property
    def busy_s(self) -> float:
        return self.clock.scaled_s


def one_round(wl, tally: Tally) -> None:
    from workloads import Mismatch

    for i, item in enumerate(wl.items):
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            out = wl.run(item)
        except Exception:  # a failed operation is counted and the run goes on
            tally.raised += 1
            if tally.raised <= 3:
                traceback.print_exc(file=sys.stderr)
            continue
        tally.clock.add(tally.latency[i], time.perf_counter() - t0)
        if item.decided is None:
            item.decided = wl.check(item, out)
            item.key = wl.key(out)
        elif wl.key(out) != item.key:
            raise Mismatch(f"{wl.name}: {item.kind} output changed between rounds")
        tally.undecided += not item.decided
    tally.clock.flush()
    tally.rounds += 1


def timed_rounds(wl, seconds: float, rounds: int = 0) -> Tally:
    """Rounds until seconds have passed (at least one), or exactly
    rounds rounds when given."""
    tally = Tally(len(wl.items))
    start = time.perf_counter()
    while True:
        one_round(wl, tally)
        elapsed = time.perf_counter() - start
        if rounds:
            if tally.rounds >= rounds:
                return tally
        elif elapsed + elapsed / tally.rounds > seconds:
            return tally


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest ladder percentile with at least ten samples
    beyond it (nearest rank), that percentile, and the samples beyond."""
    xs = sorted(samples)
    n = len(xs)
    best = (xs[-1], 100.0, 0)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            best = (xs[rank - 1], p, n - rank)
    return best


def end_to_end(wl, tally: Tally, setup: list[float], steps_per_round: int) -> tuple[dict, list[str]]:
    per_item = [statistics.median(lat) for lat in tally.latency if lat]
    ops = sum(len(lat) for lat in tally.latency)
    value, pct, beyond = tail(per_item)
    failed = tally.raised + tally.undecided
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops / tally.busy_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(per_item), "ms"),
        "op_tail_ms": (1e3 * value, "ms"),
        "decided_share": (1 - failed / tally.attempted, "share"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)}",
        "op_p50_ms": f"median over {len(per_item)} items of each item's median",
        "op_tail_ms": f"p{pct:g} of {len(per_item)} items, {beyond} beyond",
        "decided_share": f"{tally.attempted - failed} of {tally.attempted}",
    }
    lines = [f"{name} {v:.6g} {unit}" + (f" ({notes[name]})" if name in notes else "")
             for name, (v, unit) in metrics.items()]
    lines.append(
        f"failed_share {failed / tally.attempted:.6g} share"
        f" ({failed} of {tally.attempted}: {tally.raised} raised, {tally.undecided} undecided)"
    )
    nodes = sum(item.nodes * len(lat) for item, lat in zip(wl.items, tally.latency))
    lines.append(f"nodes_per_s {nodes / tally.busy_s:.6g} nodes/s (input term nodes)")
    if wl.name == "compile":
        ratio = sum(i.out_nodes for i in wl.items) / sum(i.nodes for i in wl.items)
        lines.append(f"size_ratio {ratio:.6g} ratio (output over input nodes after uce then dve)")
        recorded = "recorded" if wl.typical_digest else "not recorded"
        lines.append(f"output digests: structured shapes checked; typical groups {recorded} for this seed")
    if steps_per_round:
        steps = steps_per_round * tally.rounds
        lines.append(f"steps_per_s {steps / tally.busy_s:.6g} 1/s (silent steps, counted in the untimed round)")
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="il benchmark")
    ap.add_argument("--workload", required=True, choices=("difftest", "compile", "run", "game"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import il.cli  # noqa: F401
    except ImportError as exc:
        print(f"cannot import il from {os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        load_workload(args.workload, args.seed)
        return 0

    from workloads import Mismatch

    setup = measure_setup(args)
    wl = load_workload(args.workload, args.seed)
    print(f"workload {wl.name} seed {args.seed}: {len(wl.items)} items")
    from spans import Tracer

    steps_per_round = 0
    try:
        if wl.name == "run":  # the only workload whose steps_per_s is reported
            tracer = Tracer()
            tracer.install()
            try:
                one_round(wl, Tally(len(wl.items)))
            finally:
                tracer.uninstall()
            steps_per_round = tracer.silent_steps()
        elif wl.warmup:
            one_round(wl, Tally(len(wl.items)))
        wl.after_warmup()
        tally = timed_rounds(wl, args.seconds)
        print(f"{tally.rounds} timed rounds, {tally.attempted} ops, {tally.clock.raw_s:.3f} s in ops"
              f" ({tally.busy_s:.3f} s scaled)")
        metrics, lines = end_to_end(wl, tally, setup, steps_per_round)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = timed_rounds(wl, 0, rounds=tally.rounds)
            finally:
                tracer.uninstall()
            scale = traced.busy_s / traced.clock.raw_s
            metrics = tracer.layer_metrics(traced.rounds, scale, traced.busy_s, tally.busy_s)
            lines += [f"{name} {v:.6g} {unit}" for name, (v, unit) in metrics.items()]
            tally = traced
    except Mismatch as exc:
        print(f"WRONG OUTPUT: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for line in lines:
        print(line)
    result = {
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.raised,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
