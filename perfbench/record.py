"""Record the reference data the workloads read (compile's output
digests and the looping members of difftest's trial pool), or measure
the baseline figures the benchmark reproduces.

    python3 perfbench/record.py reference  # rewrites perfbench/reference.json
    python3 perfbench/record.py baseline  # prints the figures as JSON

Both are taken from the code being benchmarked, so record them only at
a commit whose output is known to be right; every later commit must
reproduce the digests byte for byte.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from il import cli  # noqa: E402

import corpus  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

RECORDED_SEEDS = tuple(range(64))
RECHECK_SEED = 20261017  # kept out of every change while it is written


POOL_SIZE = 8000  # difftest trials per pass whose looping members are recorded


def looping_trials(pass_name: str) -> list[list[int]]:
    """[pool index, fuel exhaustions] of each trial that ends exhausted at
    the gate's depth and fuel; a looping trial's cost grows with its
    exhaustions."""
    out = []
    for i in range(POOL_SIZE):
        argv = ["difftest", "--pass", pass_name, "--trials", "1", "--seed", str(workloads.pool_seed(pass_name, i)),
                "--depth", str(workloads.DEPTH), "--fuel", str(workloads.FUEL)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(argv)
        if '"verdict": "exhausted' in buf.getvalue():
            tracer = Tracer()
            tracer.install()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(argv)
            finally:
                tracer.uninstall()
            out.append([i, tracer.counts.get("out_of_fuel", 0)])
    return out


def record_reference() -> None:
    structured: dict[str, str] = {}
    typical: dict[str, str] = {}
    for seed in RECORDED_SEEDS + (RECHECK_SEED,):
        wl = workloads.Compile(seed, {"structured": {}, "typical": {}})
        for item in wl.items:
            if item.kind == "typical" or not structured.get(workloads.digest(item.args[0])):
                item.key = wl.key(wl.run(item))
            if item.kind != "typical" and item.key is not None:
                structured[workloads.digest(item.args[0])] = workloads.digest(item.key)
        typical[str(seed)] = wl.typical_outputs_digest()
    pool = {"size": POOL_SIZE, "looping": {p: looping_trials(p) for p in ("uce", "dve")}}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"structured": structured, "typical": typical, "difftest_pool": pool}, fh, sort_keys=True)
        fh.write("\n")


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def baseline() -> dict:
    out: dict = {"recheck_seed": RECHECK_SEED}
    for pass_name in ("uce", "dve"):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            cli.main(["difftest", "--pass", pass_name, "--trials", "500", "--seed", "0"])
        out[f"difftest_{pass_name}_seed0"] = {
            "trials": 500,
            "exhausted": buf.getvalue().count('"verdict": "exhausted'),
            "wall_s": time.perf_counter() - t0,
        }
    text, _ = corpus.counter_loop(100_000, 1, 0)
    config = cli.Config((), {}, cli.parse_program(text))
    tracer = Tracer()
    tracer.install()
    cli.run_trace(config, cli.SeededOracle(0), 10**7)
    tracer.uninstall()
    steps = tracer.silent_steps()
    wall = _median_s(lambda: cli.run_trace(config, cli.SeededOracle(0), 10**7), 3)
    out["counter_loop_1e5"] = {"silent_steps": steps, "wall_s": wall, "steps_per_s": steps / wall}
    out["infer_tlive_forward_chain_ms"] = {
        str(k): 1e3 * _median_s(lambda t=cli.parse_program(corpus.forward_chain(k)): cli.infer_tlive(t), 3)
        for k in workloads.Compile.CHAINS
    }
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    il_parse = [sys.executable, "-m", "il.cli", "parse", "/dev/stdin"]
    out["cold_start_s"] = {
        "il_parse_one_line": _median_s(
            lambda: subprocess.run(il_parse, input=b"f(1)\n", env=env, check=True, capture_output=True), 15
        ),
        "bare_python": _median_s(lambda: subprocess.run([sys.executable, "-c", "pass"], check=True), 15),
    }
    return out


if __name__ == "__main__":
    if sys.argv[1:] == ["reference"]:
        record_reference()
    elif sys.argv[1:] == ["baseline"]:
        print(json.dumps(baseline(), indent=1))
    else:
        sys.exit(__doc__)
