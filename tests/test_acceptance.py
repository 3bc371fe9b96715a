"""Acceptance gate: one test per shipping requirement, one PASS/FAIL
line each.  Run with `pytest tests/test_acceptance.py -v -s` to see the
lines; every test also asserts its stated runtime budget.
"""

import random
import time
from functools import lru_cache

from audits import initial_env, reach_audit, tlive_audit
from il.equiv import (
    Distinguished,
    EquivalentToDepth,
    Exhausted,
    check_bisim,
    check_sim,
    default_probes,
    enumerate_traces,
)
from il.harness import (
    GenConfig,
    derive_seed,
    difftest_dve,
    difftest_uce,
    gen_program,
)
from il.reach import infer_reach
from il.semantics import Config, SeededOracle, run_trace, trace_text
from il.syntax import (
    Cond,
    Const,
    Exp,
    Let,
    SysCall,
    Var,
    parse_program,
    print_program,
    term_size,
)
from il.tlive import infer_tlive
from il.transform import dve, uce

LEFT = "fun f(x, y) = if 9 < x then 1 else f(x + 1, y) in f(3, 2)"
RIGHT = "fun f(x) = if 9 < x then 1 else f(x + 1) in f(3)"


def _report(name: str, ok: bool, elapsed: float, budget: float) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded {budget}s: {elapsed:.2f}s"


def test_01_golden_dead_variable_elimination():
    start = time.monotonic()
    left = parse_program(LEFT)
    right = parse_program(RIGHT)

    optimized = dve({}, {}, infer_tlive(left))
    structurally_equal = optimized == right

    runs = [
        trace_text(run_trace(Config((), {}, t), SeededOracle(0), fuel=1000))
        for t in (left, right)
    ]
    both_terminate_at_one = runs == ["END TERM 1\n", "END TERM 1\n"]

    verdict = check_sim(
        Config((), {}, left), Config((), {}, right), depth=16, probes=(0, 1), fuel=1000
    )
    similar = verdict == EquivalentToDepth(16)

    elapsed = time.monotonic() - start
    _report(
        "golden example: dve output, END TERM 1 both sides, similar to depth 16",
        structurally_equal and both_terminate_at_one and similar,
        elapsed,
        1.0,
    )


def test_02_uce_differential_500_trials():
    start = time.monotonic()
    report = difftest_uce(GenConfig(seed=0), trials=500, depth=8, fuel=10_000)
    ok = report.accepted == 500 and report.distinguished == 0 and report.rejected == 0 and report.exhausted == 0
    elapsed = time.monotonic() - start
    _report(
        "uce: 500 seeded trials, 500/500 checker-accepted, 0 distinguished, 0 exhausted",
        ok,
        elapsed,
        300.0,
    )


def test_03_dve_differential_500_trials():
    start = time.monotonic()
    report = difftest_dve(GenConfig(seed=0), trials=500, depth=8, fuel=10_000)
    ok = report.accepted == 500 and report.distinguished == 0 and report.rejected == 0 and report.exhausted == 0
    elapsed = time.monotonic() - start
    _report(
        "dve: 500 seeded trials with perturbed environments, 0 distinguished, 0 exhausted",
        ok,
        elapsed,
        300.0,
    )


# Exhaustive corpus for the oracle cross-validation: every term of depth
# at most 4 drawn from two leaves, two pure binding values, one nullary
# system call (at most 2 sites), and one conditional layer (at most 1)
# over two scrutinees.  14,846 distinct terms; all executions terminate.
_LEAVES = (Exp(Var("x")), Exp(Const(0)))
_LET_VALS = (Const(1), Var("a"))
_COND_EXPRS = (Var("x"), Const(0))


@lru_cache(maxsize=None)
def _corpus(depth: int, ext: int, cond: int) -> frozenset:
    out = set(_LEAVES)
    if depth == 0:
        return frozenset(out)
    for v in _LET_VALS:
        for b in _corpus(depth - 1, ext, cond):
            out.add(Let("x", v, b))
    if ext > 0:
        for b in _corpus(depth - 1, ext - 1, cond):
            out.add(Let("x", SysCall("rd", ()), b))
    if cond > 0:
        for c in _COND_EXPRS:
            for left_ext in range(ext + 1):
                for b1 in _corpus(depth - 1, left_ext, cond - 1):
                    for b2 in _corpus(depth - 1, ext - left_ext, cond - 1):
                        out.add(Cond(c, b1, b2))
    return frozenset(out)


def test_04_trace_oracle_agrees_with_game():
    start = time.monotonic()
    corpus = sorted(_corpus(4, 2, 1), key=lambda t: (term_size(t), print_program(t)))
    assert len(corpus) > 10_000

    pairs = []
    for t in corpus:
        out = uce(infer_reach(t))
        if out != t:
            pairs.append((t, out))
        if len(pairs) == 100:
            break
    for t in corpus:
        out = dve({}, {}, infer_tlive(t))
        if out != t:
            pairs.append((t, out))
        if len(pairs) == 150:
            break
    rng = random.Random(2026)
    for _ in range(100):
        pairs.append((rng.choice(corpus), rng.choice(corpus)))
    assert len(pairs) >= 200

    env = {"x": 0, "a": 1}
    probes = (0, 1)
    agreements = 0
    for a, b in pairs:
        ca, cb = Config((), dict(env), a), Config((), dict(env), b)
        traces_equal = enumerate_traces(ca, depth=6, probes=probes, fuel=10_000) == enumerate_traces(
            cb, depth=6, probes=probes, fuel=10_000
        )
        game = check_bisim(ca, cb, depth=6, probes=probes, fuel=10_000)
        agreements += traces_equal == isinstance(game, EquivalentToDepth)

    elapsed = time.monotonic() - start
    _report(
        f"oracle cross-validation: trace-set equality matches game verdict on {agreements}/{len(pairs)} pairs",
        agreements == len(pairs),
        elapsed,
        300.0,
    )


def _random_pair(tag: int, n: int):
    cfg = GenConfig(seed=derive_seed(tag, n))
    t1 = gen_program(cfg)
    t2 = gen_program(GenConfig(seed=derive_seed(tag + 1, n)))
    env = initial_env(t1, random.Random(n))
    env.update(initial_env(t2, random.Random(n + 1)))
    return t1, t2, env


def test_05_game_checker_properties():
    start = time.monotonic()

    reflexive_failures = 0
    for i in range(200):
        cfg = GenConfig(seed=derive_seed(500, i))
        t = gen_program(cfg)
        env = initial_env(t, random.Random(i))
        v = check_bisim(
            Config((), dict(env), t), Config((), dict(env), t), depth=6, probes=default_probes(t), fuel=4000
        )
        reflexive_failures += isinstance(v, Distinguished)

    asymmetries = 0
    for i in range(200):
        t1, t2, env = _random_pair(510, i)
        probes = default_probes(t1, t2)
        a = check_bisim(Config((), dict(env), t1), Config((), dict(env), t2), depth=5, probes=probes, fuel=3000)
        b = check_bisim(Config((), dict(env), t2), Config((), dict(env), t1), depth=5, probes=probes, fuel=3000)
        asymmetries += isinstance(a, Distinguished) != isinstance(b, Distinguished)

    weakening_failures = 0
    for i in range(200):
        t1, t2, env = _random_pair(520, i)
        probes = default_probes(t1, t2)
        b = check_bisim(Config((), dict(env), t1), Config((), dict(env), t2), depth=5, probes=probes, fuel=3000)
        if isinstance(b, EquivalentToDepth):
            s = check_sim(Config((), dict(env), t1), Config((), dict(env), t2), depth=5, probes=probes, fuel=3000)
            weakening_failures += not isinstance(s, EquivalentToDepth)

    ok = reflexive_failures == 0 and asymmetries == 0 and weakening_failures == 0
    elapsed = time.monotonic() - start
    _report(
        "game checker: reflexivity 200/200, verdict symmetry 200/200, sim-weakening 200/200",
        ok,
        elapsed,
        300.0,
    )


def test_06_constant_condition_folding():
    start = time.monotonic()
    certified = 0
    distinguished = 0
    draws = 0
    i = 0
    # draws whose executions out-run the fuel bound cannot be certified
    # either way by a bounded game, so they are skipped and redrawn;
    # any distinguished verdict at all fails
    while certified < 200 and draws < 400:
        rng = random.Random(derive_seed(600, i))
        t1 = gen_program(GenConfig(seed=derive_seed(601, i), max_depth=3))
        t2 = gen_program(GenConfig(seed=derive_seed(602, i), max_depth=3))
        k = rng.choice([0, 1, 2, 9])
        original = Cond(Const(k), t1, t2)
        folded = t1 if k else t2
        env = initial_env(original, rng)
        v = check_bisim(
            Config((), dict(env), original),
            Config((), dict(env), folded),
            depth=8,
            probes=default_probes(original, folded),
            fuel=10_000,
        )
        draws += 1
        i += 1
        if isinstance(v, Distinguished):
            distinguished += 1
        elif isinstance(v, EquivalentToDepth):
            certified += 1

    ok = certified == 200 and distinguished == 0
    elapsed = time.monotonic() - start
    _report(
        f"constant-condition folds bisimilar to depth 8: {certified}/200 certified, {distinguished} distinguished",
        ok,
        elapsed,
        300.0,
    )


def test_07_semantic_audits():
    start = time.monotonic()

    live_ok = 0
    for i in range(200):
        t = gen_program(GenConfig(seed=derive_seed(0, i)))
        live_ok += tlive_audit(t, seed=i, fuel=4000)

    reach_ok = 0
    for i in range(200):
        t = gen_program(GenConfig(seed=derive_seed(1, i)))
        env = initial_env(t, random.Random(i))
        reach_ok += reach_audit(t, env, SeededOracle(i), fuel=4000)

    ok = live_ok == 200 and reach_ok == 200
    elapsed = time.monotonic() - start
    _report(
        f"semantic audits: dead-variable perturbation {live_ok}/200 identical traces, "
        f"instrumented reachability {reach_ok}/200 within marked nodes",
        ok,
        elapsed,
        300.0,
    )


def test_08_mutation_sensitivity():
    import il.tlive
    import il.transform

    start = time.monotonic()
    caught = []

    real_filter = il.transform.filter_list
    il.transform.filter_list = lambda pred, xs: real_filter(pred, xs)[1:]
    try:
        rep = difftest_dve(GenConfig(seed=0), trials=500, stop_early=True)
        caught.append(any(r.verdict == "distinguished" for r in rep.records))
    finally:
        il.transform.filter_list = real_filter

    real_sb = il.transform.static_branch
    il.transform.static_branch = lambda e: None if real_sb(e) is None else not real_sb(e)
    try:
        rep = difftest_uce(GenConfig(seed=0), trials=500, stop_early=True)
        caught.append(any(r.verdict == "distinguished" for r in rep.records))
    finally:
        il.transform.static_branch = real_sb

    real_fact = il.tlive._fact
    il.tlive._fact = lambda term, kids, callee: real_fact(term, kids, None)
    try:
        rep = difftest_dve(GenConfig(seed=0), trials=500, stop_early=True)
        caught.append(any(not r.accepted for r in rep.records))
    finally:
        il.tlive._fact = real_fact

    ok = caught == [True, True, True]
    elapsed = time.monotonic() - start
    _report(
        "mutation sensitivity: dropped live parameter, inverted branch fold, "
        "skipped context extension all caught within 500 trials",
        ok,
        elapsed,
        300.0,
    )
