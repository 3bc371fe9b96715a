"""Bounded similarity and bisimilarity checking."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from audits import ListOracle, initial_env, reference_config_key, reference_game, refereed

from il import equiv, syntax
from il.equiv import (
    Distinguished,
    EquivalentToDepth,
    Exhausted,
    check_bisim,
    check_sim,
    default_probes,
    enumerate_traces,
    make_probes,
)
from il.harness import GenConfig, derive_seed, difftest, gen_program, shrink_term
from il.semantics import Closure, Config, Cutoff, Diverged, Terminated, config_key, run_trace
from il.syntax import Let, Nodes, Var, parse_program, print_program, term_fact, term_size
from il.transform import run_pass

LEFT = "fun f(x, y) = if 9 < x then 1 else f(x + 1, y) in f(3, 2)"
RIGHT = "fun f(x) = if 9 < x then 1 else f(x + 1) in f(3)"


def conf(src, env=None):
    return Config((), dict(env or {}), parse_program(src))


# -- probe sets


def test_make_probes_dedups_preserving_order():
    assert make_probes([3, 1, 3, 2, 1]) == (3, 1, 2)


def test_make_probes_wraps_to_64_bits_before_dedup():
    assert make_probes([2**64 + 1, 1, -(2**63) - 1, 2**63]) == (1, 2**63 - 1, -(2**63))


def test_make_probes_rejects_empty():
    with pytest.raises(ValueError):
        make_probes([])


def test_default_probes_are_constants_plus_bits():
    t1 = parse_program("if x then 5 else 3")
    t2 = parse_program("9")
    assert default_probes(t1, t2) == (0, 1, 3, 5, 9)
    assert default_probes(parse_program("x")) == (0, 1)


# -- terminal comparisons


def test_identical_values_equivalent():
    v = check_bisim(conf("3"), conf("3"), depth=4, probes=(0, 1), fuel=100)
    assert v == EquivalentToDepth(4)


def test_different_values_distinguished():
    v = check_bisim(conf("3"), conf("4"), depth=4, probes=(0, 1), fuel=100)
    assert isinstance(v, Distinguished)
    assert v.events == ()
    assert "3" in v.reason and "4" in v.reason


def test_both_undefined_equivalent():
    v = check_bisim(conf("1 / 0"), conf("x"), depth=4, probes=(0, 1), fuel=100)
    assert v == EquivalentToDepth(4)


def test_value_vs_undefined_distinguished():
    v = check_bisim(conf("3"), conf("1 / 0"), depth=4, probes=(0, 1), fuel=100)
    assert isinstance(v, Distinguished)
    assert "BOT" in v.reason


def test_terminal_vs_pending_call_distinguished():
    v = check_bisim(conf("3"), conf("let x = extern r() in x"), depth=4, probes=(0, 1), fuel=100)
    assert isinstance(v, Distinguished)


def test_sim_error_escape_is_one_directional():
    # a stuck left side simulates anything, but not vice versa
    left, right = conf("1 / 0"), conf("let x = extern r() in x")
    assert check_sim(left, right, depth=4, probes=(0, 1), fuel=100) == EquivalentToDepth(4)
    v = check_sim(right, left, depth=4, probes=(0, 1), fuel=100)
    assert isinstance(v, Distinguished)
    v = check_bisim(left, right, depth=4, probes=(0, 1), fuel=100)
    assert isinstance(v, Distinguished)


# -- system-call rounds


def test_matching_calls_consume_depth():
    src = "let x = extern r() in x"
    assert check_bisim(conf(src), conf(src), depth=3, probes=(0, 1), fuel=100) == EquivalentToDepth(3)


def test_depth_zero_cuts_before_comparing_calls():
    # even mismatched pending calls are invisible at depth 0
    l = conf("let x = extern r() in x")
    r = conf("let x = extern w(1) in x")
    assert check_bisim(l, r, depth=0, probes=(0, 1), fuel=100) == EquivalentToDepth(0)
    v = check_bisim(l, r, depth=1, probes=(0, 1), fuel=100)
    assert isinstance(v, Distinguished)
    assert "pending" in v.reason


def test_action_name_mismatch_distinguished():
    l = conf("let x = extern r() in x")
    r = conf("let x = extern r(1) in x")
    v = check_bisim(l, r, depth=2, probes=(0, 1), fuel=100)
    assert isinstance(v, Distinguished)


def test_divergence_after_shared_prefix():
    l = conf("let x = extern r() in x")
    r = conf("let x = extern r() in x + 1")
    v = check_bisim(l, r, depth=4, probes=(0, 1), fuel=100)
    assert isinstance(v, Distinguished)
    assert len(v.events) == 1
    assert v.events[0].action == "r"
    assert len(v.probes) == 1


def test_witness_probe_replays_to_divergence():
    l = conf("let x = extern r() in if x then x else 9")
    r = conf("let x = extern r() in x")
    v = check_bisim(l, r, depth=4, probes=(0, 9), fuel=100)
    assert isinstance(v, Distinguished)
    lt = run_trace(l, ListOracle(list(v.probes)), fuel=100)
    rt = run_trace(r, ListOracle(list(v.probes)), fuel=100)
    assert lt != rt


def test_probe_dependent_divergence_found():
    # the two programs agree at probe 1 but not at probe 0
    l = conf("let x = extern r() in if x then 1 else 5")
    r = conf("let x = extern r() in if x then 1 else 6")
    assert check_bisim(l, r, depth=4, probes=(1,), fuel=100) == EquivalentToDepth(4)
    v = check_bisim(l, r, depth=4, probes=(1, 0), fuel=100)
    assert isinstance(v, Distinguished)
    assert v.probes == (0,)


def test_fuel_exhaustion_reported():
    v = check_bisim(conf(COUNTER), conf("3"), depth=4, probes=(0, 1), fuel=50)
    assert v == Exhausted("fuel")
    # a counter that only feeds itself is decided: it diverges silently
    v = check_bisim(conf(FEEDING), conf("3"), depth=4, probes=(0, 1), fuel=50)
    assert isinstance(v, Distinguished)


# -- silent divergence

LOOP = "fun f() = f() in f()"
COUNTER = "fun f(x) = if x < 0 then 0 else f(x + 1) in f(0)"  # never repeats its key: runs out of fuel
FEEDING = "fun f(x) = f(x + 1) in f(0)"  # its key leaves out x, which only feeds itself: repeats


def test_both_sides_diverging_equivalent():
    for game in (check_bisim, check_sim):
        v = game(conf(LOOP), conf("fun g(x) = g(1 - x) in g(a)", {"a": 4}), depth=4, probes=(0, 1), fuel=100)
        assert v == EquivalentToDepth(4)


@pytest.mark.parametrize("game", [check_bisim, check_sim])
@pytest.mark.parametrize("other", ["3", "let x = extern r() in x"])
def test_one_side_diverging_distinguished(game, other):
    v = game(conf(LOOP), conf(other), depth=4, probes=(0, 1), fuel=100)
    assert isinstance(v, Distinguished)
    assert v.reason.startswith("left side diverges")
    v = game(conf(other), conf(LOOP), depth=4, probes=(0, 1), fuel=100)
    assert isinstance(v, Distinguished)
    assert v.reason.startswith("right side diverges")


def test_divergence_after_a_shared_call_distinguished():
    l = conf("let x = extern r() in if x then 1 else fun f() = f() in f()")
    r = conf("let x = extern r() in 1")
    v = check_bisim(l, r, depth=4, probes=(1, 0), fuel=100)
    assert isinstance(v, Distinguished)
    assert v.probes == (0,)
    assert v.reason.startswith("left side diverges")


def test_sim_error_rule_still_covers_divergence():
    # an undefined left result simulates a diverging right side
    assert check_sim(conf("1 / 0"), conf(LOOP), depth=4, probes=(0, 1), fuel=100) == EquivalentToDepth(4)
    assert isinstance(check_bisim(conf("1 / 0"), conf(LOOP), depth=4, probes=(0, 1), fuel=100), Distinguished)


def test_diverging_against_out_of_fuel_exhausted():
    for game in (check_bisim, check_sim):
        assert game(conf(LOOP), conf(COUNTER), depth=4, probes=(0, 1), fuel=100) == Exhausted("fuel")
        assert game(conf(COUNTER), conf(LOOP), depth=4, probes=(0, 1), fuel=100) == Exhausted("fuel")
        assert game(conf(LOOP), conf(FEEDING), depth=4, probes=(0, 1), fuel=100) == EquivalentToDepth(4)
        assert game(conf(FEEDING), conf(LOOP), depth=4, probes=(0, 1), fuel=100) == EquivalentToDepth(4)


# the continuation reads a and y, and g's body reads c besides its parameter
KEYED = parse_program("fun g(x) = x + c in let y = extern r() in g(y + a)")


def keyed(env, captured):
    """The configuration at KEYED's continuation, with g capturing captured."""
    return Config(((("g", Closure(captured, ("x",), KEYED.defs[0].body)),),), env, KEYED.cont)


def test_keys_ignore_what_the_future_never_reads():
    base = config_key(keyed({"a": 1}, {"c": 5}))
    assert config_key(keyed({"a": 1, "b": 2}, {"c": 5})) == base  # b is not free in the focus
    assert config_key(keyed({"a": 1}, {"c": 5, "x": 9, "d": 3})) == base  # x is a parameter, d unread


@pytest.mark.parametrize(
    "one, other",
    [
        (({"a": 1}, {"c": 5}), ({"a": 2}, {"c": 5})),  # a free variable of the focus
        (({"a": 1}, {"c": 5}), ({"a": 1}, {"c": 6})),  # a closure body's non-parameter free variable
        (({"a": 0}, {"c": 5}), ({}, {"c": 5})),  # bound against unbound
        (({"a": 1}, {"c": 0}), ({"a": 1}, {})),  # the same in a closure
    ],
)
def test_keys_tell_apart_what_the_future_reads(one, other):
    assert config_key(keyed(*one)) != config_key(keyed(*other))


def test_keys_skip_what_only_a_branch_decided_against_reads():
    # the continuation names a only where 0 decides against it, and g's
    # body names c only where 1 < 0 does: neither is read, b and d are
    t = parse_program("fun g(x) = if 1 < 0 then c else x + d in let y = extern r() in if 0 then g(a) else g(y + b)")

    def keys(env, captured):
        clo = Closure(captured, ("x",), t.defs[0].body)
        return config_key(Config(((("g", clo),),), env, t.cont)), clo.key

    base = keys({"a": 1, "b": 2}, {"c": 5, "d": 6})
    assert keys({"a": 7, "b": 2}, {"c": 5, "d": 6}) == base
    assert keys({"a": 1, "b": 2}, {"c": 9, "d": 6}) == base
    assert keys({"a": 1, "b": 2}, {"d": 6}) == base
    assert keys({"a": 1, "b": 3}, {"c": 5, "d": 6})[0] != base[0]
    other = keys({"a": 1, "b": 2}, {"c": 5, "d": 7})
    assert other[0] != base[0] and other[1] != base[1]


def test_keys_fold_a_shared_subterm_before_its_later_parent():
    # pass outputs share subterm objects with their input, so the right
    # side's parent of a shared node is numbered after the node itself
    shared = parse_program("y + b")
    right = Let("y", Var("a"), shared)
    term_fact(shared)
    assert term_fact(right)[1] == ("a", "b")
    assert term_fact(right.body) == term_fact(shared)


def test_closure_keys_never_go_stale():
    # each closure and its configuration are dropped right after they
    # are keyed, so a later closure can reuse their memory
    body = parse_program("x")
    seen = {config_key(Config(((("f", Closure({"x": i}, (), body)),),), {}, body)) for i in range(1000)}
    assert len(seen) == 1000


def test_config_key_matches_the_reference_on_every_key_a_game_takes(monkeypatch):
    # every configuration 100 uce and 100 dve trials' games key, with
    # function contexts of no, one and two groups, and the hand-built
    # contexts above
    taken = []

    def take(c):
        taken.append(c)
        return config_key(c)

    monkeypatch.setattr(equiv, "config_key", take)
    for pass_name in ("uce", "dve"):
        assert all(rec.accepted for rec in difftest(pass_name, GenConfig(seed=0), 100).records)
    assert {len(c.funs) for c in taken} >= {0, 1, 2}
    taken += [keyed({"a": 1}, {"c": 5}), keyed({}, {}), Config(((("f", Closure({"x": 0}, (), KEYED.cont)),),), {}, KEYED.cont)]
    for c in taken:
        assert config_key(c) == reference_config_key(c)


def folds(monkeypatch) -> list[int]:
    """The numbers term_fact hands out from now on: one per node it folds."""
    drawn: list[int] = []
    monkeypatch.setattr(syntax, "_numbers", (drawn.append(n) or n for n in syntax._numbers))
    return drawn


@pytest.mark.parametrize("first", ["game", "trace"])
def test_a_program_keyed_twice_is_folded_once(monkeypatch, first):
    # numbers and free variables stay on the terms, so the first game or
    # run folds each node it keys once, and a game after it folds none
    drawn = folds(monkeypatch)
    c = conf("fun f(n) = if n then f(n - 1) else let r = extern rd() in f(3) in f(3)")
    if first == "game":
        assert check_bisim(c, c, depth=3, probes=(0, 1), fuel=100) == EquivalentToDepth(3)
    else:
        assert len(run_trace(c, ListOracle([]), fuel=100, max_events=3).events) == 3
    assert drawn and sorted(drawn) == sorted(n._fact[0] for n in Nodes(c.term).terms if n._fact)
    folded = len(drawn)
    assert check_bisim(c, c, depth=3, probes=(0, 1), fuel=100) == EquivalentToDepth(3)
    assert len(drawn) == folded


@pytest.mark.parametrize("name", ["uce", "dve"])
def test_a_pass_output_folds_only_its_rebuilt_spine(monkeypatch, name):
    # the output shares its input's unchanged subterms, whose facts it
    # keeps; only the nodes the pass built are walked and numbered
    t = parse_program(
        "fun f(n) = let r = extern rd() in if 1 then f(r) else n in let x = 2 in if a then f(x) else b"
    )
    term_fact(t)
    _, out = run_pass(name, t)
    old = {id(n) for n in Nodes(t).terms}
    rebuilt = [n for n in Nodes(out).terms if id(n) not in old]
    drawn = folds(monkeypatch)
    free = term_fact(out)[1]
    assert 0 < len(drawn) == len(rebuilt) < term_size(out)
    assert free == term_fact(parse_program(print_program(out)))[1]  # as a fresh copy folds


def test_left_right_figures_bisimilar():
    v = check_bisim(conf(LEFT), conf(RIGHT), depth=16, probes=(0, 1), fuel=1000)
    assert v == EquivalentToDepth(16)
    assert check_sim(conf(LEFT), conf(RIGHT), depth=16, probes=(0, 1), fuel=1000) == EquivalentToDepth(16)


# -- trace enumeration


def test_enumerate_pure_program_single_trace():
    ts = enumerate_traces(conf("3"), depth=4, probes=(0, 1), fuel=100)
    (tr,) = ts
    assert tr.events == ()
    assert tr.outcome == Terminated(3)


def test_enumerate_branches_per_probe():
    ts = enumerate_traces(conf("let x = extern r() in x"), depth=2, probes=(0, 1), fuel=100)
    assert {tr.outcome for tr in ts} == {Terminated(0), Terminated(1)}
    assert all(len(tr.events) == 1 for tr in ts)


def test_enumerate_depth_cutoff():
    src = "let x = extern r() in let y = extern r() in y"
    ts = enumerate_traces(conf(src), depth=1, probes=(0, 1), fuel=100)
    assert all(tr.outcome == Cutoff() for tr in ts)
    assert {len(tr.events) for tr in ts} == {1}


def test_enumerate_two_rounds():
    src = "let x = extern r() in let y = extern r() in x - y"
    ts = enumerate_traces(conf(src), depth=2, probes=(0, 1), fuel=100)
    assert len(ts) == 4
    assert {tr.outcome.value for tr in ts} == {0, 1, -1}


def test_enumerate_fuel_cutoff():
    ts = enumerate_traces(conf(COUNTER), depth=2, probes=(0, 1), fuel=20)
    (tr,) = ts
    assert tr.outcome == Cutoff()
    (tr,) = enumerate_traces(conf(FEEDING), depth=2, probes=(0, 1), fuel=20)
    assert tr.outcome == Diverged()


def test_enumerate_divergence():
    ts = enumerate_traces(conf(LOOP), depth=2, probes=(0, 1), fuel=20)
    (tr,) = ts
    assert tr.outcome == Diverged()


def test_trace_sets_equal_iff_bisimilar_spotcheck():
    probes = (0, 1)
    pairs = [
        ("let x = extern r() in x", "let x = extern r() in x + 0", True),
        ("let x = extern r() in x", "let x = extern r() in x + 1", False),
        ("if 0 then 1 else 2", "2", True),
        (LOOP, "fun g(x) = g(x * 0) in g(5)", True),
        ("let x = extern r() in if x then 1 else " + LOOP, "let x = extern r() in 1", False),
    ]
    for lsrc, rsrc, same in pairs:
        l, r = conf(lsrc), conf(rsrc)
        traces_equal = enumerate_traces(l, depth=3, probes=probes, fuel=100) == enumerate_traces(
            r, depth=3, probes=probes, fuel=100
        )
        game = check_bisim(l, r, depth=3, probes=probes, fuel=100)
        assert traces_equal is same
        assert isinstance(game, EquivalentToDepth) is same


# -- game properties


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_reflexivity_on_generated_programs(n):
    cfg = GenConfig(seed=derive_seed(43, n))
    t = gen_program(cfg)
    env = initial_env(t, random.Random(n))
    c = Config((), env, t)
    v = check_bisim(c, Config((), dict(env), t), depth=6, probes=default_probes(t), fuel=4000)
    assert not isinstance(v, Distinguished)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_verdict_symmetry_on_generated_pairs(n):
    cfg = GenConfig(seed=derive_seed(47, n))
    t1 = gen_program(cfg)
    t2 = gen_program(GenConfig(seed=derive_seed(53, n)))
    env = initial_env(t1, random.Random(n))
    env.update(initial_env(t2, random.Random(n + 1)))
    probes = default_probes(t1, t2)
    a = check_bisim(Config((), dict(env), t1), Config((), dict(env), t2), depth=5, probes=probes, fuel=3000)
    b = check_bisim(Config((), dict(env), t2), Config((), dict(env), t1), depth=5, probes=probes, fuel=3000)
    assert isinstance(a, Distinguished) == isinstance(b, Distinguished)
    assert isinstance(a, Exhausted) == isinstance(b, Exhausted)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_bisimilarity_implies_similarity(n):
    cfg = GenConfig(seed=derive_seed(59, n))
    t1 = gen_program(cfg)
    t2 = gen_program(GenConfig(seed=derive_seed(61, n)))
    env = initial_env(t1, random.Random(n))
    env.update(initial_env(t2, random.Random(n + 1)))
    probes = default_probes(t1, t2)
    b = check_bisim(Config((), dict(env), t1), Config((), dict(env), t2), depth=5, probes=probes, fuel=3000)
    if isinstance(b, EquivalentToDepth):
        s = check_sim(Config((), dict(env), t1), Config((), dict(env), t2), depth=5, probes=probes, fuel=3000)
        assert isinstance(s, EquivalentToDepth)


def test_memo_shares_configurations_that_differ_in_dead_variables(monkeypatch):
    # r and s are never read, so every configuration at one depth has
    # the same key: one miss per depth, and a miss runs both sides once
    calls = []
    run = equiv.run_to_anchor
    monkeypatch.setattr(equiv, "run_to_anchor", lambda *args: calls.append(1) or run(*args))
    c = conf("fun f() = let r = extern rd() in let s = extern rd() in f() in f()")
    assert check_bisim(c, c, depth=8, probes=(0, 1, 2), fuel=1000) == EquivalentToDepth(8)
    assert len(calls) == 2 * (8 + 1)


DEAD_LOOP = "fun f() = let r = extern rd() in f() in f()"
LIVE_LOOP = "fun f() = let r = extern rd() in if r then f() else f() in f()"


@pytest.mark.parametrize(
    "left, right, depth, applied",
    [
        (DEAD_LOOP, DEAD_LOOP, 8, 2 * 8),  # neither side reads r: one probe a call
        ("let r = extern rd() in r * 0", "let r = extern rd() in 0", 1, 2 * 3),  # the left reads r
        ("let r = extern rd() in 0", "let r = extern rd() in r * 0", 1, 2 * 3),  # the right reads r
        (LIVE_LOOP, LIVE_LOOP, 1, 2 * 3),
        # r is named only where 0 decides against it, and read where 1 decides for it
        ("let r = extern rd() in if 0 then r else 1",) * 2 + (1, 2 * 1),
        ("let r = extern rd() in if 1 then r else 1",) * 2 + (1, 2 * 3),
    ],
    ids=["neither-reads", "left-reads", "right-reads", "both-read", "decided-against", "decided-for"],
)
def test_a_result_neither_side_reads_is_probed_once(monkeypatch, left, right, depth, applied):
    calls = []
    apply = equiv.apply_extern
    monkeypatch.setattr(equiv, "apply_extern", lambda *args: calls.append(args[1]) or apply(*args))
    v = check_bisim(conf(left), conf(right), depth=depth, probes=(0, 1, 2), fuel=1000)
    assert v == EquivalentToDepth(depth)
    assert len(calls) == applied


@pytest.mark.parametrize("name", ["uce", "dve"])
def test_game_agrees_with_the_reference_on_difftest_trials(monkeypatch, name):
    # every game of 300 difftest trials, shrinking included, against the
    # game that explores every probe and keys every node below the root
    seen = refereed(monkeypatch)
    report = difftest(name, GenConfig(seed=13), trials=300)
    assert report.trials == 300
    assert len(seen) >= report.accepted


@pytest.mark.parametrize("game, sim", [(check_bisim, False), (check_sim, True)])
def test_game_agrees_with_the_reference_on_related_pairs(game, sim):
    # each of 300 generated programs against each program its shrinker
    # tries (a node replaced by a subterm, a group member dropped): most
    # share a prefix of calls, and about one in seven is distinguished
    distinguished = 0

    def agrees(t, cand, rng):
        nonlocal distinguished
        env = initial_env(t, rng)
        env.update(initial_env(cand, rng))
        left, right = Config((), dict(env), t), Config((), dict(env), cand)
        probes = default_probes(t, cand)
        verdict = game(left, right, 8, probes, 10_000)
        assert verdict == reference_game(left, right, 8, probes, 10_000, sim)
        distinguished += isinstance(verdict, Distinguished)
        return False  # so the shrinker tries every candidate once

    for i in range(300):
        t = gen_program(GenConfig(seed=derive_seed(14, i)))
        shrink_term(t, lambda cand: agrees(t, cand, random.Random(i)))
    assert distinguished > 300


def test_game_and_oracle_decide_at_the_projected_repeat():
    # the projected repeat comes at the third step, the whole
    # environment's two steps later (see test_semantics)
    dead = conf("fun f(z, y) = f(y, 0) in f(1, 0)")
    assert check_bisim(dead, conf(LOOP), depth=4, probes=(0, 1), fuel=3) == EquivalentToDepth(4)
    (tr,) = enumerate_traces(dead, depth=4, probes=(0, 1), fuel=3)
    assert tr.outcome == Diverged()


def test_enumerate_deep_single_probe_path():
    c = conf("fun f() = let x = extern r() in f() in f()")
    (tr,) = enumerate_traces(c, depth=5000, probes=(0,), fuel=100)
    assert len(tr.events) == 5000
    assert tr.outcome == Cutoff()


def test_memoization_handles_wide_probe_trees():
    # 12 rounds over 4 probes is 16M paths without sharing
    src = "fun f(n) = if n then let x = extern r() in f(n - 1) else 0 in f(12)"
    v = check_bisim(conf(src), conf(src), depth=12, probes=(0, 1, 2, 3), fuel=10_000)
    assert v == EquivalentToDepth(12)
