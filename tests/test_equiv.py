"""Bounded similarity and bisimilarity checking."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from il import equiv
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
from il.harness import GenConfig, derive_seed, gen_program, initial_env
from il.semantics import Closure, Config, Cutoff, Diverged, Keys, ListOracle, Terminated, run_trace
from il.syntax import Let, Var, parse_program

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
    v = check_bisim(conf("fun f(x) = f(x + 1) in f(0)"), conf("3"), depth=4, probes=(0, 1), fuel=50)
    assert v == Exhausted("fuel")


# -- silent divergence

LOOP = "fun f() = f() in f()"
COUNTER = "fun f(x) = f(x + 1) in f(0)"  # never repeats: runs out of fuel


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


# the continuation reads a and y, and g's body reads c besides its parameter
KEYED = parse_program("fun g(x) = x + c in let y = extern r() in g(y + a)")


def keyed(env, captured):
    """The configuration at KEYED's continuation, with g capturing captured."""
    return Config(((("g", Closure(captured, ("x",), KEYED.defs[0].body)),),), env, KEYED.cont)


def test_keys_ignore_what_the_future_never_reads():
    keys = Keys()
    base = keys.config(keyed({"a": 1}, {"c": 5}))
    assert keys.config(keyed({"a": 1, "b": 2}, {"c": 5})) == base  # b is not free in the focus
    assert keys.config(keyed({"a": 1}, {"c": 5, "x": 9, "d": 3})) == base  # x is a parameter, d unread


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
    keys = Keys()
    assert keys.config(keyed(*one)) != keys.config(keyed(*other))


def test_keys_fold_a_shared_subterm_before_its_later_parent():
    # pass outputs share subterm objects with their input, so the right
    # side's parent of a shared node is numbered after the node itself
    shared = parse_program("y + b")
    right = Let("y", Var("a"), shared)
    keys = Keys()
    keys.fact(shared)
    assert keys.fact(right)[2] == ("a", "b")


def test_group_keys_never_go_stale():
    # each group is dropped right after it is keyed, so without the
    # cache holding it a later group can reuse its id()
    keys = Keys()
    body = parse_program("x")
    seen = {keys.group((("f", Closure({"x": i}, (), body)),)) for i in range(1000)}
    assert len(seen) == 1000


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
    ts = enumerate_traces(conf("fun f(x) = f(x + 1) in f(0)"), depth=2, probes=(0, 1), fuel=20)
    (tr,) = ts
    assert tr.outcome == Cutoff()


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
