"""Random program generation and the differential-testing loop."""

import dataclasses
import json
import random
from hashlib import blake2b

import pytest
from hypothesis import given, settings, strategies as st

from audits import generator_audit, initial_env, reach_audit, reference_free, tlive_audit, well_formed
from il import harness
from il.equiv import default_probes
from il.harness import (
    UNBOUND_NAMES,
    GenConfig,
    TrialRecord,
    derive_seed,
    difftest,
    difftest_dve,
    difftest_uce,
    gen_program,
    perturbed_env,
    shrink_term,
)
from il.semantics import SeededOracle
from il.syntax import Cond, Const, Exp, Let, Nodes, parse_program, print_program, term_size

LEFT = "fun f(x, y) = if 9 < x then 1 else f(x + 1, y) in f(3, 2)"


# -- generation


def test_same_seed_same_program():
    a = gen_program(GenConfig(seed=42))
    b = gen_program(GenConfig(seed=42))
    assert a == b


def test_different_seeds_differ_somewhere():
    programs = {gen_program(GenConfig(seed=s)) for s in range(30)}
    assert len(programs) > 20


def test_depth_zero_gives_expression_leaf():
    t = gen_program(GenConfig(seed=7, max_depth=0))
    assert isinstance(t, Exp)


def test_generated_batch_is_well_scoped():
    for i in range(1000):
        t = gen_program(GenConfig(seed=derive_seed(5, i)))
        assert well_formed(t)
        assert generator_audit(t)


def test_generated_programs_are_pinned_across_configs():
    # the generator's draws beyond the default config, as the tlive and
    # acceptance tests make them; recorded before draws indexed constant
    # tuples with rng._randbelow instead of calling rng.choice and rng.randrange
    h = blake2b(digest_size=16)
    for d in (0, 1, 3, 5, 7):
        for g in (1, 3, 4):
            for i in range(60):
                t = gen_program(GenConfig(seed=derive_seed(10 * d + g, i), max_depth=d, max_group_size=g))
                h.update(print_program(t).encode() + b"\0")
    assert h.hexdigest() == "7a1738279dac7249fc1c3309bfb7d483"


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seeds = {derive_seed(0, i) for i in range(100)}
    assert len(seeds) == 100
    assert all(s >= 0 for s in seeds)


def exact_env(t) -> bool:
    # initial_env binds exactly the free variables, branches a closed
    # condition decides against included, less the unbound pool: an
    # extra or missing key shifts every later draw
    env = initial_env(t, random.Random(0))
    return set(env) == reference_free(t) - set(UNBOUND_NAMES) and all(-9 <= v <= 9 for v in env.values())


def shrink_candidates(t) -> list:
    seen = []
    shrink_term(t, lambda cand: seen.append(cand) or False)
    return seen


def test_initial_env_covers_free_vars():
    assert exact_env(parse_program("if a then b + x else c"))
    assert exact_env(parse_program("fun f(x) = x + b in let y = u0 in f(y + a)"))
    for i in range(1000):
        assert exact_env(gen_program(GenConfig(seed=derive_seed(23, i))))


def test_initial_env_binds_exactly_the_free_vars_of_shrink_candidates():
    # a candidate can free a let-bound name: let x = 1 in x + a shrinks to x + a
    cands = shrink_candidates(parse_program("let x = 1 in x + a"))
    assert parse_program("x + a") in cands
    assert set(initial_env(parse_program("x + a"), random.Random(0))) == {"a", "x"}
    checked = 0
    for i in range(30):
        for cand in shrink_candidates(gen_program(GenConfig(seed=derive_seed(29, i)))):
            assert exact_env(cand)
            checked += 1
    assert checked > 300


def test_perturbed_env_agrees_exactly_on_kept_set():
    env = {"a": 1, "b": 2, "c": 3}
    out = perturbed_env(env, frozenset({"b"}), random.Random(0))
    assert out["b"] == 2
    assert out["a"] != 1 and out["c"] != 3
    assert set(out) == set(env)


# -- differential loops


def test_difftest_uce_accepts_and_finds_nothing():
    rep = difftest_uce(GenConfig(seed=0), trials=40)
    assert rep.trials == 40
    assert rep.accepted == 40
    assert rep.distinguished == 0
    assert rep.rejected == 0


def test_difftest_dve_accepts_and_finds_nothing():
    rep = difftest_dve(GenConfig(seed=0), trials=40)
    assert rep.trials == 40
    assert rep.accepted == 40
    assert rep.distinguished == 0


@pytest.mark.parametrize("pass_name", ["uce", "dve"])
def test_trials_play_initial_env_and_default_probes(monkeypatch, pass_name):
    games = []

    def spy(game):
        def play(left, right, depth, probes, fuel):
            games.append((left, right, probes))
            return game(left, right, depth, probes, fuel)

        return play

    monkeypatch.setattr(harness, "check_bisim", spy(harness.check_bisim))
    monkeypatch.setattr(harness, "check_sim", spy(harness.check_sim))
    rep = difftest(pass_name, GenConfig(seed=3), trials=60)
    assert len(games) == rep.accepted == 60
    salt = 0x5EED if pass_name == "uce" else 0xD1FF
    for rec, (left, right, probes) in zip(rep.records, games):
        assert left.term == gen_program(GenConfig(seed=rec.seed))
        assert left.env == initial_env(left.term, random.Random(rec.seed ^ salt))
        assert probes == default_probes(left.term, right.term)


@pytest.mark.parametrize("pass_name", ["uce", "dve"])
def test_a_trial_folds_no_fact_on_a_branch_its_game_never_keys(monkeypatch, pass_name):
    # the game keys only the system call's continuation; the statically
    # excluded branch is neither reached nor keyed, so a trial that
    # folded the whole program for its environment would leave facts there
    t = parse_program("if 0 then let y = a + 1 in y * c else let r = extern rd(a) in r + b")
    monkeypatch.setattr(harness, "gen_program", lambda cfg: t)
    rep = difftest(pass_name, GenConfig(seed=0), trials=1)
    assert rep.equivalent == 1
    assert t.orelse.body._fact is not None
    excluded = Nodes(t.then).terms
    assert len(excluded) == 2 and all(n._fact is None for n in excluded)


@pytest.mark.parametrize("pass_name", ["uce", "dve"])
def test_a_trial_folds_no_fact_on_a_branch_decided_against_below_a_call(monkeypatch, pass_name):
    # the game keys the call's continuation, and that fold skips the
    # branch its closed condition decides against
    t = parse_program("let r = extern rd(a) in if 0 then let y = a + r in y else r + b")
    monkeypatch.setattr(harness, "gen_program", lambda cfg: t)
    rep = difftest(pass_name, GenConfig(seed=0), trials=1)
    assert rep.equivalent == 1
    assert t.body._fact is not None
    excluded = Nodes(t.body.then).terms
    assert len(excluded) == 2 and all(n._fact is None for n in excluded)


def test_reports_are_reproducible():
    a = difftest_uce(GenConfig(seed=9), trials=25)
    b = difftest_uce(GenConfig(seed=9), trials=25)
    assert [r.to_json() for r in a.records] == [r.to_json() for r in b.records]


def test_trial_records_carry_replay_seed():
    rep = difftest_dve(GenConfig(seed=4), trials=5)
    for rec in rep.records:
        assert gen_program(GenConfig(seed=rec.seed)) is not None
        assert rec.size >= 1
        assert rec.verdict.split(":")[0] in ("equivalent", "distinguished", "exhausted")


def test_empty_run_is_empty():
    rep = difftest_uce(GenConfig(seed=0), trials=0)
    assert rep.trials == 0
    assert not rep.records
    assert "trials=0" in rep.summary()


def test_summary_line_shape():
    rep = difftest_dve(GenConfig(seed=1), trials=3)
    s = rep.summary()
    assert s.startswith("SUMMARY pass=dve trials=3 ")
    for field in ("accepted=", "equivalent=", "distinguished=", "exhausted=", "rejected="):
        assert field in s


def test_difftest_reports_trials_whose_game_runs_out_of_fuel():
    rep = difftest_uce(GenConfig(seed=0), 40, fuel=2)
    assert " exhausted=20 " in rep.summary()
    verdicts = [json.loads(rec.to_json())["verdict"] for rec in rep.records]
    assert verdicts.count("exhausted:fuel") == 20


def test_record_json_is_sorted_and_parseable():
    rep = difftest_uce(GenConfig(seed=2), trials=2)
    for rec in rep.records:
        obj = json.loads(rec.to_json())
        assert list(obj) == sorted(obj)
        assert obj["verdict"] == "equivalent"


def test_record_json_keeps_applied_key_equal_to_accepted():
    # the record has no applied field; the key stays for byte-stable output
    assert "applied" not in {f.name for f in dataclasses.fields(TrialRecord)}
    for accepted in (True, False):
        obj = json.loads(TrialRecord(0, 1, 3, accepted, None).to_json())
        assert obj["applied"] is accepted
        assert list(obj) == ["accepted", "applied", "reason", "seed", "shrunk", "size", "trial", "verdict"]


# -- audits


def test_tlive_audit_left_figure():
    assert tlive_audit(parse_program(LEFT), seed=0, fuel=1000)


def test_tlive_audit_dead_variable_decides_repeat():
    # a is dead; a in {-1, 0, 1} makes the loop repeat, other values
    # grow y until fuel runs out
    t = parse_program("fun f(y) = f(y * a) in f(1)")
    assert all(tlive_audit(t, seed=i, fuel=500) for i in range(40))


def test_tlive_audit_batch():
    ok = sum(
        tlive_audit(gen_program(GenConfig(seed=derive_seed(0, i))), seed=i, fuel=4000)
        for i in range(60)
    )
    assert ok == 60


def test_reach_audit_left_figure():
    assert reach_audit(parse_program(LEFT), {}, SeededOracle(0), fuel=1000)


def test_reach_audit_shared_subterm_counts_any_reachable_occurrence():
    shared = Exp(Const(7))
    assert reach_audit(Cond(Const(1), shared, shared), {}, SeededOracle(0), fuel=100)
    assert reach_audit(Cond(Const(1), Exp(Const(7)), Exp(Const(7))), {}, SeededOracle(0), fuel=100)


def test_reach_audit_batch():
    for i in range(60):
        t = gen_program(GenConfig(seed=derive_seed(1, i)))
        env = initial_env(t, random.Random(i))
        assert reach_audit(t, env, SeededOracle(i), fuel=4000)


# -- shrinking


def test_shrink_reaches_local_minimum():
    t = parse_program("let a = 1 in let b = 2 in if x then 3 else 4")
    small = shrink_term(t, lambda s: "3" in print_program(s))
    assert small == parse_program("3")


def test_shrink_preserves_failure():
    fails = lambda s: "extern" in print_program(s)
    t = parse_program("let a = 1 in let b = extern r() in let c = 3 in b")
    small = shrink_term(t, fails)
    assert fails(small)
    assert term_size(small) < term_size(t)


def test_shrink_keeps_term_when_nothing_smaller_fails():
    t = parse_program("3")
    assert shrink_term(t, lambda s: True) == t


def test_shrink_stops_after_its_step_cap():
    # each greedy step drops one let, and a shrink takes SHRINK_STEPS
    t = Exp(Const(0))
    for k in range(300):
        t = Let(f"x{k}", Const(k), t)
    assert term_size(t) == 301
    assert term_size(shrink_term(t, lambda s: True)) == 301 - harness.SHRINK_STEPS == 101


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_shrink_output_is_locally_minimal(n):
    t = gen_program(GenConfig(seed=derive_seed(67, n)))
    fails = lambda s: "extern" in print_program(s)
    if not fails(t):
        return
    small = shrink_term(t, fails)
    assert fails(small)
    assert well_formed(small)
    assert term_size(small) <= term_size(t)
