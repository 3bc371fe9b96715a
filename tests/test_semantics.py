"""Small-step execution, anchors, and trace collection."""

import math
import random
import sys
from dataclasses import replace
from hashlib import blake2b

import pytest
from hypothesis import given, settings, strategies as st

from audits import ListOracle, initial_env, reference_free, reference_reads, result_of
from il.harness import GenConfig, derive_seed, gen_program, shrink_term
from il import semantics
from il.semantics import (
    AtExtern,
    Config,
    Cutoff,
    Diverged,
    Diverges,
    Done,
    Event,
    OutOfFuel,
    Ready,
    SeededOracle,
    Segment,
    Stepped,
    Terminal,
    Terminated,
    apply_extern,
    compile_segment,
    config_key,
    ctx_resolve,
    loop_reads,
    run_to_anchor,
    run_trace,
    step_silent,
    trace_text,
)
from il.semantics import Trace
from il.equiv import enumerate_traces
from il.syntax import (
    App,
    Binop,
    Cond,
    Const,
    Exp,
    Fun,
    FunDef,
    Let,
    Nodes,
    SysCall,
    Var,
    group_live,
    parse_program,
    print_program,
    term_children,
    term_fact,
    wrap,
)
from il.reach import Rejection
from il.transform import run_pass

LEFT = "fun f(x, y) = if 9 < x then 1 else f(x + 1, y) in f(3, 2)"
RIGHT = "fun f(x) = if 9 < x then 1 else f(x + 1) in f(3)"


def conf(src, env=None):
    return Config((), dict(env or {}), parse_program(src))


# -- single steps


def test_step_let_binds():
    c = conf("let y = x + 1 in y", {"x": 3})
    out = step_silent(c)
    assert isinstance(out, Stepped)
    assert out.config.env == {"x": 3, "y": 4}
    assert out.config.term == parse_program("y")


def test_step_let_undefined_value_is_terminal():
    c = conf("let y = 1 / 0 in y")
    assert step_silent(c) == Terminal()
    assert result_of(c) is None


def test_step_fun_then_app():
    c = conf("fun f(x) = x in f(2)")
    c2 = step_silent(c).config  # push the group
    assert len(c2.funs) == 1
    c3 = step_silent(c2).config  # apply
    assert c3.term == parse_program("x")
    assert c3.env == {"x": 2}


def test_step_app_unknown_function_is_terminal():
    assert step_silent(conf("f(1)")) == Terminal()


def test_step_app_wrong_arity_is_terminal():
    c = conf("fun f(x) = x in f(1, 2)")
    c2 = step_silent(c).config
    assert step_silent(c2) == Terminal()


def test_step_cond_picks_branch_by_truthiness():
    c = conf("if x then 1 else 2", {"x": -7})
    assert step_silent(c).config.term == Exp(Const(1))
    c = conf("if x then 1 else 2", {"x": 0})
    assert step_silent(c).config.term == Exp(Const(2))


def test_step_cond_undefined_scrutinee_is_terminal():
    assert step_silent(conf("if x then 1 else 2")) == Terminal()


def test_step_at_extern_is_not_silent():
    c = conf("let x = extern read() in x")
    assert step_silent(c) == AtExtern(())
    c = conf("let x = extern read(y + 1, 7) in x", {"y": 2})
    assert step_silent(c) == AtExtern((3, 7))


def test_step_at_extern_undefined_argument_is_terminal():
    assert step_silent(conf("let x = extern read(y) in x")) == Terminal()


def test_app_rewinds_context():
    # inner group is discarded when calling back into the outer one
    src = "fun f(x) = fun g() = x in g() and h() = 0 in f(1)"
    c = conf(src)
    depths = [len(c.funs)]
    while isinstance(out := step_silent(c), Stepped):
        c = out.config
        depths.append(len(c.funs))
    assert max(depths) == 2
    assert result_of(c) == 1


def test_ctx_resolve_rewinds_to_definition_group():
    c = conf("fun f() = 1 in fun g() = f() in g()")
    c = step_silent(c).config
    c = step_silent(c).config
    # now applying g; resolving f from inside g's body must drop g's group
    hit = ctx_resolve(c.funs, "f")
    assert hit is not None
    _, rewound = hit
    assert len(rewound) == 1


def _resolutions(t, env, fuel=3000, max_events=16):
    """Run t; for each application it reaches, the table's member body
    for it and the body of the closure ctx_resolve finds, or None."""
    nodes = Nodes(t)
    index = {id(term): i for i, term in enumerate(nodes.terms)}
    assert len(index) == len(nodes.terms)  # no shared subterm objects
    config, events, seen = Config((), env, t), 0, []
    for _ in range(fuel):
        if isinstance(config.term, App):
            hit, member = ctx_resolve(config.funs, config.term.fun), nodes.callee[index[id(config.term)]]
            seen.append((None if member is None else nodes.terms[member[0]], None if hit is None else hit[0].body))
        step = step_silent(config)
        if isinstance(step, Stepped):
            config = step.config
        elif isinstance(step, Terminal) or events == max_events:
            break
        else:
            _, config = apply_extern(Ready(config.term.value.action, step.args, config), events % 3)
            events += 1
    return seen


@pytest.mark.parametrize(
    "src",
    [
        "fun f() = 1 in fun f() = 2 in f()",
        "fun f() = g() and g() = 1 in fun g() = f() in g()",
        "fun f(n) = if n then fun f(m) = m in f(n - 1) else 0 in f(1)",
        "f()",
    ],
)
def test_table_names_the_closure_each_application_resolves_to(src):
    seen = _resolutions(parse_program(src), {})
    assert seen
    assert all(member is body for member, body in seen)


def test_table_names_the_closure_on_generated_programs():
    cfg = GenConfig(seed=0)
    apps = 0
    for i in range(300):
        t = gen_program(replace(cfg, seed=derive_seed(43, i)))
        seen = _resolutions(t, initial_env(t, random.Random(i)))
        assert all(member is body for member, body in seen)
        apps += len(seen)
    assert apps > 1000


def test_closures_capture_definition_env():
    src = "let a = 1 in fun f() = a in let a = 2 in f()"
    tr = run_trace(conf(src), ListOracle([]), fuel=100)
    assert tr.events == ()
    assert tr.outcome == Terminated(1)


# -- system calls


def test_apply_extern_records_arguments_and_result():
    c = conf("let x = extern w(2 + 2) in x")
    ev, c2 = apply_extern(run_to_anchor(c, 0), 0)
    assert ev == Event("w", (4,), 0)
    assert c2.env == {"x": 0}
    assert c2.term == parse_program("x")


def test_trace_wraps_oracle_results():
    # the driver clamps oracle outputs into the value range
    tr = run_trace(conf("let x = extern r() in x"), ListOracle([2**63]), fuel=10)
    assert tr.events[0].result == -(2**63)
    assert tr.outcome == Terminated(-(2**63))


# -- anchors


def test_anchor_value():
    assert run_to_anchor(conf("3"), 0) == Done(3)
    assert run_to_anchor(conf("3"), 100) == Done(3)


def test_anchor_stuck_is_done_bottom():
    assert run_to_anchor(conf("1 / 0"), 10) == Done(None)
    assert run_to_anchor(conf("f(1)"), 10) == Done(None)


def test_anchor_left_figure_terminates():
    a = run_to_anchor(conf(LEFT), 1000)
    assert a == Done(1)


def test_anchor_ready_exposes_pending_call():
    a = run_to_anchor(conf("let x = extern read(7) in x"), 10)
    assert isinstance(a, Ready)
    assert a.action == "read"
    assert a.args == (7,)


def test_anchor_out_of_fuel_on_divergence():
    # a counter that its condition reads never repeats its key
    a = run_to_anchor(conf("fun f(x) = if x < 0 then 0 else f(x + 1) in f(0)"), 50)
    assert isinstance(a, OutOfFuel)
    # one that only feeds itself is keyed without its counter
    a = run_to_anchor(conf("fun f(x) = f(x + 1) in f(0)"), 50)
    assert isinstance(a, Diverges)


@pytest.mark.parametrize(
    "src",
    [
        "fun f() = f() in f()",
        "fun f(x) = g(x) and g(y) = f(y) in f(1)",  # mutual recursion
        "fun f(x) = f(1 - x) in f(0)",  # period 2
        "fun f(x) = if x < 10 then f(x + 1) else f(x) in f(0)",  # tail, then a self loop
        "fun f(x) = f(x) in let y = extern r() in f(y)",  # silent loop after a system call
    ],
)
def test_anchor_diverges_on_repeated_configuration(src):
    c = conf(src)
    a = run_to_anchor(c, 1000)
    while isinstance(a, Ready):
        _, c = apply_extern(a, 0)
        a = run_to_anchor(c, 1000)
    assert isinstance(a, Diverges)


def test_anchor_diverges_only_within_fuel():
    # Fun, App, App: the repeat is seen on the third step
    c = conf("fun f() = f() in f()")
    assert isinstance(run_to_anchor(c, 2), OutOfFuel)
    assert isinstance(run_to_anchor(c, 3), Diverges)


def test_anchor_repeat_compares_what_the_future_reads():
    # z is never read: the configurations after the first and second
    # applications, {z: 1, y: 0} and {z: 0, y: 0}, differ only in z, so
    # the repeat is seen on the third step, two steps before the whole
    # environment repeats
    c = conf("fun f(z, y) = f(y, 0) in f(1, 0)")
    assert isinstance(run_to_anchor(c, 2), OutOfFuel)
    assert isinstance(run_to_anchor(c, 3), Diverges)


def test_anchor_zero_fuel_still_classifies():
    assert run_to_anchor(conf("3"), 0) == Done(3)
    a = run_to_anchor(conf("let x = extern r() in x"), 0)
    assert isinstance(a, Ready)
    a = run_to_anchor(conf("let y = 1 in y"), 0)
    assert isinstance(a, OutOfFuel)


@given(st.integers(0, 30), st.integers(0, 30))
def test_anchor_fuel_monotone(m, n):
    # once anchored, more fuel gives the same anchor
    lo, hi = min(m, n), max(m, n)
    c = conf("fun f(x) = if x then f(x - 1) else 42 in f(5)")
    a = run_to_anchor(c, lo)
    b = run_to_anchor(c, hi)
    if not isinstance(a, OutOfFuel):
        assert a == b


def test_anchor_consumes_exactly_fuel():
    c = conf("fun f(x) = if x then f(x - 1) else 42 in f(5)")
    a = run_to_anchor(c, 3)
    assert isinstance(a, OutOfFuel)
    # resuming with the remaining budget matches a single large run
    total = run_to_anchor(c, 1000)
    resumed = run_to_anchor(a.config, 997)
    assert resumed == total


def test_determinism_of_silent_steps():
    c = conf(LEFT)
    first = [step_silent(c) for _ in range(3)]
    assert first[0] == first[1] == first[2]


# -- traces


def test_trace_pure_program_has_no_events():
    tr = run_trace(conf(LEFT), SeededOracle(0), fuel=1000)
    assert tr.events == ()
    assert tr.outcome == Terminated(1)


def test_trace_single_read():
    tr = run_trace(conf("let x = extern r() in x"), ListOracle([5]), fuel=100)
    assert tr.events == (Event("r", (), 5),)
    assert tr.outcome == Terminated(5)


def test_trace_oracle_changes_results_not_shape():
    src = "let x = extern r() in let y = extern w(x) in y"
    e1 = run_trace(conf(src), ListOracle([5, 0]), fuel=100).events
    e2 = run_trace(conf(src), ListOracle([9, 1]), fuel=100).events
    assert [e.action for e in e1] == [e.action for e in e2]
    assert e1 != e2
    assert e1[1].args == (5,)
    assert e2[1].args == (9,)


def test_trace_cutoff_on_fuel():
    tr = run_trace(conf("fun f(x) = if x < 0 then 0 else f(x + 1) in f(0)"), ListOracle([]), fuel=50)
    assert tr.events == ()
    assert tr.outcome == Cutoff()
    tr = run_trace(conf("fun f(x) = f(x + 1) in f(0)"), ListOracle([]), fuel=50)
    assert tr.events == ()
    assert tr.outcome == Diverged()


def test_trace_ends_diverged_after_events():
    src = "let x = extern r() in fun f(y) = f(y * 0) in f(x)"
    tr = run_trace(conf(src), ListOracle([5]), fuel=100)
    assert tr.events == (Event("r", (), 5),)
    assert tr.outcome == Diverged()
    assert trace_text(tr) == "EVT r()=5\nEND DIVERGE\n"


def test_trace_event_cap():
    src = "fun f() = let x = extern r() in f() in f()"
    tr = run_trace(conf(src), SeededOracle(1), fuel=10_000, max_events=8)
    assert len(tr.events) == 8
    assert tr.outcome == Cutoff()


def test_trace_undefined_is_bottom_terminated():
    tr = run_trace(conf("1 / 0"), ListOracle([]), fuel=10)
    assert tr.outcome == Terminated(None)


def test_trace_text_formats():
    events = (Event("r", (), 5), Event("w", (5, 2), 0))
    assert trace_text(Trace(events, Terminated(7))) == "EVT r()=5\nEVT w(5,2)=0\nEND TERM 7\n"
    assert trace_text(Trace((), Terminated(None))) == "END BOT\n"
    assert trace_text(Trace((), Cutoff())) == "END CUTOFF\n"
    assert trace_text(Trace((), Diverged())) == "END DIVERGE\n"


# -- oracles


def test_seeded_oracle_is_deterministic():
    a = SeededOracle(7)
    b = SeededOracle(7)
    vals = [a(i, "r", ()) for i in range(20)]
    assert vals == [b(i, "r", ()) for i in range(20)]
    assert all(-9 <= v <= 9 for v in vals)


def test_seeded_oracle_values_are_pinned_to_the_documented_hash():
    # the docstring's formula, written out, on 1400 calls spread at
    # random over ten oracles, so each oracle is called many times;
    # every argument count from 0 to 6, so each way of formatting the
    # key is checked, with values at and past the 64-bit bounds
    rng = random.Random(5)
    oracles = [SeededOracle(rng.randrange(-(2**40), 2**40)) for _ in range(10)]
    edges = (-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 1, 2**63)
    for i in range(1400):
        o, index = rng.choice(oracles), rng.randrange(10**6)
        action = rng.choice(("r", "rd", "wr", "print"))
        args = tuple(rng.choice(edges) if rng.random() < 0.3 else rng.randrange(-(2**63), 2**63) for _ in range(i % 7))
        key = f"{o.seed}:{index}:{action}:{','.join(map(str, args))}"
        h = blake2b(key.encode(), digest_size=8).digest()
        assert o(index, action, args) == int.from_bytes(h, "big", signed=True) % 19 - 9


def test_seeded_oracle_varies_with_inputs():
    o = SeededOracle(7)
    seen = {o(i, a, args) for i in range(10) for a in ("r", "w") for args in ((), (1,))}
    assert len(seen) > 1


def test_list_oracle_pads_with_zero():
    o = ListOracle([4])
    assert o(0, "r", ()) == 4
    assert o(1, "r", ()) == 0
    assert o(2, "w", (1,)) == 0


# -- randomized closure over generated programs


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_generated_programs_run_without_crashing(n):
    cfg = GenConfig(seed=derive_seed(11, n))
    t = gen_program(cfg)
    import random

    env = initial_env(t, random.Random(n))
    tr = run_trace(Config((), env, t), SeededOracle(n), fuel=2000)
    assert isinstance(tr.outcome, (Terminated, Cutoff, Diverged))
    for ev in tr.events:
        assert all(isinstance(v, int) for v in ev.args)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 10_000))
def test_diverges_config_repeats_silently(n):
    # from a Diverges anchor's configuration, silent steps alone come
    # back to a post-application configuration with an equal key, and
    # run on silently for 10^5 steps or to an equal configuration; 20
    # programs per example, 2,000 in all, since about one generated
    # program in twenty loops silently
    import random

    for k in range(20):
        cfg = GenConfig(seed=derive_seed(12, n * 20 + k))
        t = gen_program(cfg)
        c = Config((), initial_env(t, random.Random(k)), t)
        oracle = SeededOracle(n)
        for i in range(16):
            a = run_to_anchor(c, 2000)
            if not isinstance(a, Ready):
                break
            _, c = apply_extern(a, oracle(i, a.action, a.args))
        if not isinstance(a, Diverges):
            continue
        c = a.config
        key = config_key(c, loop_reads(c))
        for _ in range(2000):
            applied = isinstance(c.term, App)
            step = step_silent(c)
            assert isinstance(step, Stepped)
            c = step.config
            if applied and config_key(c, loop_reads(c)) == key:
                break
        else:
            raise AssertionError("no repeat of the key within 2000 silent steps")
        assert _silent_from(a.config)


def full_equality_anchor(config, fuel):
    """run_to_anchor without projected keys: Brent's method over whole
    configurations, compared with ==, at the same points and with the
    same fuel accounting, so it reports Diverges no earlier."""
    remaining, saved, since, power = fuel, config, 0, 1
    while True:
        step = step_silent(config)
        if isinstance(step, Terminal):
            return Done(result_of(config))
        if isinstance(step, AtExtern):
            return Ready(config.term.value.action, step.args, config)
        if remaining <= 0:
            return OutOfFuel(config)
        remaining -= 1
        applied = isinstance(config.term, App)
        config = step.config
        if applied:
            if config == saved:
                return Diverges(config)
            since += 1
            if since == power:
                saved, since, power = config, 0, power * 2


def _silent_from(config, steps=10**5):
    """Whether step_silent takes steps more steps from config with no
    terminal (an undefined result included) and no pending call, or
    comes back to an equal configuration first, which repeats forever."""
    return isinstance(full_equality_anchor(config, steps), (OutOfFuel, Diverges))


@pytest.mark.parametrize(
    "src, end",
    [
        # n only feeds itself, through one construct each
        ("fun f(n) = let m = n + 1 in f(m) in f(0)", Diverges),
        ("fun f(n) = let m = 1 in f(n + m) in f(0)", Diverges),
        ("fun f(n) = if 1 then f(n + 1) else 0 in f(0)", Diverges),
        ("fun f(n) = if 0 then 0 else f(n + 1) in f(0)", Diverges),
        ("fun f(n) = fun g() = f(n + 1) in g() in f(0)", Diverges),
        ("fun f(n) = fun g() = f(n + 1) and h() = g() in h() in f(0)", Diverges),
        # n is observed, through one construct each
        ("fun f(n) = if n < 0 then 0 else f(n + 1) in f(0)", OutOfFuel),
        ("fun f(n) = let m = 10 / n in f(n + 1) in f(1)", OutOfFuel),
        ("fun f(n) = g(1 / n, n + 1) and g(d, m) = f(m) in f(1)", OutOfFuel),
        ("fun f(n) = fun g() = n in f(n + 1) in f(0)", OutOfFuel),
    ],
)
def test_projected_repeat_check_sees_every_read_of_a_counter(src, end):
    # each loop reads its counter n through one construct only: where
    # the construct only passes n on to itself the key leaves n out and
    # repeats, and where it may observe n, a projection that missed
    # that read would report a false repeat
    c = conf(src)
    assert isinstance(full_equality_anchor(c, 300), OutOfFuel)
    assert isinstance(run_to_anchor(c, 300), end)


@pytest.mark.parametrize("hot", [1, semantics.HOT_ENTRIES, math.inf])
@pytest.mark.parametrize(
    "src",
    [
        "fun f(x) = let y = 10 / x in f(x - 1) in f(3)",
        "fun f(x) = g(1 / x, x - 1) and g(d, m) = f(m) in f(3)",
    ],
)
def test_a_dead_value_that_divides_keeps_its_counter_in_the_key(src, hot):
    # y and d are dead, but their values divide by the counter, so the
    # key keeps it and the run reaches the division by zero, in compiled
    # code and cold, at every fuel, as the reference does
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "HOT_ENTRIES", hot)
        assert _every_fuel(conf(src), 200) == Done(None)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_projected_repeat_check_agrees_with_full_equality(n):
    # The projection may only decide earlier: a Ready or Done anchor is
    # the reference's, a projected Diverges is a silent divergence
    # (_silent_from), and a reference Diverges is projected too.
    import random

    for k in range(10):
        cfg = GenConfig(seed=derive_seed(13, n * 10 + k))
        t = gen_program(cfg)
        c = Config((), initial_env(t, random.Random(k)), t)
        oracle = SeededOracle(n)
        for i in range(16):
            a = run_to_anchor(c, 500)
            ref = full_equality_anchor(c, 500)
            if isinstance(ref, Diverges):
                assert isinstance(a, Diverges)
            if isinstance(a, Diverges):
                assert _silent_from(a.config)
            elif not isinstance(a, OutOfFuel):
                assert a == ref
            if not isinstance(a, Ready):
                break
            _, c = apply_extern(a, oracle(i, a.action, a.args))


def _subterms(t):
    yield t
    for c in term_children(t):
        yield from _subterms(c)


def test_term_facts_give_each_term_object_one_number_across_programs():
    # A pass's output shares subterm objects with its input.  Facts are
    # kept for the input and then each output, each after one of its
    # own subterms, as a run keys a closure body before its program.
    # Each read set is the reference's, and within the free variables.
    sharing = 0
    for n in range(200):
        t = gen_program(GenConfig(seed=derive_seed(71, n)))
        outs = [done[1] for done in (run_pass("uce", t), run_pass("dve", t)) if not isinstance(done, Rejection)]
        index = {}
        for root in (t, *outs):
            term_fact(random.Random(n).choice(list(_subterms(root))))
            term_fact(root)
            for s in _subterms(root):
                k, reads = term_fact(s)
                assert index.setdefault(id(s), k) == k
                assert reads == tuple(sorted(reference_reads(s)))
                assert set(reads) <= reference_free(s)
        assert len(set(index.values())) == len(index)
        inputs = {id(s) for s in _subterms(t)}
        sharing += any(id(s) in inputs for out in outs for s in _subterms(out) if s is not t)
    assert sharing > 100


# -- compiled segments


@pytest.fixture(params=[1, math.inf], ids=["hot", "never"])
def hot_entries(request, monkeypatch):
    """Compile every segment on its first counted entry, or never."""
    monkeypatch.setattr(semantics, "HOT_ENTRIES", request.param)


@pytest.mark.usefixtures("hot_entries")
class TestAnchorsAndTracesAtEveryThreshold:
    """The anchor and trace tests above, run again with every segment
    compiled on its first entry and with no segment compiled."""


for _name, _test in list(globals().items()):
    if _name.startswith(("test_anchor_", "test_trace_")):
        setattr(TestAnchorsAndTracesAtEveryThreshold, _name, staticmethod(_test))


def reference_anchor(config, fuel, saved=semantics._UNSET, since=0, power=1, states=None):
    """run_to_anchor as a plain step_silent loop with the same repeat
    check, from Brent's state (saved, since, power), by default a run's
    start, where saved is _UNSET, which no configuration repeats; also
    the silent steps it took.  The check compares config_key over
    loop_reads' variables, the observed set of a member body.  states,
    where given, gets the run's state at the start and after each step,
    before that step's check: (config, applied, remaining, saved, since,
    power)."""
    remaining, saved_key = fuel, None
    if states is not None:
        states.append((config, False, remaining, saved, since, power))
    while True:
        step = step_silent(config)
        if isinstance(step, Terminal):
            return Done(result_of(config)), fuel - remaining
        if isinstance(step, AtExtern):
            return Ready(config.term.value.action, step.args, config), fuel - remaining
        if remaining <= 0:
            return OutOfFuel(config), fuel - remaining
        remaining -= 1
        applied = isinstance(config.term, App)
        config = step.config
        if states is not None:
            states.append((config, applied, remaining, saved, since, power))
        if applied:
            if saved is not semantics._UNSET:
                if saved_key is None:
                    saved_key = config_key(saved, loop_reads(saved))
                if config_key(config, loop_reads(config)) == saved_key:
                    return Diverges(config), fuel - remaining
            since += 1
            if since == power:
                saved, saved_key, since, power = config, None, 0, power * 2


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_compiled_segments_agree_with_step_silent_at_every_fuel(n):
    # every node compiled as an entry; each anchor compared at every
    # fuel up to one past the steps the reference took to reach it
    t = gen_program(GenConfig(seed=derive_seed(14, n)))
    for term in Nodes(t).terms:
        compile_segment(term)
    c = Config((), initial_env(t, random.Random(n)), t)
    oracle = SeededOracle(n)
    for i in range(6):
        a, steps = reference_anchor(c, 120)
        assert run_to_anchor(c, 120) == a
        for fuel in range(steps + 2):
            assert run_to_anchor(c, fuel) == reference_anchor(c, fuel)[0]
        if not isinstance(a, Ready):
            break
        _, c = apply_extern(a, oracle(i, a.action, a.args))


def _hot_and_reference(monkeypatch, build, env=None, fuel=10**6):
    """run_trace over one copy of a program with every segment compiled
    on its first entry, and over another with none compiled; the first
    copy, for a look at its compiled segments."""
    hot, cold = build(), build()
    monkeypatch.setattr(semantics, "HOT_ENTRIES", 1)
    got = run_trace(Config((), dict(env or {}), hot), SeededOracle(3), fuel)
    monkeypatch.setattr(semantics, "HOT_ENTRIES", math.inf)
    assert got == run_trace(Config((), dict(env or {}), cold), SeededOracle(3), fuel)
    return got, hot


def test_segment_with_200_nested_conditionals(monkeypatch):
    ifs = "".join(f"if i < {1000 + k} then " for k in range(200))
    elses = "".join(f" else acc - {k}" for k in range(200))
    src = f"fun f(i, acc) = if 50 < i then acc else {ifs}f(i + 1, acc + i){elses} in f(0, 0)"
    got, t = _hot_and_reference(monkeypatch, lambda: parse_program(src))
    assert got.outcome == Terminated(sum(range(51)))
    body = t.defs[0].body
    assert isinstance(body._segment, Segment)
    assert body._segment.longest <= semantics.MAX_NESTING + 1


def test_segment_with_a_chain_of_ten_thousand_lets(monkeypatch):
    def build():
        body = App("f", (Binop("+", Var("i"), Const(1)), Var("x9999")))
        for k in reversed(range(10_000)):
            body = Let(f"x{k}", Binop("+", Var(f"x{k - 1}" if k else "acc"), Const(k % 7)), body)
        loop = Cond(Binop("<", Var("i"), Const(4)), body, Exp(Var("acc")))
        return Fun((FunDef("f", ("i", "acc"), loop),), App("f", (Const(0), Const(0))))

    got, t = _hot_and_reference(monkeypatch, build)
    assert got.outcome == Terminated(4 * sum(k % 7 for k in range(10_000)))
    body = t.defs[0].body
    assert isinstance(body._segment, Segment)
    assert body._segment.longest < semantics.MAX_SIZE


def test_segment_names_are_never_python_text(monkeypatch):
    # IL names that are Python keywords, builtins or the generated
    # code's own names reach it only as constants
    src = """
    fun lambda(None, env) =
      if None < 40 then
        let v0 = env + funs in let k = v0 * 2 in let make = k / 3 in
        fun seg(c0) = lambda(None + 1, c0 + make) in seg(v0)
      else let _BOT = extern print(env, None) in _BOT
    in lambda(0, 1)
    """
    got, t = _hot_and_reference(monkeypatch, lambda: parse_program(src), env={"funs": 5})
    assert [e.action for e in got.events] == ["print"]
    assert isinstance(t.defs[0].body._segment, Segment)


def test_segment_with_constants_outside_the_64_bit_range(monkeypatch):
    # a constant is used as it is; arithmetic on it wraps
    big = Const(2**70 + 5)

    def build():
        step = App("f", (Binop("+", Var("i"), Const(1)), Binop("+", Binop("*", Var("acc"), Const(3)), big)))
        done = Let("r", big, Cond(Var("acc"), Exp(Binop("-", Var("acc"), Var("r"))), Exp(Var("r"))))
        loop = Cond(Binop("<", Var("i"), Const(40)), step, done)
        return Fun((FunDef("f", ("i", "acc"), loop),), App("f", (Const(0), Const(-(2**65)))))

    got, t = _hot_and_reference(monkeypatch, build)
    acc = -(2**65)
    for _ in range(40):
        acc = wrap(wrap(acc * 3) + 2**70 + 5)
    assert got.outcome == Terminated(wrap(acc - 2**70 - 5))
    assert isinstance(t.defs[0].body._segment, Segment)
    assert run_to_anchor(Config((), {}, Exp(big)), 0) == Done(2**70 + 5)


def test_cut_segments_agree_with_step_silent_at_every_fuel(monkeypatch):
    # a let chain long enough to be cut twice, then an application:
    # fuel runs out at the same step whichever segments run compiled
    monkeypatch.setattr(semantics, "HOT_ENTRIES", 1)
    body = App("g", (Var("x299"),))
    for k in reversed(range(300)):
        body = Let(f"x{k}", Binop("+", Var(f"x{k - 1}" if k else "a"), Const(k)), body)
    t = Fun((FunDef("g", ("y",), Exp(Var("y"))),), body)
    compile_segment(t)
    c = Config((), {"a": 2}, t)
    a, steps = reference_anchor(c, 1000)
    assert a == Done(2 + sum(range(300))) and steps == 302
    for fuel in range(steps + 2):
        assert run_to_anchor(c, fuel) == reference_anchor(c, fuel)[0]
    assert isinstance(t._segment, Segment) and t._segment.longest < steps


def test_a_first_step_over_the_inline_bound_stays_cold(monkeypatch):
    # the loop body's condition has more expression nodes than a step
    # inlines: the body is left uncompiled for good and runs cold
    sum_ = " + ".join(["i"] * semantics.INLINE_NODES)
    src = f"fun f(i) = if {sum_} < 5000 then f(i + 1) else i in f(0)"
    got, t = _hot_and_reference(monkeypatch, lambda: parse_program(src))
    assert got.outcome == Terminated(5000 // semantics.INLINE_NODES + 1)
    assert t.defs[0].body._segment is None


def test_a_later_step_over_the_inline_bound_cuts_the_segment(monkeypatch):
    # a let over the bound in the middle of the loop body: f's body is
    # compiled up to it and cut there, the let stays cold, and g's body
    # after it is compiled again
    sum_ = " + ".join(["a"] * semantics.INLINE_NODES)
    src = f"""
    fun f(i) = if i < 300 then let a = i + 1 in let b = {sum_} in g(a, b) else i
    and g(a, b) = let c = b - a * {semantics.INLINE_NODES} in f(a + c)
    in f(0)
    """
    got, t = _hot_and_reference(monkeypatch, lambda: parse_program(src))
    assert got.outcome == Terminated(300)
    f, g = t.defs
    cut = f.body.then.body
    assert isinstance(cut, Let) and cut.var == "b"
    assert isinstance(f.body._segment, Segment) and f.body._segment.longest == 2
    assert cut._segment is None
    assert isinstance(g.body._segment, Segment)


# -- loops: a member's application of itself runs on in its segment


def _loops(seg):
    """Whether seg is a Segment with guarded applications, a loop site
    or a member site: only that code keeps the steps of its longest
    path in a local."""
    return isinstance(seg, Segment) and "room" in seg.run.__code__.co_varnames


def _loop_segment(t):
    """The segment on the body of t's first member, which must loop."""
    seg = next(s for s in Nodes(t).terms if isinstance(s, Fun)).defs[0].body._segment
    assert _loops(seg)
    return seg


def _every_fuel(c, fuel=10**5):
    """The reference anchor of c with fuel, checked against
    run_to_anchor at every fuel up to one past twice its steps: a repeat
    that compiled code misses is found a period later with an equal
    configuration, so a late Diverges shows only at fuels past the
    reference's steps."""
    a, steps = reference_anchor(c, fuel)
    for f in range(2 * steps + 2):
        assert run_to_anchor(c, f) == reference_anchor(c, f)[0]
    return a


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_compiled_loops_agree_with_step_silent_at_every_fuel(n):
    # the first generated program whose run compiles a loop, with every
    # segment compiled on its first entry and its member known; about
    # one program in eleven does
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "HOT_ENTRIES", 1)
        for k in range(200):
            t = gen_program(GenConfig(seed=derive_seed(15, n * 200 + k)))
            start = Config((), initial_env(t, random.Random(k)), t)
            oracle, c, configs = SeededOracle(n), start, []
            for i in range(6):
                configs.append(c)
                a = run_to_anchor(c, 120)
                assert a == reference_anchor(c, 120)[0]
                if not isinstance(a, Ready):
                    break
                _, c = apply_extern(a, oracle(i, a.action, a.args))
            if any(_loops(s._segment) for s in Nodes(t).terms):
                break
        else:
            raise AssertionError("no generated program compiled a loop")
        for c in configs:
            _every_fuel(c, 120)


@pytest.mark.parametrize(
    "src, end",
    [
        ("fun f(i) = if i < 3 then f(i + 1) else f(0) in f(0)", Diverges),
        ("fun f(i) = if i < 2 then f(i + 1) else f(0) in f(0)", Diverges),
        ("fun f(n) = f(n * 0) in f(5)", Diverges),
        ("fun f(n) = let n = n * 0 in let m = n + 1 in f(n) in f(5)", Diverges),
        ("fun f(y, w, z) = let y = 1 - !y in f(z, z, y) in f(3, 0, 0)", Diverges),
        ("fun f(i, k) = f(i + k, k) in f(0, 3)", Diverges),
        ("fun f(i, k) = if i < 0 then k else f(i + k, k) in f(0, 3)", OutOfFuel),
        ("fun f(n) = let n = n + 1 in if n < 60 then f(n) else n in f(0)", Done(60)),
        ("let n = 5 in fun f(i) = if i < n then f(i + 1) else i * n in f(0)", Done(25)),
        ("fun f(i) = if i < 9 then f(i + 1) else fun f(j) = j * 100 in f(i) in f(0)", Done(900)),
        ("fun f(i) = if i < 9 then f(i + 1) else fun f(a, b) = a in f(i) in f(0)", Done(None)),
        ("fun f(i) = if i < 9 then f(i + 1) else f(i, 1) in f(0)", Done(None)),
        ("fun f(i) = if i < 30 then fun g() = i in f(i + 1) else let x = extern w(i) in x in f(0)", Ready),
    ],
)
def test_loops_anchor_at_the_reference_step(monkeypatch, src, end):
    # each loop checked at every fuel once its body is compiled: a
    # repeat (a period of 3 is found only by comparing values with
    # saved's, as a save comes every power of two), fuel running out,
    # a parameter rebound by a let, parameters passed on to each other
    # (a save keeps their new values), a captured variable, a closure and
    # a system call in the body, an inner group shadowing the member's
    # name so the guard fails, and arity mismatches
    monkeypatch.setattr(semantics, "HOT_ENTRIES", 1)
    c = conf(src)
    a = reference_anchor(c, 200)[0]
    assert run_to_anchor(c, 200) == a
    _loop_segment(c.term)
    assert _every_fuel(c, 200) == a
    assert a == end if isinstance(end, Done) else isinstance(a, end)


def test_loop_reads_captured_variables_from_its_callees_environment(monkeypatch):
    # two live closures of one body with different captured n, as a
    # pass's output shares subterms with its input: entered through g
    # (n = 1), the body's application of f (n = 5) passes the guard, so
    # the loop goes on with f's n
    monkeypatch.setattr(semantics, "HOT_ENTRIES", 1)
    params, i, n = ("i",), Var("i"), Var("n")
    body = Cond(
        Binop("<", i, n),
        App("f", (Binop("+", i, Const(1)),)),
        Exp(Binop("+", Binop("*", i, Const(100)), n)),
    )

    def program(*rest):
        return Let("n", Const(5), Fun((FunDef("f", params, body),), *rest))

    c = Config((), {}, program(App("f", (Const(0),))))
    assert run_to_anchor(c, 100) == Done(505)
    _loop_segment(c.term)
    c = Config((), {}, program(Let("n", Const(1), Fun((FunDef("g", params, body),), App("g", (Const(0),))))))
    assert _every_fuel(c, 100) == Done(505)


def test_loop_enters_its_segment_once_per_run(monkeypatch):
    # a counter's segment makes Brent's saves itself (the
    # post-application configurations 1, 3, 7, ..., 2**k - 1, which here
    # are i = 2**k - 2), so it is called once per run wherever the fuel
    # covers its longest path, the run's exact fuel included
    monkeypatch.setattr(semantics, "HOT_ENTRIES", 1)
    c = conf("fun f(i) = if i < 1000 then f(i + 1) else i in f(0)")
    a, steps = reference_anchor(c, 10**6)
    assert run_to_anchor(c, 10**6) == a == Done(1000)
    seg = _loop_segment(c.term)
    run, starts = seg.run, []

    def counted(funs, env, *rest):
        starts.append(env["i"])
        return run(funs, env, *rest)

    seg.run = counted
    for fuel in (steps, steps + 1, 10**6):
        starts.clear()
        assert run_to_anchor(c, fuel) == a
        assert starts == [0]


# -- group loops: an application of another member of the entry's group
# goes on into that member's body in the same segment


def _member_sites(monkeypatch):
    """The names of the members other than the entry's that compiled
    code goes on into, one per site, from here on."""
    names = []
    site = semantics._Source.site

    def spy(self, path, name, *rest):
        if name != self.member:
            names.append(name)
        return site(self, path, name, *rest)

    monkeypatch.setattr(semantics._Source, "site", spy)
    return names


@pytest.mark.parametrize(
    "src, end",
    [
        ("fun f(i) = if i < 3 then if i = 0 then g(i + 1) else f(i + 1) else f(0) and g(i) = f(i) in f(0)", Diverges),
        ("fun f(i) = if i < 3 then g(i + 1) else g(0) and g(i) = f(i) in f(0)", Diverges),
        ("fun f(i) = if i < 2 then g(i + 1) else g(0) and g(i) = f(i) in f(0)", Diverges),
        ("fun f(i) = g(i * 0) and g(i) = h(i) and h(k) = f(k) in f(5)", Diverges),
        ("fun f(i, k) = g(i + k, k) and g(i, k) = f(i, k) in f(0, 3)", Diverges),
        ("fun f(i, k) = g(i + k, k) and g(i, k) = if i < 0 then k else f(i, k) in f(0, 3)", OutOfFuel),
        ("fun f(i) = if i < 40 then g(i + 1) else i and g(i) = if i < 20 then h(i) else f(i + 1) and h(k) = f(k + 1) in f(0)", Done(40)),
        ("let n = 5 in fun f(i) = if i < n * 7 then g(i + 1) else i * n and g(j) = f(j) in f(0)", Done(175)),
        ("fun f(i) = if i < 30 then g(i + 1) else i and g(j) = fun h() = j in if j < 30 then f(j) else let x = extern w(j) in x in f(0)", Ready),
        ("fun f(i) = if i < 9 then g(i + 1) else fun g(j) = j * 100 in g(i) and g(j) = f(j) in f(0)", Done(900)),
        ("fun f(i) = if i < 9 then g(i + 1) else i and g(j) = if j < 5 then f(j) else fun f(a) = a + 1000 in f(j) in f(0)", Done(1005)),
        ("fun f(i) = if i < 9 then g(i + 1) else g(i, 1) and g(j) = f(j) in f(0)", Done(None)),
        ("fun f(i) = if i < 9 then g(i + 1) else i and g(j) = if j < 5 then f(j) else f(j, 2) in f(0)", Done(None)),
    ],
)
def test_group_loops_anchor_at_the_reference_step(monkeypatch, src, end):
    # two- and three-member loops checked at every fuel once their
    # bodies are compiled: a repeat found only at the other member's
    # site in f's segment (g's segment leaves at the application of f,
    # already gone into on its path, while Brent's saved configuration
    # is at g's body), repeats of periods 6 and 8 (a save comes every
    # power of two), a three-member repeat, fuel running out, a
    # captured variable, a closure and a system call in the inlined
    # body, an inner group shadowing the other member's name or the
    # entry's, so a guard fails, and arity mismatches
    monkeypatch.setattr(semantics, "HOT_ENTRIES", 1)
    inlined = _member_sites(monkeypatch)
    c = conf(src)
    a = reference_anchor(c, 200)[0]
    assert run_to_anchor(c, 200) == a
    assert inlined
    assert _every_fuel(c, 200) == a
    assert a == end if isinstance(end, Done) else isinstance(a, end)


@pytest.mark.parametrize("inner, end", [("fg", Done(101)), ("f", Done(505))])
def test_group_loop_reads_each_members_captured_variables(monkeypatch, inner, end):
    # two live instances of one group's bodies that capture different n,
    # as a pass's output shares subterms with its input; the bodies are
    # compiled through the outer instance (n = 5) and then entered
    # through an inner one (n = 1).  Where the inner instance has both
    # members, the loop stays in it; where it has only f, f's
    # application of g reaches the outer g, and the loop goes on in the
    # outer instance with its n
    monkeypatch.setattr(semantics, "HOT_ENTRIES", 1)
    inlined = _member_sites(monkeypatch)
    params, i, n = ("i",), Var("i"), Var("n")
    bodies = {
        "f": Cond(Binop("<", i, n), App("g", (Binop("+", i, Const(1)),)), Exp(Binop("+", Binop("*", i, Const(100)), n))),
        "g": App("f", (i,)),
    }

    def program(names, *rest):
        return Let("n", Const(5), Fun(tuple(FunDef(m, params, bodies[m]) for m in names), *rest))

    c = Config((), {}, program("fg", App("f", (Const(0),))))
    assert run_to_anchor(c, 100) == Done(505)
    assert inlined
    _loop_segment(c.term)
    c = Config((), {}, program("fg", Let("n", Const(1), Fun(tuple(FunDef(m, params, bodies[m]) for m in inner), App("f", (Const(0),))))))
    assert _every_fuel(c, 100) == end


def test_group_loop_enters_its_segment_once_per_run(monkeypatch):
    # the post-application configurations alternate between f's body
    # and g's, and Brent's saves fall on f's: 1, 3, 7, ..., 2**k - 1,
    # which here are i = 2**(k - 1) - 1.  f's segment makes them itself
    # and is run once per run; g's body is never entered from the
    # driver, so never compiled
    monkeypatch.setattr(semantics, "HOT_ENTRIES", 1)
    c = conf("fun f(i) = if i < 1000 then g(i + 1) else i and g(j) = f(j) in f(0)")
    a, steps = reference_anchor(c, 10**6)
    assert run_to_anchor(c, 10**6) == a == Done(1000)
    seg = _loop_segment(c.term)
    run, starts = seg.run, []

    def counted(funs, env, *rest):
        starts.append(env["i"])
        return run(funs, env, *rest)

    seg.run = counted
    for fuel in (steps, steps + 1, 10**6):
        starts.clear()
        assert run_to_anchor(c, fuel) == a
        assert starts == [0]
    assert c.term.defs[1].body._segment == 0


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_compiled_group_loops_agree_with_step_silent_at_every_fuel(n):
    # the first generated program whose compiled code goes on into
    # another member's body, with every segment compiled on its first
    # entry; about one program in seventeen does
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "HOT_ENTRIES", 1)
        inlined = _member_sites(mp)
        for k in range(1000):
            t = gen_program(GenConfig(seed=derive_seed(19, n * 1000 + k)))
            start = Config((), initial_env(t, random.Random(k)), t)
            oracle, c, configs = SeededOracle(n), start, []
            for i in range(6):
                configs.append(c)
                a = run_to_anchor(c, 120)
                assert a == reference_anchor(c, 120)[0]
                if not isinstance(a, Ready):
                    break
                _, c = apply_extern(a, oracle(i, a.action, a.args))
            if inlined:
                break
        else:
            raise AssertionError("no generated program compiled a group loop")
        for c in configs:
            _every_fuel(c, 120)


@pytest.mark.parametrize(
    "src, sites",
    [
        ("fun f(x) = g(x) and g(y) = y in f(1)", ["g"]),
        ("fun f(x) = if x < 50 then g(x) else x and g(y) = h(y + 1) and h(z) = z * 2 in f(1)", ["g", "h"]),
        ("fun f(x) = if x < 50 then g(x + 1) else x and g(y) = fun f(z) = z in f(y) in f(1)", ["g"]),
        ("fun f(x) = if x < 50 then g(x + 1) else x and g(y) = f(y, 1) in f(1)", ["g"]),
        ("fun h(x) = x * 3 in fun f(x) = if x < 50 then let y = x + 1 in h(y) else x in f(1)", []),
        ("fun f(x) = if x < 50 then f(x + 1) else g(x) and g(y) = y in f(1)", ["g"]),
    ],
)
def test_members_not_yet_gone_into_get_a_member_site(monkeypatch, src, sites):
    # an application of another member of the entry's group goes on into
    # its body wherever the path has not gone into it yet, whether or not
    # it ever comes back to the entry: a helper with no application, one
    # that applies a third member, one whose application of the entry is
    # hidden by an inner group or of another arity, and one the loop
    # exits into, once, as f's segment is one copy of its loop; h in an
    # outer group is no member.  Each run agrees with the reference at
    # every fuel
    monkeypatch.setattr(semantics, "HOT_ENTRIES", 1)
    inlined = _member_sites(monkeypatch)
    c = conf(src)
    assert run_to_anchor(c, 10**4) == reference_anchor(c, 10**4)[0]
    assert inlined == sites
    _every_fuel(c, 10**4)


# -- resumes: the code after a system call runs on in the compiled
# segment that resolved the call


def _extern_loop(n):
    """perfbench's extern_loop(n): two system calls per iteration."""
    return parse_program(
        f"fun loop(i, acc) = if i < {n} then let r = extern rd(i, acc) in let s = extern wr(r + i) in"
        " loop(i + 1, acc + r * s) else acc in loop(0, 0)"
    )


class _Watched:
    """An oracle that notes each call's action and whether compiled code
    resolved it: run_trace's resolver calls the oracle, and compiled
    code calls the resolver from a <segment> frame, so the code after a
    call it notes as compiled runs in that frame too."""

    def __init__(self, oracle):
        self.oracle, self.calls = oracle, []

    def __call__(self, index, action, args):
        self.calls.append((action, sys._getframe(2).f_code.co_filename == "<segment>"))
        return self.oracle(index, action, args)

    def compiled(self):
        return [c for _, c in self.calls]


@pytest.mark.parametrize("iterations", [semantics.HOT_ENTRIES - 2, 3 * semantics.HOT_ENTRIES])
def test_resumed_code_compiles_with_the_segment_that_reaches_it(iterations):
    # the loop's body is entered once per iteration and once more at
    # its end; once it compiles, its code resolves both system calls and
    # runs the code after each; the code after a call never compiles on
    # its own, and a run's start counts nothing
    t = _extern_loop(iterations)
    oracle = _Watched(SeededOracle(5))
    trace = run_trace(Config((), {}, t), oracle, 10**6)
    assert len(trace.events) == 2 * iterations and isinstance(trace.outcome, Terminated)
    cold = 2 * min(iterations, semantics.HOT_ENTRIES - 1)
    assert oracle.compiled() == [False] * cold + [True] * (2 * iterations - cold)
    body = t.defs[0].body
    read = body.then
    resumed = (read.body, read.body.body)  # let s = ..., then loop(...)
    if iterations + 1 < semantics.HOT_ENTRIES:
        assert body._segment == iterations + 1
    else:
        assert isinstance(body._segment, Segment)
    assert [r._segment for r in resumed] == [0, 0]
    assert t._segment == 0


def reference_trace(config, oracle, fuel, max_events):
    """run_trace over reference_anchor; also the most silent steps any
    of its anchors took."""
    events, most = [], 0
    while True:
        a, steps = reference_anchor(config, fuel)
        most = max(most, steps)
        if isinstance(a, Ready) and len(events) < max_events:
            event, config = apply_extern(a, wrap(oracle(len(events), a.action, a.args)))
            events.append(event)
            continue
        outcome = Terminated(a.result) if isinstance(a, Done) else Diverged() if isinstance(a, Diverges) else Cutoff()
        return Trace(tuple(events), outcome), most


def _traces_at_every_fuel(t, env, oracle, fuel=120, max_events=8):
    """run_trace on t, with every segment compiled on its first entry,
    against the reference at every fuel up to one past the most steps
    the reference's anchors took; the reference trace at fuel."""
    expect, most = reference_trace(Config((), env, t), oracle, fuel, max_events)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "HOT_ENTRIES", 1)
        assert run_trace(Config((), dict(env), t), oracle, fuel, max_events) == expect
        for f in range(most + 2):
            want = reference_trace(Config((), env, t), oracle, f, max_events)[0]
            assert run_trace(Config((), dict(env), t), oracle, f, max_events) == want
    return expect


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_compiled_resumes_agree_with_step_silent_at_every_fuel(n):
    # the first generated program whose run resolves a system call in
    # compiled code and runs the code after it there, checked at every
    # fuel
    for k in range(200):
        t = gen_program(GenConfig(seed=derive_seed(17, n * 200 + k)))
        env = initial_env(t, random.Random(k))
        oracle = _Watched(SeededOracle(n))
        _traces_at_every_fuel(t, env, oracle)
        if any(oracle.compiled()):
            break
    else:
        raise AssertionError("no generated program ran the code after a system call compiled")


def test_list_oracle_results_steer_compiled_resumes_at_every_fuel():
    # each result read decides the branch after it, in the code that
    # resolved the read: a neg call resolved there took that branch
    t = parse_program(
        "fun f(i, acc) = if i < 5 then let r = extern rd(i) in"
        " if r < 0 then let w = extern neg(r) in f(i + 1, acc - w) else f(i + 1, acc + r)"
        " else acc in f(0, 0)"
    )
    oracle = _Watched(ListOracle([3, -2, 7, 5, -7, 1, 4]))
    trace = _traces_at_every_fuel(t, {}, oracle, max_events=32)
    assert [e.action for e in trace.events] == ["rd", "rd", "neg", "rd", "rd", "neg", "rd"]
    assert trace.outcome == Terminated(3 - 7 + 5 - 1 + 4)
    assert ("neg", True) in oracle.calls


@pytest.mark.parametrize("max_events", [100, 101])
def test_max_events_reached_in_compiled_code_cuts_off_at_that_event(max_events):
    # the cap falls on a read (100) or on the write after it (101), in
    # the body compiled at the default HOT_ENTRIES; results outside the
    # 64-bit range are wrapped before they are recorded or bound
    def oracle(index, action, args):
        return SeededOracle(5)(index, action, args) * 2**62 + 1

    watched = _Watched(oracle)
    trace = run_trace(Config((), {}, _extern_loop(96)), watched, 10**6, max_events)
    assert trace == reference_trace(Config((), {}, _extern_loop(96)), oracle, 10**6, max_events)[0]
    assert len(trace.events) == max_events and trace.outcome == Cutoff()
    assert watched.compiled()[-1] and any(abs(e.result) > 9 for e in trace.events)


def _resolving(oracle, max_events=8):
    """A resolver over oracle that makes at most max_events events, as
    run_trace's."""
    events = []

    def resolve(action, args):
        if len(events) >= max_events:
            return None
        events.append(wrap(oracle(len(events), action, args)))
        return events[-1]

    return resolve


def reference_resolved(config, fuel, resolve, remaining=None, brent=(), states=None):
    """run_to_anchor with a resolver, over reference_anchor: a fresh run
    from the configuration after each call resolved.  The first run may
    start with other remaining fuel and from Brent's state brent; states,
    as reference_anchor's, gets the states of every run."""
    a = reference_anchor(config, fuel if remaining is None else remaining, *brent, states=states)[0]
    while isinstance(a, Ready) and resolve is not None and (result := resolve(a.action, a.args)) is not None:
        a = reference_anchor(apply_extern(a, result)[1], fuel, states=states)[0]
    return a


@pytest.mark.parametrize(
    "src",
    [
        "fun f(i) = if i < 3 then let r = extern rd(i) in f(i + 1) else f(i) in f(0)",
        "fun f(i) = if i < 3 then let r = extern rd(i) in f(i + 1) else f(i + 1) in f(0)",
        "fun f(i) = let r = extern rd(i) in if i < 3 then f(i + 1) else fun g(n) = g(n * 0) in g(r) in f(0)",
        "fun f(i) = let r = extern rd(i) in if i < 3 then f(i + 1) else fun g(n) = g(n + r) in g(1) in f(0)",
        "fun f(i) = let r = extern rd(i) in let s = extern wr(r) in if i < 3 then f(i + 1) else fun g(n) = g(n * 0) in g(s) in f(0)",
        # Brent's power is 16 at the call: the reference finds the
        # repeat after 32 applications from it, not 43
        "fun f(i) = if i < 20 then f(i + 1) else let r = extern rd(i) in"
        " fun g(n) = if n < 20 then g(n + 1) else g(n) in g(0) in f(0)",
    ],
)
def test_silent_loop_after_a_compiled_call_anchors_at_the_reference_step(src):
    # a silent loop, one that repeats or a counter, entered right after
    # a call that compiled code resolved: the fuel and Brent's check
    # start over at the call, so the run ends Diverged or Cutoff at
    # every fuel as the reference does, with an equal anchor, and so it
    # does where the cold loop resolves the calls
    t = parse_program(src)
    oracle = _Watched(SeededOracle(4))
    trace = _traces_at_every_fuel(t, {}, oracle)
    assert trace.events and isinstance(trace.outcome, (Diverged, Cutoff))
    assert any(oracle.compiled())
    for hot in (1, math.inf):
        t = parse_program(src)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(semantics, "HOT_ENTRIES", hot)
            for fuel in range(122):
                want = reference_resolved(Config((), {}, t), fuel, _resolving(oracle))
                assert run_to_anchor(Config((), {}, t), fuel, _resolving(oracle)) == want


def test_compiled_calls_without_a_resolver_anchor_at_the_reference_step(monkeypatch):
    # the game's case: compiled code that goes on after its system calls
    # under a resolver still stops at each of them without one, with the
    # same Ready at every fuel, down to a resume through apply_extern
    monkeypatch.setattr(semantics, "HOT_ENTRIES", 1)
    c = Config((), {}, _extern_loop(4))
    oracle = _Watched(SeededOracle(5))
    run_trace(c, oracle, 100)
    assert all(oracle.compiled())
    readies = 0
    for i in range(10):
        a = _every_fuel(c, 100)
        if not isinstance(a, Ready):
            break
        readies += 1
        _, c = apply_extern(a, wrap(oracle(i, a.action, a.args)))
    assert readies == 8 and isinstance(a, Done)


# -- loops across calls: an application of the member after a resolved
# call is a loop site, where the segment makes Brent's restart itself


def _sites_after_calls(monkeypatch):
    """The _Source of each site after a system call that compiled code
    gets, from here on."""
    sources = []
    site = semantics._Source.site

    def spy(self, path, *rest):
        if path.after:
            sources.append(self)
        return site(self, path, *rest)

    monkeypatch.setattr(semantics._Source, "site", spy)
    return sources


class _PastSites:
    """An oracle that notes each call's action and whether compiled code
    resolved it after a site in the same run of its segment made Brent's
    save, which the first site after every call does.  A site keeps the
    function context of the configuration it saves in a local of its
    own (the first of _Source.kept), None until a site sets it; the
    sources are _sites_after_calls'."""

    def __init__(self, oracle, sources):
        self.oracle, self.sources, self.calls = oracle, sources, []

    def __call__(self, index, action, args):
        frame = sys._getframe(2)
        names = [
            s.kept[0]
            for s in self.sources
            if isinstance(s.entry._segment, Segment) and s.entry._segment.run.__code__ is frame.f_code
        ]
        self.calls.append((action, any(frame.f_locals.get(name) is not None for name in names)))
        return self.oracle(index, action, args)

    def passed(self):
        return [p for _, p in self.calls]


def _resolved_at_every_fuel(build, env, oracle, fuel=120, max_events=8):
    """run_trace, and run_to_anchor with a resolver, on fresh copies of
    build() with every segment compiled on its first entry and at the
    default HOT_ENTRIES, against reference_trace and reference_resolved
    at every fuel up to one past the most steps the reference's anchors
    took; the reference trace at fuel."""
    expect, most = reference_trace(Config((), env, build()), oracle, fuel, max_events)
    for hot in (1, semantics.HOT_ENTRIES):
        t = build()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(semantics, "HOT_ENTRIES", hot)
            assert run_trace(Config((), dict(env), t), oracle, fuel, max_events) == expect
            for f in range(most + 2):
                want = reference_trace(Config((), env, t), oracle, f, max_events)[0]
                assert run_trace(Config((), dict(env), t), oracle, f, max_events) == want
                want = reference_resolved(Config((), env, t), f, _resolving(oracle, max_events))
                assert run_to_anchor(Config((), dict(env), t), f, _resolving(oracle, max_events)) == want
    return expect


@pytest.mark.parametrize(
    "src, end, past",
    [
        # calls on two iterations of every three: sites before and after
        # calls in one run of the segment
        (
            "fun f(i, acc) = if i < 45 then if i / 3 * 3 = i then f(i + 1, acc + i) else"
            " let r = extern rd(i, acc) in f(i + 1, acc + r) else acc in f(0, 0)",
            Terminated,
            True,
        ),
        # calls on every third iteration: two silent passes after a save
        # made past a call, the second of which may make the next save
        (
            "fun f(i, acc) = if i < 45 then if i / 3 * 3 = i then let r = extern rd(i, acc) in"
            " f(i + 1, acc + r) else f(i + 1, acc + i) else acc in f(0, 0)",
            Terminated,
            True,
        ),
        # a silent stretch of r + 9 applications after each call, so
        # fuel runs out right after a call at the smaller fuels
        (
            "fun f(i, k) = if i < 45 then if k < 1 then let r = extern rd(i) in f(i + 1, r + 9)"
            " else f(i, k - 1) else k in f(0, 0)",
            Terminated,
            True,
        ),
        # silent repeats entered right after the last call: at once, a
        # period of four (a save comes every power of two), and one
        # found only once a parameter set by the call is cleared
        ("fun f(i) = if i < 40 then let r = extern rd(i) in f(i + 1) else f(i) in f(0)", Diverged, True),
        ("fun f(i) = if i < 40 then let r = extern rd(i) in f(i + 1) else if i < 43 then f(i + 1) else f(40) in f(0)", Diverged, True),
        ("fun f(i, n) = if i < 40 then let r = extern rd(i) in f(i + 1, r) else f(i, n * 0) in f(0, 0)", Diverged, True),
        # a counter after the last call runs out of fuel
        ("fun f(i) = if i < 40 then let r = extern rd(i) in let s = extern wr(r) in f(i + 1) else f(i + 1) in f(0)", Cutoff, True),
    ],
)
def test_loops_past_calls_agree_with_the_reference_at_every_fuel(monkeypatch, src, end, past):
    # the segment saves the first post-application configuration after
    # a call itself, with the fuel counted from the call, and goes on
    # round its loop; at every fuel the run ends as the references do
    sources = _sites_after_calls(monkeypatch)
    oracle = _PastSites(SeededOracle(6), sources)
    trace = _resolved_at_every_fuel(lambda: parse_program(src), {}, oracle, max_events=64)
    assert trace.events and isinstance(trace.outcome, end) and sources
    assert any(oracle.passed()) == past


@pytest.mark.parametrize("max_events", [70, 71])
def test_max_events_reached_past_a_site_after_a_call_cuts_off_at_that_event(monkeypatch, max_events):
    # the cap falls on a read (70) or on the write after it (71) in an
    # iteration that the loop entered past a call
    sources = _sites_after_calls(monkeypatch)
    oracle = _PastSites(SeededOracle(8), sources)
    trace = _resolved_at_every_fuel(lambda: _extern_loop(45), {}, oracle, max_events=max_events)
    assert len(trace.events) == max_events and trace.outcome == Cutoff()
    assert oracle.passed()[-1]


def test_list_oracle_results_steer_loops_past_calls_at_every_fuel(monkeypatch):
    # each result read decides the branch after it, and each branch goes
    # back to the loop past a site after a call: a second call, the same
    # iteration again, or the next one
    sources = _sites_after_calls(monkeypatch)
    values = [(-1) ** k * (k % 4) for k in range(150)]
    oracle = _PastSites(ListOracle(values), sources)
    t = "fun f(i, acc) = if i < 40 then let r = extern rd(i) in if r < 0 then let w = extern neg(r) in"
    t += " f(i + 1, acc - w) else if r = 0 then f(i, acc + 1) else f(i + 1, acc + r) else acc in f(0, 0)"
    trace = _resolved_at_every_fuel(lambda: parse_program(t), {}, oracle, max_events=100)
    assert isinstance(trace.outcome, Terminated)
    assert ("neg", True) in oracle.calls and ("rd", True) in oracle.calls


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_generated_loops_past_calls_agree_with_the_reference_at_every_fuel(n):
    # the first generated program whose compiled code passes a site
    # after a call, checked at every fuel
    with pytest.MonkeyPatch.context() as mp:
        sources = _sites_after_calls(mp)
        mp.setattr(semantics, "HOT_ENTRIES", 1)
        for k in range(2000):
            seed = derive_seed(20, n * 2000 + k)
            t = gen_program(GenConfig(seed=seed))
            env = initial_env(t, random.Random(k))
            oracle = _PastSites(SeededOracle(n), sources)
            run_trace(Config((), dict(env), t), oracle, 120)
            if any(oracle.passed()):
                break
        else:
            raise AssertionError("no generated program passed a site after a call")
    _resolved_at_every_fuel(lambda: gen_program(GenConfig(seed=seed)), env, SeededOracle(n), max_events=64)


def test_loop_past_calls_enters_its_segment_once_per_run():
    # once extern_loop(3000)'s body is compiled, a run enters its segment
    # once, and all 6,000 calls and 3,000 applications stay in it
    t = _extern_loop(3000)
    run_trace(Config((), {}, t), SeededOracle(5), 10**6, 10**9)
    seg = t.defs[0].body._segment
    assert isinstance(seg, Segment)
    run, starts = seg.run, []

    def counted(funs, env, *rest):
        starts.append(env["i"])
        return run(funs, env, *rest)

    seg.run = counted
    watched = _Watched(SeededOracle(5))
    trace = run_trace(Config((), {}, t), watched, 10**6, 10**9)
    assert len(trace.events) == 6000 and isinstance(trace.outcome, Terminated)
    assert starts == [0] and all(watched.compiled())


@pytest.mark.parametrize(
    "src",
    [
        "fun f(x) = if x < 50 then f(x + 1) else let r = extern e(x) in r in f(0)",
        "fun f(x) = if x < 50 then let r = extern e(x) in fun f(y) = y in f(r) else x in f(0)",
        "fun f(x) = if x < 50 then let r = extern e(x) in f(x + 1, r) else x in f(0)",
    ],
)
def test_segments_without_the_member_applied_past_a_call_get_no_new_site(monkeypatch, src):
    # the member applied only before the call, a member hidden by an
    # inner group, or the member with another arity after it: the code
    # leaves the segment there, as it did before loops went on past
    # calls
    monkeypatch.setattr(semantics, "HOT_ENTRIES", 1)
    sources = _sites_after_calls(monkeypatch)
    t = parse_program(src)
    oracle = _Watched(SeededOracle(2))
    expect = reference_trace(Config((), {}, parse_program(src)), oracle, 10**4, 64)[0]
    assert run_trace(Config((), {}, t), oracle, 10**4, 64) == expect
    assert any(oracle.compiled()) and not sources


@pytest.mark.parametrize(
    "src, end",
    [
        ("fun f(x) = if x < 50 then g(x + 1) else x and g(y) = let z = extern e(y) in f(z) in f(1)", Cutoff),
        ("fun f(x) = if x < 50 then let r = extern e(x) in g(r * 0 + x) else x and g(y) = f(y + 1) in f(0)", Terminated),
    ],
)
def test_cycles_back_through_a_call_get_a_member_site(monkeypatch, src, end):
    # a cycle back to the entry through a system call, in the other
    # member's body or before it: f's segment goes on into g's body,
    # resolves calls past a site, and ends as the references do at
    # every fuel
    inlined = _member_sites(monkeypatch)
    sources = _sites_after_calls(monkeypatch)
    oracle = _PastSites(SeededOracle(2), sources)
    trace = _resolved_at_every_fuel(lambda: parse_program(src), {}, oracle, max_events=64)
    assert trace.events and isinstance(trace.outcome, end)
    assert "g" in inlined and sources and any(oracle.passed())


@pytest.mark.parametrize(
    "helper, sites",
    [
        # a system call
        ("g(x) = let r = extern wr(x) in x + r", ["g"]),
        # a closure
        ("g(x) = fun k(y) = y + x in k(x * 2)", ["g"]),
        # an application of a third member, which makes a system call
        ("g(x) = h(x + 1) and h(y) = let r = extern wr(y) in y * r", ["g", "h"]),
        # a body too large for the size bounds: the application stays an exit
        ("g(x) = " + " + ".join(["x"] * 20), []),
    ],
)
def test_helper_exits_agree_with_the_reference_at_every_fuel(monkeypatch, helper, sites):
    # a loop that exits into a member that never comes back: on the first
    # run f's segment goes on into the helper where it fits, and every
    # run agrees with the references at every fuel, without a resolver
    # and with one
    src = f"fun f(i, acc) = if i < 40 then f(i + 1, acc + i) else g(acc) and {helper} in f(0, 0)"
    monkeypatch.setattr(semantics, "HOT_ENTRIES", 1)
    inlined = _member_sites(monkeypatch)
    c = conf(src)
    assert run_to_anchor(c, 10**4) == reference_anchor(c, 10**4)[0]
    assert inlined == sites
    _every_fuel(c, 10**4)
    trace = _resolved_at_every_fuel(lambda: parse_program(src), {}, SeededOracle(4))
    assert isinstance(trace.outcome, Terminated)


def test_a_callee_body_that_is_the_focus_after_a_call_is_gone_into(monkeypatch):
    # g's body is the very term right after f's system call, as shared
    # term objects allow.  Brent's saved right after a call is _UNSET,
    # not that configuration, so g's application is a member site like
    # any other: f's segment goes on into g's body, saves there, and the
    # run repeats at g's second application, at every fuel as the
    # references do
    def build():
        i = Var("i")
        x = Cond(Binop("<", i, Const(9)), App("g", (i,)), App("f", (Binop("+", i, Const(1)),)))
        f = FunDef("f", ("i",), Let("r", SysCall("e", (i,)), x))
        return Fun((f, FunDef("g", ("i",), x)), App("f", (Const(0),)))

    inlined = _member_sites(monkeypatch)
    trace = _resolved_at_every_fuel(build, {}, SeededOracle(1))
    assert len(trace.events) == 1 and trace.outcome == Diverged()
    assert "g" in inlined


@pytest.mark.parametrize("hot", [1, semantics.HOT_ENTRIES, math.inf])
def test_a_body_shared_by_two_groups_is_keyed_by_each_groups_fact(hot):
    # A pass's output shares member bodies with its input under another
    # group: uce folds g's decided branch, and keeps f's body and the
    # branch it takes.  In dead, q's and g's definitions are observed's
    # own objects, and only f differs: there it passes its parameter
    # on, so g's m and q's n are left out of the keys, where observed's
    # f reads k in its condition.  dead's f is too large to inline, so
    # each pass of its loop enters q's body, whose segment was compiled
    # under observed's group and must not key g's body by m there: z
    # puts Brent's saves at g's body.
    # Every anchor is the reference's at every fuel
    t = parse_program("fun f(n) = g(n + 1) and g(m) = if 0 then m else f(m) in f(0)")
    out = run_pass("uce", t)[1]
    assert out is not t and out.defs[0].body is t.defs[0].body and out.defs[1].body is t.defs[1].body.orelse
    observed = parse_program("fun q(n) = g(n + 1) and g(m) = f(m) and f(k) = if k < 0 then 0 else q(k) and z() = q(0) in z()")
    q, g, _, z = observed.defs
    k = Var("k")
    for _ in range(semantics.INLINE_NODES):
        k = Binop("+", k, Const(0))
    dead = Fun((q, g, FunDef("f", ("k",), App("q", (k,))), z), observed.cont)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "HOT_ENTRIES", hot)
        ends = [type(_every_fuel(Config((), {}, p), 200)) for p in (t, out, observed, dead, observed, t)]
    assert ends == [Diverges, Diverges, OutOfFuel, Diverges, OutOfFuel, Diverges]
    assert [group_live(p)[1] for p in (t, out, observed, dead)] == [(), (), ("m",), ()]


# -- what a loop checks once per function context, and Brent's key
# compared value by value


class _CountedEnv(dict):
    """An environment that counts the calls of its get."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return dict.get(self, *args)


def test_a_loop_reads_a_captured_variable_once_per_iteration():
    # f's closure captures the counted environment: an iteration reads a
    # once for i + a, and its guard compares the parameter first, which
    # always differs from saved's, so it never reads a again
    env = _CountedEnv(a=1)
    t = parse_program("fun f(i) = if i < 10000 then f(i + a) else i in f(0)")
    assert run_to_anchor(Config((), env, t), 10**6) == Done(10_000)
    assert 9_000 < env.gets < 10_500


def _segment_runs(t):
    """A list that gets an item per run of a segment compiled so far on
    a term of t, from here on."""
    calls = []
    for term in Nodes(t).terms:
        if isinstance(term._segment, Segment):
            term._segment.run = (lambda run: lambda *args: calls.append(1) or run(*args))(term._segment.run)
    return calls


def test_a_loop_entered_with_saved_parameters_stays_in_its_segment():
    # inner is entered with k = 0 on every pass of outer, and Brent's
    # saved configuration is mostly in inner's body: where k comes to
    # saved's k, the closure's j differs, so the guard holds and the pass
    # stays in inner's segment; two segment runs per pass of outer, and
    # one for the last
    t = parse_program(
        "fun outer(j) = if j < 1000 then fun inner(k) = if k < 40 then inner(k + 1) else outer(j + 1)"
        " in inner(0) else j in outer(0)"
    )
    assert run_to_anchor(Config((), {}, t), 10**6) == Done(1000)
    calls = _segment_runs(t)
    assert run_to_anchor(Config((), {}, t), 10**6) == Done(1000)
    assert len(calls) == 2001


def test_a_member_with_no_free_variables_is_gone_into_until_a_save_at_its_body(monkeypatch):
    # f's loop exits into g, whose key is empty: it differs from saved's
    # until a save at g's body, so f's segment goes on into g, and g's
    # own segment finds the repeat; two segment runs in all
    monkeypatch.setattr(semantics, "HOT_ENTRIES", 1)
    t = parse_program("fun f(i) = if i < 100 then f(i + 1) else g() and g() = g() in f(0)")
    a = run_to_anchor(Config((), {}, t), 10**4)
    calls = _segment_runs(t)
    assert run_to_anchor(Config((), {}, t), 10**4) == a and isinstance(a, Diverges)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "src, end",
    [
        # a hot loop that exits into a member with no free variables:
        # its empty key differs until a save at its body, after which
        # the repeat is found
        ("fun f(i) = if i < 100 then f(i + 1) else g() and g() = g() in f(0)", Diverges),
        # inner entered with k = 0 on every pass of outer, with another
        # j in its closure: equal parameters, a closure value that
        # differs
        (
            "fun outer(j) = if j < 6 then fun inner(k) = if k < 5 then inner(k + 1) else outer(j + 1)"
            " in inner(0) else j in outer(0)",
            Done(6),
        ),
        # a repeat that inner's segment finds, Brent's save having
        # fallen at k = 1: its key's closure value and parameter differ
        # from each other, so a value compared with another's saved
        # local misses it
        ("fun outer(j) = fun inner(k) = if k < 2 then inner(k + 1) else outer(j * 0 + 7) in inner(0) in outer(3)", Diverges),
        # a group defined on every pass: the function context changes
        # each time, so each pass resolves and checks its applications
        # again
        ("fun f(i) = fun h(x) = x + i in if i < 40 then f(i + 1) else h(i) in f(0)", Done(80)),
    ],
)
def test_per_context_checks_and_keys_agree_with_the_reference_at_every_fuel(src, end):
    # with every segment compiled on its first entry and at the default
    # HOT_ENTRIES, without a resolver and with one
    for hot in (1, semantics.HOT_ENTRIES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(semantics, "HOT_ENTRIES", hot)
            c = conf(src)
            a = _every_fuel(c, 10**4)
            assert any(_loops(s._segment) for s in Nodes(c.term).terms)
    assert a == end if isinstance(end, Done) else isinstance(a, end)
    _resolved_at_every_fuel(lambda: parse_program(src), {}, SeededOracle(4))


def test_a_variable_named_only_in_a_branch_decided_against_is_not_in_the_key():
    # g's body names i only where 0 decides against it, so g's closures
    # over i = 1 and i = 0 have one key and the run repeats at its sixth
    # step, four before the whole configuration does; compiled on first
    # entry, at the default HOT_ENTRIES and never compiled
    src = "fun f(i) = fun g() = if 0 then i else f(0) in g() in f(1)"
    for hot in (1, semantics.HOT_ENTRIES, math.inf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(semantics, "HOT_ENTRIES", hot)
            c = conf(src)
            assert isinstance(_every_fuel(c, 10**4), Diverges)
            assert [type(run_to_anchor(c, f)) for f in (5, 6)] == [OutOfFuel, Diverges]
    # test_projected_repeat_check_agrees_with_full_equality's rule
    for fuel in range(20):
        a, ref = run_to_anchor(c, fuel), full_equality_anchor(c, fuel)
        assert isinstance(a, Diverges) == (fuel >= 6) and isinstance(ref, Diverges) == (fuel >= 10)
        if isinstance(a, Diverges):
            assert isinstance(full_equality_anchor(c, 8 * fuel), Diverges)
        else:
            assert isinstance(ref, OutOfFuel) and a == ref


# -- cycles through several members that make system calls: every site
# after a call makes Brent's save, so the cycle stays in one segment


_EV_OD = (
    "fun ev(i, acc) = if i < {n} then let r = extern rd(i, acc) in od(i + 1, acc + r) else acc"
    " and od(i, acc) = ev(i + 1, acc * 1) in ev(0, 0)"
)


@pytest.mark.parametrize(
    "src, end",
    [
        # one call per iteration, before a member site
        (_EV_OD.format(n=60), Terminated),
        # the call in the other member's body, before a loop site
        (
            "fun ev(i, acc) = if i < 60 then od(i + 1, acc + 1) else acc"
            " and od(i, acc) = let r = extern rd(i, acc) in ev(i + 1, acc + r) in ev(0, 0)",
            Terminated,
        ),
        # two calls per iteration, one in each member's body
        (
            "fun ev(i, acc) = if i < 60 then let r = extern rd(i) in od(i + 1, acc + r) else acc"
            " and od(i, acc) = let s = extern wr(acc) in ev(i + 1, acc * s) in ev(0, 0)",
            Terminated,
        ),
        # a silent repeat through both members entered after the last call
        (
            "fun ev(i, n) = if i < 40 then let r = extern rd(i) in od(i + 1, r) else od(i, n * 0)"
            " and od(i, n) = if i < 40 then ev(i + 1, n) else ev(i, n) in ev(0, 0)",
            Diverged,
        ),
    ],
)
def test_cycles_with_calls_agree_with_the_reference_at_every_fuel(monkeypatch, src, end):
    # the two-member cycles that make system calls, checked at every
    # fuel with member sites and sites after calls in their segments
    inlined = _member_sites(monkeypatch)
    sources = _sites_after_calls(monkeypatch)
    oracle = _PastSites(SeededOracle(6), sources)
    trace = _resolved_at_every_fuel(lambda: parse_program(src), {}, oracle, max_events=64)
    assert trace.events and isinstance(trace.outcome, end)
    assert inlined and sources and any(oracle.passed())


def test_cycle_past_calls_enters_its_segment_once_per_run():
    # once ev's body is compiled, a run of the ev/od cycle with 10**4
    # calls enters its segment once: every call and application stays in
    # it, and od's body is never compiled
    t = parse_program(_EV_OD.format(n=20_000))
    run_trace(Config((), {}, t), SeededOracle(5), 10**6, 10**9)
    seg = t.defs[0].body._segment
    assert isinstance(seg, Segment)
    run, starts = seg.run, []

    def counted(funs, env, *rest):
        starts.append(env["i"])
        return run(funs, env, *rest)

    seg.run = counted
    watched = _Watched(SeededOracle(5))
    trace = run_trace(Config((), {}, t), watched, 10**6, 10**9)
    assert len(trace.events) == 10_000 and isinstance(trace.outcome, Terminated)
    assert starts == [0] and all(watched.compiled())
    assert not isinstance(t.defs[1].body._segment, Segment)


# -- the segment contract: a compiled segment takes the run's state and
# hands it back updated


_CONTRACT_PROGRAMS = [
    "fun f(i) = if i < 40 then f(i + 1) else i in f(0)",
    "fun f(i) = if i < 3 then f(i + 1) else f(0) in f(0)",
    "fun f(i) = if i < 40 then g(i + 1) else i and g(j) = f(j) in f(0)",
    "fun f(i, acc) = if i < 45 then if i / 3 * 3 = i then f(i + 1, acc + i) else"
    " let r = extern rd(i, acc) in f(i + 1, acc + r) else acc in f(0, 0)",
    "fun f(i) = if i < 40 then let r = extern rd(i) in f(i + 1) else if i < 43 then f(i + 1) else f(40) in f(0)",
    "fun f(i) = if i < 20 then let r = extern rd(i) in let s = extern wr(r) in f(i + 1) else f(i + 1) in f(0)",
    "fun ev(i, acc) = if i < 60 then let r = extern rd(i, acc) in od(i + 1, acc + r) else acc"
    " and od(i, acc) = ev(i + 1, acc * 1) in ev(0, 0)",
]


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.sampled_from(_CONTRACT_PROGRAMS), st.integers(0, 10_000)), st.data())
def test_segments_hand_back_a_state_the_reference_passes_through(program, data):
    # a compiled segment's run called directly at a configuration on a
    # program's path, from any state Brent's check can hold there: saved
    # _UNSET or a post-application configuration up to there, power a
    # power of two up to 64, since below it, the remaining fuel from the
    # segment's longest path up and the run's fuel up from there.  With a resolver and without,
    # the state it hands back is one the reference passes through from
    # that state, and an anchor it returns is the reference's
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "HOT_ENTRIES", 1)
        for k in range(200):
            if isinstance(program, str):
                t, env = parse_program(program), {}
            else:
                t = gen_program(GenConfig(seed=derive_seed(22, program * 200 + k)))
                env = initial_env(t, random.Random(k))
            run_trace(Config((), dict(env), t), SeededOracle(k), 400, 64)
            path = []
            reference_resolved(Config((), env, t), 400, _resolving(SeededOracle(k), 64), states=path)
            entries = [i for i, (c, *_) in enumerate(path) if isinstance(c.term._segment, Segment)]
            if entries:
                break
        else:
            raise AssertionError("no generated program ran a compiled segment")
    i = data.draw(st.sampled_from(entries))
    entry, seg = path[i][0], path[i][0].term._segment
    saved = data.draw(st.sampled_from([semantics._UNSET] + [c for c, applied, *_ in path[: i + 1] if applied]))
    power = 2 ** data.draw(st.integers(0, 6))
    since = data.draw(st.integers(0, power - 1))
    remaining = data.draw(st.integers(seg.longest, seg.longest + 20))
    fuel = remaining + data.draw(st.integers(0, 20))
    seed = data.draw(st.integers(0, 9))
    for resolving in (False, True):
        resolve = _resolving(SeededOracle(seed)) if resolving else None
        out = seg.run(entry.funs, entry.env, fuel, remaining, saved, since, power, resolve)
        resolve = _resolving(SeededOracle(seed)) if resolving else None
        states = []
        a = reference_resolved(entry, fuel, resolve, remaining, (saved, since, power), states)
        if out.__class__ is tuple:
            funs, env, term, applied, *brent = out
            assert (Config(funs, env, term), applied, *brent) in states
        else:
            assert out == a


def _none_runs(term):
    """A list that gets, from here on, whether each run of term's
    compiled segment returned None."""
    seg, nones = term._segment, []
    run = seg.run

    def noted(*args):
        out = run(*args)
        nones.append(out is None)
        return out

    seg.run = noted
    return nones


def test_a_member_body_entered_with_a_parameter_unbound_runs_cold():
    # f's body, compiled as f's loop, entered where its parameter j is
    # unbound: its code returns None, having run no step, so the segment
    # runs cold up to the application of f, and the loop runs compiled
    # from there.  Three ways in: a run's start at the body under f's
    # group, a second group g(i, k) sharing the body, where j is free and
    # bound only where an outer let binds it, and a shrink candidate that
    # hoists the body to the root, where f is unbound too.  Every anchor
    # is the reference's at every fuel
    i, j = Var("i"), Var("j")
    body = Cond(Binop("<", i, Const(30)), App("f", (Binop("+", i, Const(1)), i)), Exp(j))
    f = Fun((FunDef("f", ("i", "j"), body),), App("f", (Const(0), Const(0))))

    def under_g(*rest):
        return Fun(f.defs, *rest, Fun((FunDef("g", ("i", "k"), body),), App("g", (Const(0), Const(5)))))

    candidates = []
    shrink_term(f, lambda cand: candidates.append(cand) or False)
    hoisted = next(cand for cand in candidates if cand is body)
    starts = [
        (Config(step_silent(Config((), {}, f)).config.funs, {"i": 0}, body), True, Done(29)),
        (Config((), {}, under_g()), True, Done(29)),
        (Config((), {}, Let("j", Const(7), under_g())), False, Done(29)),
        (Config((), {"i": 0}, hoisted), True, Done(None)),
        (Config((), {"i": 0, "j": 1}, hoisted), False, Done(None)),
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "HOT_ENTRIES", 1)
        assert run_to_anchor(Config((), {}, f), 1000) == Done(29) and _loops(body._segment)
        nones = _none_runs(body)
        for c, cold, end in starts:
            nones.clear()
            assert run_to_anchor(c, 1000) == end and nones[0] == cold
            assert _every_fuel(c, 1000) == end


def _a_tree(t):
    """Whether no term object occurs twice in t, and no member body is
    t itself or a let's body."""
    terms = Nodes(t).terms
    bodies = {id(d.body) for s in terms if isinstance(s, Fun) for d in s.defs}
    lets = {id(s.body) for s in terms if isinstance(s, Let)}
    return len({id(s) for s in terms}) == len(terms) and id(t) not in bodies and not bodies & lets


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10_000))
def test_every_program_built_is_a_tree(n):
    # Brent's check compares neither a run's start nor the configuration
    # after a call (saved _UNSET), and no anchor moves for it only
    # because neither ever has a member body in focus: the generator,
    # the parser, both passes and the shrinker's candidates build trees,
    # whose member bodies are neither roots nor lets' bodies
    t = gen_program(GenConfig(seed=derive_seed(24, n)))
    programs = [t, parse_program(print_program(t))]
    programs += [done[1] for done in (run_pass("uce", t), run_pass("dve", t)) if not isinstance(done, Rejection)]
    for p in list(programs):
        shrink_term(p, lambda cand: programs.append(cand) or False)
    assert all(_a_tree(p) for p in programs)


# -- the cold loop, which runs every segment that is not compiled


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_cold_loop_agrees_with_step_silent_at_every_fuel(n):
    # the programs of the compiled variant above, with no segment ever
    # compiled; the caller's environment is never written
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "HOT_ENTRIES", math.inf)
        t = gen_program(GenConfig(seed=derive_seed(14, n)))
        c = Config((), initial_env(t, random.Random(n)), t)
        oracle = SeededOracle(n)
        for i in range(6):
            env = dict(c.env)
            a, steps = reference_anchor(c, 120)
            assert run_to_anchor(c, 120) == a
            for fuel in range(steps + 2):
                assert run_to_anchor(c, fuel) == reference_anchor(c, fuel)[0]
            assert c.env == env
            if not isinstance(a, Ready):
                break
            _, c = apply_extern(a, oracle(i, a.action, a.args))
        assert not any(isinstance(s._segment, Segment) for s in Nodes(t).terms)


def test_cold_loop_closures_keep_the_values_they_captured(monkeypatch):
    monkeypatch.setattr(semantics, "HOT_ENTRIES", math.inf)
    t = parse_program("let x = 1 in fun f() = x in let x = 2 in f()")
    assert trace_text(run_trace(Config((), {}, t), SeededOracle(0), 100)) == "END TERM 1\n"


def test_cold_loop_leaves_the_callers_environment_alone(monkeypatch):
    monkeypatch.setattr(semantics, "HOT_ENTRIES", math.inf)
    c = conf("let y = x + 1 in let x = y * 2 in fun f(x) = let x = x + 1 in x in f(x)", {"x": 3})
    assert run_to_anchor(c, 100) == Done(9)
    assert c.env == {"x": 3}


def test_cold_loop_resumes_one_ready_twice_independently(monkeypatch):
    monkeypatch.setattr(semantics, "HOT_ENTRIES", math.inf)
    ready = run_to_anchor(conf("let a = extern r() in let b = a + 1 in let c = extern w(b) in c"), 100)
    runs = [run_to_anchor(apply_extern(ready, value)[1], 100) for value in (5, 7)]
    assert [(a.action, a.args, a.config.env) for a in runs] == [
        ("w", (6,), {"a": 5, "b": 6}),
        ("w", (8,), {"a": 7, "b": 8}),
    ]
    assert ready.config.env == {}


@pytest.mark.parametrize(
    "src, kind",
    [
        ("fun f(n) = let n = n * 0 in let m = n + 1 in f(n) in f(5)", Diverges),
        ("fun f(n) = let n = n + 1 in let m = n in f(m) in f(0)", Diverges),
        ("fun f(n) = let n = n + 1 in let m = n in if m < 0 then 0 else f(m) in f(0)", OutOfFuel),
    ],
)
def test_cold_loop_anchors_loops_that_bind_lets_at_the_reference_step(monkeypatch, src, kind):
    # each body rebinds the parameter its callee's key reads, in the
    # environment of the application that entered it
    monkeypatch.setattr(semantics, "HOT_ENTRIES", math.inf)
    c = conf(src)
    a, steps = reference_anchor(c, 200)
    assert isinstance(a, kind)
    for fuel in range(steps + 2):
        assert run_to_anchor(c, fuel) == reference_anchor(c, fuel)[0]


@pytest.mark.parametrize(
    "src, anchor",
    [
        ("let y = 1 in let x = y / 0 in x", Done(None)),
        ("let y = 1 in if u then 1 else 2", Done(None)),
        ("let y = 1 in g(y)", Done(None)),
        ("fun f(x) = x in let y = 1 in f(y, y)", Done(None)),
        ("let y = 1 in fun f(x) = x + y in 7", Done(7)),
        ("let y = 1 in let r = extern rd(y) in r", Ready),
        ("let y = 1 in let r = extern rd(u) in r", Done(None)),
        ("let y = 1 in if y then fun f(x) = x + y in f(y) else 0", Done(2)),
        ("fun f(x) = x + 1 in fun g() = 1 in f(2)", Done(3)),
        ("let y = 1 in if y then 3 / 0 else 0", Done(None)),
    ],
)
def test_cold_loop_stops_where_the_fuel_runs_out_as_the_reference_does(monkeypatch, src, anchor):
    # at every fuel the step where it runs out is each step of the run
    # in turn: an undefined let value, condition, callee or arity ends
    # the run with Done at any fuel, a fun or a defined step is not
    # taken without fuel (OutOfFuel, holding the caller's function
    # context where an application rewinds it), and a system call
    # takes none
    monkeypatch.setattr(semantics, "HOT_ENTRIES", math.inf)
    c = conf(src)
    a, steps = reference_anchor(c, 100)
    assert a == anchor or a.__class__ is anchor
    for fuel in range(steps + 2):
        got = run_to_anchor(c, fuel)
        assert got == reference_anchor(c, fuel)[0]
        assert got.__class__ is OutOfFuel if fuel < steps else got == a
    assert c.env == {}


def test_cold_loop_resolves_a_system_call_with_no_fuel_left(monkeypatch):
    monkeypatch.setattr(semantics, "HOT_ENTRIES", math.inf)
    trace = run_trace(conf("let r = extern rd() in let s = r + 1 in s"), SeededOracle(0), 0)
    assert trace_text(trace) == "EVT rd()=8\nEND CUTOFF\n"
    trace = run_trace(conf("let r = extern rd() in r"), SeededOracle(0), 0)
    assert trace_text(trace) == "EVT rd()=8\nEND TERM 8\n"


# -- records


def test_records_are_immutable_and_equal_only_within_their_class():
    c = conf("let x = extern r(1) in if x then x else 7")
    ready = run_to_anchor(c, 10)
    event, _ = apply_extern(ready, 3)
    for record in (c, event, ready, Done(1), OutOfFuel(c), Diverges(c)):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
    assert OutOfFuel(c) != Diverges(c) and not OutOfFuel(c) == Diverges(c)
    assert Done(None) != Diverges(None) and Done(1) == Done(1)
    assert Config(c.funs, c.env, c.term) == c
    assert Config(c.funs, c.env, c.term) != (c.funs, c.env, c.term)
    assert (c.funs, c.env, c.term) != c and Event("r", (1,), 3) != ("r", (1,), 3)
    assert repr(Done(1)) == "Done(result=1)" and repr(event) == "Event(action='r', args=(1,), result=3)"
    assert hash(event) == hash(Event("r", (1,), 3)) and {event, Event("r", (1,), 3)} == {event}
    assert enumerate_traces(c, depth=2, probes=(0, 1), fuel=100) == {
        Trace((Event("r", (1,), 0),), Terminated(7)),
        Trace((Event("r", (1,), 1),), Terminated(1)),
    }


def test_game_path_records_are_exactly_what_their_constructors_build():
    # apply_extern's event and configuration and the cold loop's Ready
    # and Done are built from their fields without their constructors
    c = conf("let x = extern r(1) in let y = x + 1 in y")
    ready = run_to_anchor(c, 10)
    event, after = apply_extern(ready, 3)
    done = run_to_anchor(after, 10)
    built = [
        (ready, Ready("r", (1,), Config(c.funs, c.env, c.term))),
        (event, Event("r", (1,), 3)),
        (after, Config((), {"x": 3}, c.term.body)),
        (done, Done(4)),
    ]
    for record, expected in built:
        assert record.__class__ is expected.__class__
        assert record == expected and expected == record and not record != expected
        assert record != tuple(record)
        for cls in (Config, Event, Ready, Done, OutOfFuel, Diverges):
            if cls is not expected.__class__ and len(cls._fields) == len(record):
                other = cls(*record)
                assert record != other and other != record and not record == other
    assert hash(event) == hash(Event("r", (1,), 3)) and hash(done) == hash(Done(4))
