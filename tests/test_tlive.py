"""True-liveness inference and its checker."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from il.harness import GenConfig, derive_seed, gen_program
from il.reach import static_branch
from il.syntax import (
    Annotated,
    App,
    Cond,
    Exp,
    Fun,
    FunDef,
    Let,
    Nodes,
    SysCall,
    Var,
    free_vars,
    free_vars_list,
    parse_program,
    parse_sidecar,
)
from il.tlive import check_tlive, infer_tlive

LEFT = "fun f(x, y) = if 9 < x then 1 else f(x + 1, y) in f(3, 2)"


def root_fact(src):
    return infer_tlive(parse_program(src)).facts[0]


def annotate(t, facts):
    """t with one fact per node, in pre-order."""
    return Annotated(Nodes(t), tuple(facts))


# -- inference


def test_expression_leaf_reads_its_free_vars():
    assert root_fact("x + y") == {"x", "y"}
    assert root_fact("5") == frozenset()


def test_dead_pure_binding_contributes_nothing():
    assert root_fact("let x = 1 in 3") == frozenset()
    assert root_fact("let x = y + 1 in 3") == frozenset()


def test_live_binding_propagates_value_reads():
    assert root_fact("let x = y + 1 in x") == {"y"}


def test_binding_shadows_liveness():
    # x is rebound, so only the new value's reads escape
    assert root_fact("let x = y in x") == {"y"}
    assert root_fact("let x = x + 1 in x") == {"x"}


def test_extern_arguments_always_read():
    # call stays even though its result is dead
    assert root_fact("let x = extern w(z) in 3") == {"z"}


def test_cond_reads_scrutinee_only_when_open():
    assert root_fact("if x then y else z") == {"x", "y", "z"}
    assert root_fact("if 1 then y else z") == {"y"}
    assert root_fact("if 0 then y else z") == {"z"}


def test_left_figure_facts():
    at = infer_tlive(parse_program(LEFT))
    body, cont = at.nodes.kids[0]
    assert at.facts[body] == {"x"}
    assert at.facts[0] == frozenset()
    # y feeds only itself around the loop, so it is live nowhere
    assert all("y" not in f for f in at.facts)


def test_mutual_recursion_fixpoint():
    src = "fun f(x, y) = g(y) and g(z) = if z then f(z, z) else 0 in f(a, b)"
    at = infer_tlive(parse_program(src))
    f_body, g_body, cont = at.nodes.kids[0]
    # f forwards y into g's read; x is dead in f
    assert at.facts[f_body] == {"y"}
    assert at.facts[g_body] == {"z"}
    assert at.facts[0] == {"b"}


def test_unknown_callee_requires_nothing():
    assert root_fact("f(x)") == frozenset()


def test_annotation_is_isomorphic():
    t = parse_program(LEFT)
    at = infer_tlive(t)
    assert at.term is t
    assert len(at.facts) == len(at.nodes.terms) == 5


# -- checker


def test_check_accepts_empty_leaf():
    at = annotate(parse_program("3"), [frozenset()])
    assert check_tlive({}, {}, at) is None


def test_check_leaf_must_cover_reads():
    at = annotate(parse_program("x + y"), [frozenset({'x'})])
    rej = check_tlive({}, {}, at)
    assert rej is not None
    assert rej.rule == "TLive-Exp"


def test_check_overapproximation_is_fine():
    # larger sets still satisfy the inclusion premises
    at = annotate(parse_program("x"), [frozenset({'x', 'q'})])
    assert check_tlive({}, {}, at) is None


def test_check_app_requires_argument_reads():
    at = annotate(parse_program("f(z)"), [frozenset()])
    rej = check_tlive({"f": ("x",)}, {"f": frozenset({"x"})}, at)
    assert rej is not None
    assert rej.rule == "TLive-App"


def test_check_app_dead_param_argument_ignored():
    at = annotate(parse_program("f(z)"), [frozenset()])
    assert check_tlive({"f": ("x",)}, {"f": frozenset()}, at) is None


def test_check_app_unknown_callee_rejected():
    # the rule needs the callee's parameter list, so out-of-scope
    # applications are not derivable; transforms rely on this
    at = annotate(parse_program("f(z)"), [frozenset()])
    rej = check_tlive({}, {}, at)
    assert rej is not None
    assert rej.rule == "TLive-App"


def test_check_app_arity_mismatch_rejected():
    at = annotate(parse_program("f(z, w)"), [frozenset({'w', 'z'})])
    rej = check_tlive({"f": ("x",)}, {"f": frozenset({"x"})}, at)
    assert rej is not None
    assert rej.rule == "TLive-App"


def test_check_let_requires_value_reads_when_live():
    t = parse_program("let x = y in x")
    at = annotate(t, [frozenset(), frozenset({'x'})])
    rej = check_tlive({}, {}, at)
    assert rej is not None
    assert rej.rule in ("TLive-Op", "TLive-Call")


def test_check_let_dead_binding_needs_no_value_reads():
    t = parse_program("let x = y in 3")
    at = annotate(t, [frozenset(), frozenset()])
    assert check_tlive({}, {}, at) is None


def test_check_extern_args_required_even_when_dead():
    t = parse_program("let x = extern w(z) in 3")
    at = annotate(t, [frozenset(), frozenset()])
    rej = check_tlive({}, {}, at)
    assert rej is not None
    assert rej.rule == "TLive-Call"


@pytest.mark.parametrize(
    "sidecar",
    ["true\n" * 4, "{}\n{}\n{x}\n{1}\n"],
    ids=["bools", "non-name"],
)
def test_check_rejects_facts_that_are_not_sets_of_names(sidecar):
    # reachability bits, or a set holding something other than a name
    t = parse_program("let x = 1 in if x then 2 else 3")
    rej = check_tlive({}, {}, parse_sidecar(t, sidecar))
    assert (rej.path, rej.rule) == ((), "Shape")
    assert "is not a set of variable names" in rej.detail


def test_check_cond_skips_excluded_branch_entirely():
    # garbage annotation inside the dead branch is never examined
    t = parse_program("if 0 then x + y else 2")
    at = annotate(t, [frozenset(), frozenset(), frozenset()])
    assert check_tlive({}, {}, at) is None


def test_check_open_cond_requires_scrutinee():
    t = parse_program("if c then 1 else 2")
    at = annotate(t, [frozenset(), frozenset(), frozenset()])
    rej = check_tlive({}, {}, at)
    assert rej is not None
    assert rej.rule == "TLive-Cond"


def test_check_fun_extends_both_contexts():
    t = parse_program("fun f(x) = x in f(a)")
    good = annotate(t, [frozenset({'a'}), frozenset({'x'}), frozenset({'a'})])
    assert check_tlive({}, {}, good) is None
    # root set that misses the live argument's reads is rejected
    bad = annotate(t, [frozenset(), frozenset({'x'}), frozenset()])
    rej = check_tlive({}, {}, bad)
    assert rej is not None


def test_check_reports_first_preorder_violation():
    t = parse_program("let x = a in x + b")
    at = annotate(t, [frozenset(), frozenset()])
    rej = check_tlive({}, {}, at)
    assert rej is not None
    assert rej.path == (0,)


def test_inferred_left_figure_is_accepted():
    assert check_tlive({}, {}, infer_tlive(parse_program(LEFT))) is None


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 10_000))
def test_inferred_annotations_always_accepted(n):
    t = gen_program(GenConfig(seed=derive_seed(19, n)))
    at = infer_tlive(t)
    assert at.term is t
    assert check_tlive({}, {}, at) is None


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_root_fact_contains_only_free_vars(n):
    from il.syntax import term_reads

    t = gen_program(GenConfig(seed=derive_seed(23, n)))
    at = infer_tlive(t)
    assert at.facts[0] <= term_reads(t)[0]


# -- the worklist against the round-based inference it replaced


def rounds_infer_tlive(t):
    """Test-only reference: the round-based inference.  Each round
    re-annotates the whole tree with the member-body sets of the round
    before (pushing liveness back one call link), until no set grows.
    Returns the facts in pre-order; a member's estimate is keyed by its
    group's pre-order index and its position in the group."""
    estimates = {}

    def annotate(term, zeta, lam, out):
        index = len(out)
        out.append(None)
        if isinstance(term, Let):
            after = annotate(term.body, zeta, lam, out)
            if isinstance(term.value, SysCall):
                fact = (after - {term.var}) | free_vars_list(term.value.args)
            else:
                fact = after - {term.var}
                if term.var in after:
                    fact |= free_vars(term.value)
        elif isinstance(term, Cond):
            sb = static_branch(term.cond)
            then = annotate(term.then, zeta, lam, out)
            orelse = annotate(term.orelse, zeta, lam, out)
            fact = frozenset()
            if sb is None:
                fact |= free_vars(term.cond)
            if sb is not False:
                fact |= then
            if sb is not True:
                fact |= orelse
        elif isinstance(term, App):
            params = zeta.get(term.fun)
            live = lam.get(term.fun)
            fact = frozenset()
            if params is not None and live is not None:
                for x, e in zip(params, term.args):
                    if x in live:
                        fact |= free_vars(e)
        elif isinstance(term, Fun):
            zeta2 = dict(zeta)
            zeta2.update((d.name, d.params) for d in term.defs)
            lam2 = dict(lam)
            lam2.update((d.name, estimates.get((index, g), frozenset())) for g, d in enumerate(term.defs))
            bodies = []
            for g, d in enumerate(term.defs):
                body = annotate(d.body, zeta2, lam2, out)
                bodies.append(body)
                estimates[index, g] = estimates.get((index, g), frozenset()) | body
            fact = annotate(term.cont, zeta2, lam2, out)
            for d, body in zip(term.defs, bodies):
                fact |= body - set(d.params)
        else:
            assert isinstance(term, Exp)
            fact = free_vars(term.expr)
        out[index] = fact
        return fact

    while True:
        before = dict(estimates)
        out = []
        annotate(t, {}, {}, out)
        if estimates == before:
            return out


def assert_matches_rounds(t):
    at = infer_tlive(t)
    assert at.term is t
    assert list(at.facts) == rounds_infer_tlive(t)


@pytest.fixture(scope="module")
def corpus():
    """The benchmark's program generators, read from perfbench/."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worklist_matches_rounds_on_generated_programs():
    for i in range(1000):
        assert_matches_rounds(gen_program(GenConfig(seed=derive_seed(29, i), max_depth=3 + i % 6)))


@pytest.mark.parametrize("shape", ["forward_chain", "reverse_chain"])
@pytest.mark.parametrize("k", [1, 2, 3, 10, 40, 160])
def test_worklist_matches_rounds_on_call_chains(corpus, shape, k):
    assert_matches_rounds(parse_program(getattr(corpus, shape)(k)))


@pytest.mark.parametrize(
    "src",
    [
        # nested groups, with inner bodies reading outer parameters and
        # calling back into the outer group
        "fun f(x, y, n) = fun g(m) = if m then f(y, x, m - 1) else x in g(n) in f(a, b, c)",
        "fun f(x) = fun g(y) = fun h(z) = z + x in h(y) in g(x) and k(w) = f(w) in k(a)",
        # shadowed names: an inner group and a later group rebind f
        "fun f(x, y) = fun f(z) = z in f(y) in f(a, b)",
        "fun f(x) = x in fun f(y) = 0 in f(a)",
        "fun f(x) = x in let f = 3 in f(f)",
        # arity mismatch and unknown callees
        "fun f(x, y) = x + y in f(a)",
        "fun f(x) = x in f(a, b)",
        "fun f(x) = g(x) in f(a)",
        "g(a)",
        # groups inside statically excluded branches
        "if 0 then fun f(x, y) = if x then f(x - 1, y) else y in f(a, b) else c",
        "if 1 then c else fun f(x) = fun g(y) = f(y) in g(x) in f(d)",
        "if 0 then if 1 then fun f(x) = x + e in f(a) else b else fun g(x) = g(x) in g(c)",
    ],
)
def test_worklist_matches_rounds_on_scoping_cases(src):
    assert_matches_rounds(parse_program(src))


def test_worklist_matches_rounds_with_duplicate_names_in_a_group():
    # the parser rejects this; built directly, the later member wins in
    # both inferences, as it does in the checker
    body = Cond(Var("x"), App("f", (Var("y"),)), Exp(Var("x")))
    t = Fun((FunDef("f", ("x",), body), FunDef("f", ("y",), Exp(Var("y")))), App("f", (Var("a"),)))
    assert_matches_rounds(t)
    assert check_tlive({}, {}, infer_tlive(t)) is None


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_worklist_matches_rounds_property(n, depth):
    assert_matches_rounds(gen_program(GenConfig(seed=derive_seed(37, n), max_depth=depth, max_group_size=4)))
