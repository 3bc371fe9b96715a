"""Reachability inference and the inductive-judgment checker."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from il.harness import GenConfig, derive_seed, gen_program
from il.reach import Rejection, check_reach, infer_reach, static_branch
from il.syntax import (
    Annotated,
    Binop,
    Const,
    Fun,
    Nodes,
    Var,
    parse_program,
)

LEFT = "fun f(x, y) = if 9 < x then 1 else f(x + 1, y) in f(3, 2)"


def facts(src):
    return list(infer_reach(parse_program(src)).facts)


def annotate(t, facts):
    """t with one fact per node, in pre-order."""
    return Annotated(Nodes(t), tuple(facts))


def test_static_branch_decided():
    assert static_branch(Const(1)) is True
    assert static_branch(Const(0)) is False
    assert static_branch(Binop("<", Const(1), Const(2))) is True


def test_static_branch_open_or_undefined():
    assert static_branch(Var("x")) is None
    assert static_branch(Binop("/", Const(1), Const(0))) is None


# -- inference


def test_infer_root_is_reachable():
    assert facts("3") == [True]


def test_infer_decided_cond_marks_dead_branch():
    # whole else subtree goes false, condition folds statically
    assert facts("if 0 then 1 else 2") == [True, False, True]
    assert facts("if 1 then 1 else 2") == [True, True, False]


def test_infer_open_cond_keeps_both():
    assert facts("if x then 1 else 2") == [True, True, True]


def test_infer_dead_branch_subtree_is_all_false():
    at = infer_reach(parse_program("if 0 then let q = 1 in q else 2"))
    dead = at.facts[1:3]  # the let and its body
    assert all(f is False for f in dead)


def test_infer_unapplied_function_is_dead():
    at = infer_reach(parse_program("fun f() = f() and g() = 3 in g()"))
    by_name = dict(zip(("f", "g"), at.facts[1:3]))
    assert by_name["f"] is False
    assert by_name["g"] is True
    assert at.facts[0] is True


def test_infer_mutual_recursion_reaches_fixpoint():
    at = infer_reach(parse_program("fun f(x) = g(x) and g(x) = f(x) in f(1)"))
    assert list(at.facts[1:]) == [True, True, True]


def test_infer_call_inside_dead_branch_does_not_mark():
    at = infer_reach(parse_program("fun f() = 1 in if 0 then f() else 2"))
    assert at.facts[1] is False


def test_infer_call_under_open_cond_marks():
    at = infer_reach(parse_program("fun f() = 1 in if x then f() else 2"))
    assert at.facts[1] is True


def test_infer_shadowed_function_not_marked():
    # inner f shadows outer; only the inner body is entered
    src = "fun f() = 1 in fun f() = 2 in f()"
    at = infer_reach(parse_program(src))
    assert at.facts[1] is False  # outer body
    assert at.nodes.kids[2] == (3, 4)  # the inner group
    assert at.facts[3] is True  # inner body


# -- checker


def test_check_accepts_reachable_leaf():
    at = annotate(parse_program("3"), [True])
    assert check_reach({}, at) is None


def test_check_rejects_false_applied_target():
    t = parse_program("fun f() = 1 in f()")
    at = annotate(t, [True, False, True])
    rej = check_reach({}, at)
    assert isinstance(rej, Rejection)
    assert rej.rule == "Reach-App"


def test_check_context_form_rejects_dead_callee():
    at = annotate(parse_program("f()"), [True])
    rej = check_reach({"f": False}, at)
    assert rej is not None
    assert rej.rule == "Reach-App"


def test_check_context_form_accepts_live_callee():
    at = annotate(parse_program("f()"), [True])
    assert check_reach({"f": True}, at) is None


def test_check_false_bits_are_consistent():
    # below the root the judgment is relative to each node's own bit:
    # a false body may hold false nodes, and an unreachable application
    # needs no reachable body
    t = parse_program("fun f() = let x = 1 in g() in 3")
    assert check_reach({}, annotate(t, [True, False, False, True])) is None


@pytest.mark.parametrize("src", ["3", "let x = 1 in 3", "f()", "fun f() = 1 in f()"])
def test_check_rejects_an_unreachable_root(src):
    # execution starts at the root; with its bit false every node could
    # be false, and uce would drop the whole program
    t = parse_program(src)
    rej = check_reach({}, annotate(t, [False] * len(Nodes(t).terms)))
    assert isinstance(rej, Rejection)
    assert (rej.rule, rej.path) == ("Reach-Root", ())
    assert str(rej) == "at <root>: Reach-Root: the root is not marked reachable"


def test_check_excluded_branch_bit_is_unconstrained():
    t = parse_program("if 0 then 1 else 2")
    at = annotate(t, [True, True, True])
    assert check_reach({}, at) is None


def test_check_still_recurses_into_excluded_branch():
    # the excluded branch has no bit premise but its own subtree must
    # still be derivable
    t = parse_program("if 0 then f() else 2")
    at = annotate(t, [True, True, True])
    rej = check_reach({}, at)
    assert rej is not None
    assert rej.rule == "Reach-App"
    assert rej.path == (0,)


def test_check_rejects_dead_taken_branch():
    t = parse_program("if 1 then 1 else 2")
    at = annotate(t, [True, False, False])
    assert check_reach({}, at) is not None


def test_check_rejects_cont_bit_drift():
    t = parse_program("let x = 1 in 3")
    at = annotate(t, [True, False])
    rej = check_reach({}, at)
    assert rej is not None
    assert rej.rule == "Reach-Let"


def test_rejection_str_mentions_path_and_rule():
    t = parse_program("fun f() = 1 in f()")
    at = annotate(t, [True, False, True])
    msg = str(check_reach({}, at))
    assert "Reach-App" in msg
    assert "at" in msg


def test_rejection_str_root_marker():
    t = parse_program("let x = 1 in 3")
    at = annotate(t, [True, False])
    assert "<root>" in str(check_reach({}, at))


def test_inferred_left_figure_is_accepted():
    at = infer_reach(parse_program(LEFT))
    assert check_reach({}, at) is None
    assert all(at.facts)


def corrupt_first_true_fun_body(at):
    """Flip the first reachable function body bit to False."""
    for i, term in enumerate(at.nodes.terms):
        if isinstance(term, Fun):
            for body in at.nodes.kids[i][:-1]:
                if at.facts[body]:
                    facts = list(at.facts)
                    facts[body] = False
                    return Annotated(at.nodes, tuple(facts))
    return None


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10_000))
def test_inferred_annotations_always_accepted(n):
    t = gen_program(GenConfig(seed=derive_seed(13, n)))
    at = infer_reach(t)
    assert at.term is t
    assert check_reach({}, at) is None


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10_000))
def test_corrupted_reachable_body_is_rejected(n):
    t = gen_program(GenConfig(seed=derive_seed(17, n)))
    at = infer_reach(t)
    bad = corrupt_first_true_fun_body(at)
    if bad is None:
        return  # no applied function in this draw
    assert check_reach({}, bad) is not None
