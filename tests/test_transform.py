"""Unreachable-code and dead-variable elimination."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from il.harness import GenConfig, derive_seed, gen_program
from il.reach import Rejection, infer_reach
from il.syntax import Term, parse_program, print_program, term_children
from il.tlive import infer_tlive
from il.transform import dve, filter_list, filterby, run_pass, uce

LEFT = "fun f(x, y) = if 9 < x then 1 else f(x + 1, y) in f(3, 2)"
RIGHT = "fun f(x) = if 9 < x then 1 else f(x + 1) in f(3)"


# -- list helpers


def test_filterby_keeps_all():
    assert filterby(lambda k: True, [1, 2], ["a", "b"]) == ("a", "b")


def test_filterby_selects_by_key():
    assert filterby(lambda k: k == "x1", ["x1", "x2"], ["e1", "e2"]) == ("e1",)


def test_filterby_empty_keys():
    assert filterby(lambda k: True, [], ["a"]) == ()


def test_filterby_truncates_to_shorter():
    # extra values without keys are dropped, mirroring zip
    assert filterby(lambda k: True, [1], ["a", "b"]) == ("a",)


def test_filter_list_examples():
    assert filter_list(lambda x: False, [1, 2]) == ()
    assert filter_list(lambda x: 1 < x, [1, 2, 3]) == (2, 3)


@given(st.lists(st.integers(-5, 5)), st.integers(-5, 5))
def test_filter_list_is_filterby_on_itself(xs, pivot):
    pred = lambda v: v < pivot
    assert filter_list(pred, xs) == filterby(pred, xs, xs)


# -- unreachable-code elimination


def u(src):
    return uce(infer_reach(parse_program(src)))


def test_uce_folds_decided_cond():
    assert u("if 1 then 3 else 4") == parse_program("3")
    assert u("if 0 then 3 else 4") == parse_program("4")


def test_uce_keeps_open_cond():
    assert u("if x then 3 else 4") == parse_program("if x then 3 else 4")


def test_uce_folds_closed_arithmetic_cond():
    assert u("if 2 - 2 then 3 else 4") == parse_program("4")


def test_uce_keeps_undefined_cond():
    # 1/0 does not evaluate, so the conditional must survive
    src = "if 1 / 0 then 3 else 4"
    assert u(src) == parse_program(src)


def test_uce_drops_unapplied_group_member():
    assert u("fun f() = f() and g() = 3 in g()") == parse_program("fun g() = 3 in g()")


def test_uce_elides_empty_group():
    assert u("fun f() = 1 in 2") == parse_program("2")


def test_uce_keeps_mutually_recursive_members():
    src = "fun f(x) = g(x) and g(x) = f(x) in f(1)"
    assert u(src) == parse_program(src)


def test_uce_drops_call_only_from_dead_code():
    # f is applied only inside a statically excluded branch
    src = "fun f() = 1 in if 0 then f() else 2"
    assert u(src) == parse_program("2")


def test_uce_rewrites_nested_folds():
    src = "let a = x in if 1 then if 0 then 1 else a else 9"
    assert u(src) == parse_program("let a = x in a")


def test_uce_left_figure_unchanged():
    assert u(LEFT) == parse_program(LEFT)


# -- dead-variable elimination


def d(src):
    return dve({}, {}, infer_tlive(parse_program(src)))


def test_dve_drops_dead_pure_binding():
    assert d("let x = 1 in 3") == parse_program("3")


def test_dve_keeps_live_binding():
    src = "let x = 1 in x"
    assert d(src) == parse_program(src)


def test_dve_keeps_dead_system_call():
    src = "let x = extern r() in 3"
    assert d(src) == parse_program(src)


def test_dve_drops_chain_of_dead_bindings():
    assert d("let x = 1 in let y = x in 3") == parse_program("3")


def test_dve_left_figure_matches_right():
    assert d(LEFT) == parse_program(RIGHT)
    assert print_program(d(LEFT)) == print_program(parse_program(RIGHT))


def test_dve_filters_params_and_args_together():
    src = "fun f(x, y) = x in f(a, b)"
    assert d(src) == parse_program("fun f(x) = x in f(a)")


def test_dve_keeps_all_params_when_all_live():
    src = "fun f(x, y) = x + y in f(a, b)"
    assert d(src) == parse_program(src)


def test_dve_folds_decided_cond():
    assert d("if 0 then x else 3") == parse_program("3")


def test_dve_unknown_application_raises():
    with pytest.raises(ValueError):
        d("f(1)")


def test_dve_preserves_open_cond():
    src = "if c then a else b"
    assert d(src) == parse_program(src)


# -- structural audits


def node_kinds(t: Term) -> Counter:
    c = Counter({type(t).__name__: 1})
    for child in term_children(t):
        c.update(node_kinds(child))
    return c


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10_000))
def test_uce_never_adds_nodes(n):
    t = gen_program(GenConfig(seed=derive_seed(29, n)))
    out = uce(infer_reach(t))
    before, after = node_kinds(t), node_kinds(out)
    assert all(after[k] <= before[k] for k in after)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10_000))
def test_dve_never_adds_nodes(n):
    t = gen_program(GenConfig(seed=derive_seed(31, n)))
    out = dve({}, {}, infer_tlive(t))
    before, after = node_kinds(t), node_kinds(out)
    assert all(after[k] <= before[k] for k in after)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10_000))
def test_transforms_preserve_well_formedness(n):
    from il.syntax import well_formed

    t = gen_program(GenConfig(seed=derive_seed(37, n)))
    assert well_formed(uce(infer_reach(t)))
    assert well_formed(dve({}, {}, infer_tlive(t)))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_transforms_are_idempotent(n):
    t = gen_program(GenConfig(seed=derive_seed(41, n)))
    once = uce(infer_reach(t))
    assert uce(infer_reach(once)) == once
    once = dve({}, {}, infer_tlive(t))
    assert dve({}, {}, infer_tlive(once)) == once


# -- the checked pipeline


def test_run_pass_returns_annotation_and_output():
    t = parse_program(LEFT)
    ann, out = run_pass("dve", t)
    assert ann == infer_tlive(t)
    assert out == parse_program(RIGHT)
    ann, out = run_pass("uce", t)
    assert ann == infer_reach(t)
    assert out == uce(ann)


@pytest.mark.parametrize("name, rule", [("uce", "Reach-App"), ("dve", "TLive-App")])
def test_run_pass_returns_the_checker_rejection(name, rule):
    rej = run_pass(name, parse_program("f(1)"))
    assert isinstance(rej, Rejection)
    assert rej.rule == rule


def test_run_pass_unknown_name_raises():
    with pytest.raises(ValueError):
        run_pass("cse", parse_program("1"))
