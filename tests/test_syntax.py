"""Expression evaluation, parsing, printing, and annotation plumbing."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from audits import flatten, reference_parse, well_formed
from il.harness import GenConfig, derive_seed, gen_program
from il.reach import Rejection
from il.syntax import (
    Annotated,
    App,
    Binop,
    Cond,
    Const,
    Exp,
    Fun,
    FunDef,
    Let,
    Nodes,
    ParseError,
    SysCall,
    Unop,
    Var,
    _TOKEN_RE,
    eval_expr,
    eval_expr_list,
    free_vars,
    parse_program,
    parse_sidecar,
    print_program,
    sidecar_text,
    term_exprs,
    term_fact,
    term_reads,
    term_size,
    truthy,
    wrap,
)
from il.transform import run_pass

LEFT = "fun f(x, y) = if 9 < x then 1 else f(x + 1, y) in f(3, 2)"
RIGHT = "fun f(x) = if 9 < x then 1 else f(x + 1) in f(3)"


# -- values


def test_wrap_identity_in_range():
    assert wrap(0) == 0
    assert wrap(-5) == -5
    assert wrap(2**63 - 1) == 2**63 - 1


def test_wrap_two_complement():
    assert wrap(2**63) == -(2**63)
    assert wrap(-(2**63) - 1) == 2**63 - 1
    assert wrap(2**64) == 0


@given(st.integers(min_value=-(2**70), max_value=2**70))
def test_wrap_is_congruent_mod_2_64(v):
    w = wrap(v)
    assert -(2**63) <= w <= 2**63 - 1
    assert (w - v) % 2**64 == 0


def test_truthy():
    assert truthy(1)
    assert truthy(-7)
    assert not truthy(0)


# -- evaluation


def test_eval_arithmetic():
    assert eval_expr(Binop("+", Var("x"), Const(1)), {"x": 3}) == 4


def test_eval_unbound_is_undefined():
    assert eval_expr(Var("y"), {"x": 3}) is None


def test_eval_division_by_zero_is_undefined():
    assert eval_expr(Binop("/", Const(10), Var("x")), {"x": 0}) is None


def test_eval_comparisons_are_one_zero():
    assert eval_expr(Binop("<", Const(1), Const(2)), {}) == 1
    assert eval_expr(Binop("<=", Const(2), Const(2)), {}) == 1
    assert eval_expr(Binop("=", Const(2), Const(3)), {}) == 0


def test_eval_not_and_neg():
    assert eval_expr(Unop("not", Const(0)), {}) == 1
    assert eval_expr(Unop("not", Const(5)), {}) == 0
    assert eval_expr(Unop("neg", Const(5)), {}) == -5
    # negation wraps at the minimum value
    assert eval_expr(Unop("neg", Const(-(2**63))), {}) == -(2**63)


def test_eval_division_truncates_toward_zero():
    assert eval_expr(Binop("/", Const(-7), Const(2)), {}) == -3
    assert eval_expr(Binop("/", Const(7), Const(-2)), {}) == -3


def test_eval_multiplication_wraps():
    big = 2**62
    assert eval_expr(Binop("*", Const(big), Const(4)), {}) == 0


def test_eval_expr_list():
    assert eval_expr_list([], {}) == ()
    assert eval_expr_list([Var("x"), Binop("+", Var("x"), Const(1))], {"x": 3}) == (3, 4)
    assert eval_expr_list([Var("x"), Var("y")], {"x": 3}) is None


@given(st.dictionaries(st.sampled_from("xyz"), st.integers(-9, 9)), st.sampled_from("xyz"), st.integers(-9, 9))
def test_eval_monotone_under_extension(env, name, value):
    # adding bindings can only turn undefined into defined, never change a value
    e = Binop("+", Binop("*", Var("x"), Var("y")), Var("z"))
    before = eval_expr(e, env)
    extended = {name: value, **env}
    after = eval_expr(e, extended)
    assert before is None or after == before


def test_free_vars():
    assert free_vars(Const(5)) == frozenset()
    assert free_vars(Binop("+", Var("x"), Var("y"))) == {"x", "y"}
    assert free_vars(Binop("<", Binop("*", Var("x"), Var("x")), Var("z"))) == {"x", "z"}


def test_free_vars_sufficiency():
    e = Binop("<", Binop("*", Var("x"), Var("x")), Var("z"))
    v1 = {"x": 2, "z": 5, "w": 0}
    v2 = {"x": 2, "z": 5, "w": 99, "q": 1}
    assert eval_expr(e, v1) == eval_expr(e, v2)


def test_term_reads_free_variables_respect_binders():
    t = parse_program("let x = a in x + y")
    assert term_reads(t)[0] == {"a", "y"}
    t = parse_program("fun f(x) = x + b in f(c)")
    assert term_reads(t)[0] == {"b", "c"}


def test_term_reads_free_variables_of_a_deep_term():
    # a let chain far deeper than the recursion limit
    t = Exp(Var("v0"))
    for i in range(100_000):
        t = Let(f"v{i}", Var(f"v{i + 1}"), t)
    assert term_reads(t)[0] == {"v100000"}


def test_term_reads_constants():
    t = parse_program("let x = 3 + 4 in if x then 5 else 3")
    assert term_reads(t)[1] == {3, 4, 5}


def _constants(t):
    """Every constant of t, from each node's expressions in its Nodes
    table."""
    out, stack = set(), [e for term in Nodes(t).terms for e in term_exprs(term)]
    while stack:
        e = stack.pop()
        if isinstance(e, Const):
            out.add(e.value)
        elif isinstance(e, Unop):
            stack.append(e.arg)
        elif isinstance(e, Binop):
            stack += (e.left, e.right)
    return out


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_term_reads_agrees_with_the_folded_facts_and_every_node(n):
    # on a generated program and its pass outputs: the free variables
    # term_fact folds at the root, and the constants of every node
    t = gen_program(GenConfig(seed=derive_seed(73, n)))
    outs = [done[1] for done in (run_pass("uce", t), run_pass("dve", t)) if not isinstance(done, Rejection)]
    for term in (t, *outs):
        free, consts = term_reads(term)
        assert free == set(term_fact(term)[1])
        assert consts == _constants(term)


# -- parsing


def test_parse_smallest_program():
    assert parse_program("3") == Exp(Const(3))


def test_parse_left_figure_structure():
    t = parse_program(LEFT)
    assert t == Fun(
        (
            FunDef(
                "f",
                ("x", "y"),
                Cond(
                    Binop("<", Const(9), Var("x")),
                    Exp(Const(1)),
                    App("f", (Binop("+", Var("x"), Const(1)), Var("y"))),
                ),
            ),
        ),
        App("f", (Const(3), Const(2))),
    )


def test_parse_extern_let():
    t = parse_program("let x = extern read(1, y) in x")
    assert t == Let("x", SysCall("read", (Const(1), Var("y"))), Exp(Var("x")))


def test_parse_precedence_and_associativity():
    assert parse_program("1 + 2 * 3") == Exp(Binop("+", Const(1), Binop("*", Const(2), Const(3))))
    assert parse_program("1 - 2 - 3") == Exp(Binop("-", Binop("-", Const(1), Const(2)), Const(3)))
    assert parse_program("1 + 2 < 3 + 4") == Exp(
        Binop("<", Binop("+", Const(1), Const(2)), Binop("+", Const(3), Const(4)))
    )
    assert parse_program("(1 + 2) * 3") == Exp(Binop("*", Binop("+", Const(1), Const(2)), Const(3)))


def test_parse_negative_literal_folds():
    assert parse_program("-5") == Exp(Const(-5))
    assert parse_program("- 5") == Exp(Const(-5))
    assert parse_program("-x") == Exp(Unop("neg", Var("x")))
    assert parse_program("!x") == Exp(Unop("not", Var("x")))


def test_parse_literal_longer_than_the_int_digit_limit_wraps():
    # int() refuses strings of more than 4300 digits
    digits = "7" * 5000
    value = sum(7 * pow(10, i, 2**64) for i in range(5000))
    assert parse_program(digits) == Exp(Const(wrap(value)))
    assert parse_program("-" + digits) == Exp(Const(wrap(-value)))


def test_parse_dangling_argument_list():
    with pytest.raises(ParseError):
        parse_program("let x = f(")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("let x =\n  in x")
    assert err.value.line == 2
    assert "expected" in err.value.message


@pytest.mark.parametrize(
    "src, expected",
    [
        ("let x =\n  in x", "2:3: expected an expression"),
        ("x @ y", "1:3: unexpected character '@'"),
        ("1 +\n\n  'y", "3:3: unexpected character \"'\""),
        ("12'", "1:3: unexpected character \"'\""),
        ("fun f(x, x) = 1 in 2", "1:10: duplicate parameter 'x'"),
        ("fun f() = 1 and f() = 2 in 3", "1:25: duplicate function name 'f' in group"),
        ("let x = 1 in\n", "2:1: expected an expression"),
        ("3 4", "1:3: expected end of input"),
        ("let in = 3 in in", "1:5: expected a variable name"),
        ("f(1,\n\t)", "2:2: expected an expression"),
        ("if 1 then 2", "1:12: expected 'else'"),
        ("x é", "1:3: unexpected character 'é'"),
    ],
)
def test_parse_error_positions(src, expected):
    with pytest.raises(ParseError) as err:
        parse_program(src)
    assert str(err.value) == expected


def test_parse_rejects_duplicate_group_names():
    with pytest.raises(ParseError):
        parse_program("fun f() = 1 and f() = 2 in 3")


def test_parse_rejects_duplicate_params():
    with pytest.raises(ParseError):
        parse_program("fun f(x, x) = 1 in 2")


def test_parse_rejects_trailing_tokens():
    with pytest.raises(ParseError):
        parse_program("3 4")


def test_parse_keywords_not_names():
    with pytest.raises(ParseError):
        parse_program("let in = 3 in in")


def test_parse_primed_identifiers():
    assert parse_program("x'") == Exp(Var("x'"))


# -- the parser against the recursive-descent reference it replaced

BAD_CHARACTERS = ("'", " ' ", "@", "é", "#", "\u00a0")


def _outcome(parse, src):
    try:
        return flatten(parse(src))
    except ParseError as err:
        return (err.line, err.col, err.message)


def _mutate(src, kind, at, char):
    """One token-level edit of src: drop, duplicate or swap tokens, or
    insert a bad character before or after one (a "'" after a literal
    is a bad character, after a name it extends the name)."""
    spans = [m.span() for m in _TOKEN_RE.finditer(src)]
    if not spans:
        return src + char
    a, b = spans[at % len(spans)]
    if kind == "drop":
        return src[:a] + src[b:]
    if kind == "duplicate":
        return src[:b] + " " + src[a:b] + src[b:]
    if kind == "swap" and at % len(spans) + 1 < len(spans):
        c, d = spans[at % len(spans) + 1]
        return src[:a] + src[c:d] + src[b:c] + src[a:b] + src[d:]
    if kind == "before":
        return src[:a] + char + src[a:]
    return src[:b] + char + src[b:]


@settings(deadline=None, max_examples=400)
@given(
    st.integers(0, 10**6),
    st.lists(
        st.tuples(
            st.sampled_from(("drop", "duplicate", "swap", "before", "after")),
            st.integers(0, 10**4),
            st.sampled_from(BAD_CHARACTERS),
        ),
        max_size=3,
    ),
)
@example(0, [("after", 0, "'")])
def test_parser_agrees_with_the_reference(seed, edits):
    src = print_program(gen_program(GenConfig(seed=derive_seed(11, seed))))
    for kind, at, char in edits:
        src = _mutate(src, kind, at, char)
    assert _outcome(parse_program, src) == _outcome(reference_parse, src)


@pytest.mark.parametrize(
    "src",
    ["", "  \n ", "'", "1'", "x'", "-", "--1", "- -x", "!-1", "(", ")", "-(", "((1)", "(1))", "1 +", "1 + * 2",
     "let", "let x", "let x =", "let x = extern", "let x = extern r", "let x = extern r(", "if", "if 1 then",
     "fun", "fun f", "fun f(", "fun f(x,", "fun f(x) = 1", "fun f(x) = 1 and", "f(", "f(1,)", "f(,1)",
     "fun f() = 1 and g() = 2 and f() = 3 in 4", "fun f(x, y, x) = 1 in 2", "1 < 2 < 3 = 4 <= 5",
     "-9223372036854775808", "-(5)", "!(!x)", "x @"],
)
def test_parser_agrees_with_the_reference_on_fragments(src):
    assert _outcome(parse_program, src) == _outcome(reference_parse, src)


# -- printing


def test_print_smallest():
    assert print_program(Exp(Const(3))) == "3"


def test_right_figure_roundtrip():
    t = parse_program(RIGHT)
    assert parse_program(print_program(t)) == t


def test_print_negative_constant_roundtrips():
    t = Exp(Unop("neg", Const(5)))
    assert parse_program(print_program(t)) == t


def test_roundtrip_generated_corpus():
    cfg = GenConfig(seed=0)
    for i in range(1000):
        t = gen_program(replace(cfg, seed=derive_seed(3, i)))
        assert parse_program(print_program(t)) == t


def test_well_formed_on_parsed():
    assert well_formed(parse_program(LEFT))


def test_term_size():
    assert term_size(Exp(Const(3))) == 1
    # fun + cond + true leaf + recursive app + continuation app
    assert term_size(parse_program(RIGHT)) == 5


# -- annotations


def test_zip_strip_roundtrip():
    # a term paired with its facts in pre-order, and the term back
    t = parse_program("if x then 1 else 2")
    at = Annotated(Nodes(t), (True, True, False))
    assert at.term is t
    assert at.nodes.terms == [t, t.then, t.orelse]
    assert list(at.facts) == [True, True, False]


def test_zip_leaf():
    at = Annotated(Nodes(Exp(Const(3))), ("a",))
    assert at.facts[0] == "a"
    assert at.nodes.kids == [()]


def test_zip_shape_mismatch():
    # a fact count that differs from the node count
    from il.reach import check_reach

    rej = check_reach({}, Annotated(Nodes(Exp(Const(3))), (True, True)))
    assert (rej.path, rej.rule) == ((), "Shape")


def test_annotated_children_follow_bodies_then_cont():
    t = parse_program("fun f() = 1 and g() = 2 in 3")
    nodes = Nodes(t)
    assert isinstance(nodes.terms[0], Fun)
    assert nodes.kids[0] == (1, 2, 3)
    assert [nodes.terms[k] for k in nodes.kids[0]] == [t.defs[0].body, t.defs[1].body, t.cont]
    assert nodes.parent == [-1, 0, 0, 0]


def test_table_resolves_applications_to_the_innermost_group():
    t = parse_program("fun f() = g() and g() = 1 in fun f() = f() in if x then f() else h()")
    nodes = Nodes(t)
    # 0 outer group, 1 g(), 2 1, 3 inner group, 4 f(), 5 cond, 6 f(), 7 h()
    assert nodes.callee[1] == (2, t.defs[1])
    assert nodes.callee[4] == nodes.callee[6] == (4, t.cont.defs[0])
    assert nodes.callee[7] is None
    assert [nodes.callee[i] for i in (0, 2, 3, 5)] == [None] * 4
    assert nodes.path(7) == (2, 1, 1)
    assert nodes.path(0) == ()


def test_sidecar_roundtrip_bool():
    t = parse_program("if x then 1 else 2")
    at = Annotated(Nodes(t), (True, True, False))
    text = sidecar_text(at)
    assert text == "true\ntrue\nfalse\n"
    back = parse_sidecar(t, text)
    assert list(back.facts) == [True, True, False]


def test_sidecar_roundtrip_sets():
    t = parse_program("let x = a in x")
    at = Annotated(Nodes(t), (frozenset({"a"}), frozenset({"x"})))
    text = sidecar_text(at)
    assert text == "{a}\n{x}\n"
    back = parse_sidecar(t, text)
    assert back.facts[0] == {"a"}
    assert back.facts[1] == {"x"}


def test_sidecar_count_mismatch():
    t = parse_program("let x = a in x")
    with pytest.raises(ValueError):
        parse_sidecar(t, "{a}\n")
    with pytest.raises(ValueError):
        parse_sidecar(t, "{a}\n{x}\n{}\n")
