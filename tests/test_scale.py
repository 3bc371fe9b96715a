"""Every analysis, checker and pass on terms of 10^5 nodes, one per
benchmark shape, and every subcommand on texts of that size, at the
default recursion limit.  Results are compared by fact arrays, node
counts and pre-order flattenings: == on a term this deep would recurse."""

import importlib.util
import math
import sys
from pathlib import Path
from random import Random

import pytest

from audits import flatten
from il import cli, semantics
from il.cli import main
from il.harness import GenConfig, _generator
from il.reach import check_reach, infer_reach, static_branch
from il.syntax import App, Binop, Cond, Const, Exp, Fun, FunDef, Let, Nodes, SysCall, Var, parse_program, print_program
from il.tlive import check_tlive, infer_tlive
from il.transform import dve, uce

N = 100_000

_path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
_spec = importlib.util.spec_from_file_location("perfbench_corpus", _path)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def let_chain(n):
    """corpus.let_chain(n), built directly, which is faster than
    parsing its text."""
    names = []
    last = "a"
    for i in range(n):
        if i % 3 == 2:
            names.append((f"d{i}", Binop("*", Var(last), Const(i))))
        else:
            names.append((f"v{i}", Binop("+", Var(last), Const(i % 7))))
            last = f"v{i}"
    t = Exp(Var(last))
    for name, value in reversed(names):
        t = Let(name, value, t)
    return t


def _member(name, params, cond, then, callee, args):
    body = Cond(cond, Exp(then), App(callee, args))
    return FunDef(name, params, body)


def forward_chain(k):
    """corpus.forward_chain(k), built directly."""
    x, y, z = Var("x"), Var("y"), Var("z")
    less = Binop("<", x, Const(1))
    down = Binop("-", x, Const(1))
    defs = [
        _member(f"f{i}", ("x", "y", "z"), less, x, f"f{i + 1}", (down, y, Binop("+", z, Const(1))))
        for i in range(k - 1)
    ]
    defs.append(_member(f"f{k - 1}", ("x", "y", "z"), less, y, "f0", (down, y, z)))
    return Fun(tuple(defs), App("f0", (Var("a"), Var("b"), Var("c"))))


def reverse_chain(k):
    """corpus.reverse_chain(k), built directly."""
    x, y = Var("x"), Var("y")
    defs = [FunDef("f0", ("x", "y"), Exp(Binop("+", x, y)))]
    step = (Binop("-", x, Const(1)), Binop("+", y, Const(1)))
    defs += [_member(f"f{i}", ("x", "y"), Binop("<", x, Const(i)), y, f"f{i - 1}", step) for i in range(1, k)]
    return Fun(tuple(defs), App(f"f{k - 1}", (Var("a"), Var("b"))))


def nested_conds(n):
    """n conditionals nested in their else branches; every third one is
    constant and excludes its then branch, a leaf reading x."""
    t = Exp(Var("a"))
    for i in range(n):
        if i % 3 == 0:
            t = Cond(Const(0), Exp(Var("x")), t)
        else:
            t = Cond(Binop("<", Var("a"), Const(i)), Exp(Const(i)), t)
    return t


def typical_group(members):
    """corpus.typical_group's shape: a group of random bodies in the
    difftest generator's grammar, entered through a dispatch on the
    inputs.  A body applies only its neighbours, as choosing among all
    members would make the corpus generator quadratic."""
    rng = Random(0)
    draw = _generator(rng, GenConfig(seed=0))
    group = [f"m{i}" for i in range(members)]
    defs = []
    for i, m in enumerate(group):
        near = tuple((g, 3) for g in group[max(0, i - 4) : i + 4])
        defs.append(FunDef(m, ("x", "y", "z"), draw(5, ("x", "y", "z"), near)))
    dispatch = App(group[-1], (Var("c"), Var("b"), Var("a")))
    for i, m in reversed(list(enumerate(group[:-1]))):
        cond = Binop("<", Var(rng.choice(corpus.INPUTS)), Const(i))
        dispatch = Cond(cond, App(m, (Var("a"), Var("b"), Var("c"))), dispatch)
    return Fun(tuple(defs), dispatch)


SHAPES = {
    "let_chain": lambda: let_chain(N),
    "forward_chain": lambda: forward_chain(N // 3),
    "reverse_chain": lambda: reverse_chain(N // 3 + 1),
    "nested_conds": lambda: nested_conds(N // 2),
    "typical_group": lambda: typical_group(N // 14),
}


def uce_size(nodes, facts):
    """uce's output size from the facts: reachable nodes, less decided
    conditionals and groups that keep no member."""
    size = 0
    for i, t in enumerate(nodes.terms):
        if not facts[i]:
            continue
        kids = nodes.kids[i]
        if isinstance(t, Cond) and static_branch(t.cond) is not None:
            continue
        if isinstance(t, Fun) and not any(facts[k] for k in kids[:-1]):
            continue
        size += 1
    return size


def dve_size(nodes, facts):
    """dve's output size from the facts: nodes outside excluded
    branches, less decided conditionals and dead pure lets."""
    excluded = bytearray(len(facts))
    size = 0
    for i, t in enumerate(nodes.terms):
        kids = nodes.kids[i]
        if excluded[i]:
            for k in kids:
                excluded[k] = 1
            continue
        if isinstance(t, Cond) and static_branch(t.cond) is not None:
            excluded[kids[0] if static_branch(t.cond) else kids[1]] = 1
            continue
        if isinstance(t, Let) and not isinstance(t.value, SysCall) and t.var not in facts[kids[0]]:
            continue
        size += 1
    return size


def test_shapes_match_the_benchmark_corpus():
    assert let_chain(30) == parse_program(corpus.let_chain(30))
    assert forward_chain(5) == parse_program(corpus.forward_chain(5))
    assert reverse_chain(5) == parse_program(corpus.reverse_chain(5))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_all_stages_at_scale(shape):
    t = SHAPES[shape]()
    nodes = Nodes(t)
    size = corpus.term_nodes(t)
    assert len(nodes.terms) == size >= N

    reach = infer_reach(t)
    assert len(reach.facts) == len(nodes.terms)
    assert check_reach({}, reach) is None
    out = uce(reach)
    assert corpus.term_nodes(out) == uce_size(reach.nodes, reach.facts)

    live = infer_tlive(out)
    assert len(live.facts) == corpus.term_nodes(out)
    assert check_tlive({}, {}, live) is None
    final = dve({}, {}, live)
    assert corpus.term_nodes(final) == dve_size(live.nodes, live.facts)

    if shape != "typical_group":
        assert all(reach.facts[i] for i in range(len(reach.facts)) if not _excluded_leaf(nodes, i))
    if shape == "let_chain":
        assert live.facts[0] == {"a"}
        assert corpus.term_nodes(final) == N + 1 - N // 3
    if shape in ("forward_chain", "reverse_chain"):
        bodies = live.nodes.kids[0][:-1]
        assert len(bodies) >= N // 3
        assert all(live.facts[b] == {"x", "y"} for b in bodies)
    if shape == "nested_conds":
        assert live.facts[0] == {"a"}


def _excluded_leaf(nodes, i):
    """Whether node i is the then branch of a constant false conditional."""
    up = nodes.parent[i]
    return up >= 0 and isinstance(nodes.terms[up], Cond) and static_branch(nodes.terms[up].cond) is False


# -- every subcommand on texts of 10^5 nodes

DEEP = 10_000

COMMANDS = {
    "parse": ("parse",),
    "run": ("run",),
    "reach": ("analyze", "--reach"),
    "tlive": ("analyze", "--tlive"),
    "optimize": ("optimize", "--uce", "--dve"),
    "check": ("check",),
}


def chain_text(t):
    """t's text with its chain of else branches on one line, a form
    print_program does not produce, so parse prints it anew."""
    parts = []
    while isinstance(t, Cond):
        parts.append(f"if {print_program(Exp(t.cond))} then {print_program(t.then)} else ")
        t = t.orelse
    return "".join(parts) + print_program(t)


def group_text(t):
    """A function group's text with its continuation's chain on one line."""
    defs = "\nand ".join(f"{d.name}({', '.join(d.params)}) =\n{print_program(d.body)}" for d in t.defs)
    return f"fun {defs}\nin\n{chain_text(t.cont)}"


TEXTS = {
    "flat_sum": lambda: " + ".join(["a", "1"] * (N // 2)),
    "parens_difference": lambda: "(" * DEEP + "1 - (" * DEEP + "a" + ")" * (2 * DEEP),
    "parens_negation": lambda: "(" * DEEP + "-" * DEEP + "a" + ")" * DEEP,
    "nested_lets": lambda: "".join(f"let x{i} = {i} in " for i in range(N)) + "x0",
    "let_chain": lambda: print_program(let_chain(N)),
    "forward_chain": lambda: print_program(forward_chain(N // 3)),
    "reverse_chain": lambda: print_program(reverse_chain(N // 3 + 1)),
    "nested_conds": lambda: chain_text(nested_conds(N // 2)),
    "typical_group": lambda: group_text(typical_group(N // 14)),
}

# The two shapes whose terms nest deepest, at sizes past the recursive
# printer's limit of about 990 nested terms, for an exact round trip.
DEEP_SHAPES = {"nested_conds": lambda: nested_conds(2000), "typical_group": lambda: typical_group(1000)}

# print_program indents no line past MAX_INDENT columns, so a printed
# term takes at most this many bytes per node, counting expression nodes
BYTES_PER_NODE = 128


# 10^5 silent steps are more than check's default fuel of 10^4, and
# the game says so.
EXHAUSTED = {"nested_lets": "EXHAUSTED fuel\n"}


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_every_subcommand_at_scale(name, tmp_path, capsys, monkeypatch):
    assert sys.getrecursionlimit() <= 1000
    text = TEXTS[name]()
    path = tmp_path / "p.il"
    path.write_text(text)
    # parse, the first command, hands over the term it parsed; only its
    # node count is kept, as a live copy slows the cyclic collector
    # through the other commands
    parsed = []
    parse = cli._parse_file
    monkeypatch.setattr(cli, "_parse_file", lambda name: parsed.append(parse(name)) or parsed[-1])
    for command, argv in COMMANDS.items():
        code = main([*argv, str(path), str(path)] if command == "check" else [*argv, str(path)])
        out, err = capsys.readouterr()
        assert err == ""
        if command == "check" and name in EXHAUSTED:
            assert (code, out) == (2, EXHAUSTED[name])
            continue
        assert (command, code) == (command, 0)
        if command == "parse":
            monkeypatch.undo()
            source = flatten(parsed.pop())
            if out != text + "\n":  # text is not in printed form
                assert flatten(parse_program(out)) == source
            nodes = len(source)
            del source
        if command in ("parse", "optimize"):
            assert len(out) <= BYTES_PER_NODE * nodes


def test_run_once_through_nested_lets(tmp_path, capsys):
    # run once, the chain never compiles: the cold loop writes each
    # value into one dict instead of copying the environment per let
    path = tmp_path / "p.il"
    path.write_text("".join(f"let x{i} = {i} in " for i in range(N)) + f"x{N - 1}")
    assert main(["run", "--fuel", "200000", str(path)]) == 0
    assert capsys.readouterr() == (f"END TERM {N - 1}\n", "")


def test_run_a_counter_of_a_million_iterations(tmp_path, capsys):
    # the loop's body compiles with a loop site, so the iterations run
    # in its segment, which returns to run_to_anchor once per Brent
    # save, 15 times
    text, value = corpus.counter_loop(10**6, 7, 3)
    path = tmp_path / "p.il"
    path.write_text(text)
    assert main(["run", "--fuel", "10000000", str(path)]) == 0
    assert capsys.readouterr() == (f"END TERM {value}\n", "")


def test_run_a_hot_chain_of_three_thousand_system_calls(tmp_path, capsys, monkeypatch):
    # the body compiles on its 32nd entry, up to where its code reaches
    # the size bound and is cut; the cut's term is entered only 9 more
    # times, so the rest of the chain stays cold
    path = tmp_path / "p.il"
    path.write_text("fun f(i) = if i < 40 then " + "".join(f"let x{j} = extern e(i) in " for j in range(3000)) + "f(i + 1) else i in f(0)")
    argv = ["run", "--max-events", "1000000", str(path)]
    parsed = []
    parse = cli._parse_file
    monkeypatch.setattr(cli, "_parse_file", lambda name: parsed.append(parse(name)) or parsed[-1])
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("\nEND TERM 40\n") and out.count("\n") == 40 * 3000 + 1
    assert sum(isinstance(t._segment, semantics.Segment) for t in Nodes(parsed[0]).terms) < 50
    monkeypatch.setattr(semantics, "HOT_ENTRIES", math.inf)
    assert main(argv) == 0
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("name", sorted(DEEP_SHAPES))
def test_parse_and_optimize_deep_conditionals(name, tmp_path, capsys):
    t = DEEP_SHAPES[name]()
    text = print_program(t)
    assert flatten(parse_program(text)) == flatten(t)
    path = tmp_path / "p.il"
    path.write_text(text)
    assert main(["parse", str(path)]) == 0
    assert capsys.readouterr() == (text + "\n", "")
    assert main(["optimize", "--uce", "--dve", str(path)]) == 0
    optimized = dve({}, {}, infer_tlive(uce(infer_reach(t))))
    assert capsys.readouterr() == (print_program(optimized) + "\n", "")


@pytest.mark.parametrize("name", sorted(DEEP_SHAPES))
def test_deep_shapes_print_linear_and_parse_back_at_full_size(name):
    # SHAPES' full sizes nest 50,000 conditionals and 7,142 group
    # members: each printed form parses back to its term and takes at
    # most BYTES_PER_NODE bytes per node
    t = SHAPES[name]()
    text = print_program(t)
    nodes = flatten(t)
    assert flatten(parse_program(text)) == nodes
    assert len(text) <= BYTES_PER_NODE * len(nodes)
