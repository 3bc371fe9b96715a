"""Seeded IL program text for the benchmark corpora, with plain-Python
references for the programs whose results have a closed form.

Every generator takes a random.Random built from the workload seed and
returns source text, so the inputs that reach il come from the seed
only.  Shapes stay below the recursion limits of the code they were
sized against: 492 nested lets and 140 parentheses in the parser, 497
levels in term_size.
"""
from __future__ import annotations

from hashlib import blake2b
from itertools import count
from random import Random

VARS = ("x", "y", "z", "w")
INPUTS = ("a", "b", "c")
CONSTS = (0, 1, 2, 9)
OPS = ("+", "-", "*", "/", "=", "<", "<=")

_MASK = (1 << 64) - 1


def wrap(v: int) -> int:
    """Signed 64-bit wrap-around, as IL arithmetic does it."""
    v &= _MASK
    return v - (1 << 64) if v >= 1 << 63 else v


def term_nodes(t) -> int:
    """Term nodes of a parsed program (expressions not counted), by an
    explicit stack so that deep programs need no recursion."""
    n = 0
    stack = [t]
    while stack:
        t = stack.pop()
        n += 1
        kind = type(t).__name__
        if kind == "Let":
            stack.append(t.body)
        elif kind == "Cond":
            stack.append(t.then)
            stack.append(t.orelse)
        elif kind == "Fun":
            stack.extend(d.body for d in t.defs)
            stack.append(t.cont)
    return n


# ---------------------------------------------------------------------------
# Typical code: the grammar of the difftest generator, as text


def _expr(rng: Random, scope: tuple[str, ...], depth: int) -> str:
    if depth <= 0 or rng.random() < 0.55:
        r = rng.random()
        if r < 0.45 and scope:
            return rng.choice(scope)
        if r < 0.6:
            return rng.choice(INPUTS)
        return str(rng.choice(CONSTS))
    if rng.random() < 0.18:
        return f"{rng.choice('-!')}({_expr(rng, scope, depth - 1)})"
    op = rng.choice(OPS)
    return f"({_expr(rng, scope, depth - 1)} {op} {_expr(rng, scope, depth - 1)})"


def _args(rng: Random, scope: tuple[str, ...], n: int) -> str:
    return ", ".join(_expr(rng, scope, rng.randrange(1, 3)) for _ in range(n))


def _term(rng: Random, depth: int, scope: tuple[str, ...], funs: dict[str, int], names, nodes: list) -> str:
    """Random term: lets, system calls, conditionals (some constant),
    nested groups and tail applications of in-scope functions with the
    right arity.  nodes[0] counts the term nodes made."""
    nodes[0] += 1

    def leaf() -> str:
        if funs and rng.random() < 0.5:
            name, arity = rng.choice(sorted(funs.items()))
            return f"{name}({_args(rng, scope, arity)})"
        return _expr(rng, scope, rng.randrange(1, 3))

    if depth <= 0:
        return leaf()
    roll = rng.random()
    if roll < 0.34:
        var = rng.choice(VARS)
        if rng.random() < 0.25:
            value = f"extern {rng.choice(('rd', 'wr'))}({_args(rng, scope, rng.randrange(0, 3))})"
        else:
            value = _expr(rng, scope, rng.randrange(1, 3))
        body = _term(rng, depth - 1, scope + (var,), funs, names, nodes)
        return f"let {var} = {value} in\n{body}"
    if roll < 0.54:
        cond = str(rng.choice(CONSTS)) if rng.random() < 0.3 else _expr(rng, scope, rng.randrange(1, 3))
        then = _term(rng, depth - 1, scope, funs, names, nodes)
        orelse = _term(rng, depth - 1, scope, funs, names, nodes)
        return f"if {cond} then\n{then}\nelse\n{orelse}"
    if roll < 0.72:
        group = [f"g{next(names)}" for _ in range(rng.randrange(1, 4))]
        params = {g: tuple(rng.sample(VARS, rng.randrange(0, 4))) for g in group}
        inner = dict(funs)
        inner.update((g, len(p)) for g, p in params.items())
        defs = [
            f"{g}({', '.join(params[g])}) =\n{_term(rng, depth - 1, scope + params[g], inner, names, nodes)}"
            for g in group
        ]
        cont = _term(rng, depth - 1, scope, inner, names, nodes)
        return "fun " + "\nand ".join(defs) + f"\nin\n{cont}"
    if roll < 0.86 and funs:
        return leaf()
    return _expr(rng, scope, rng.randrange(1, 3))


BODY_NODES = (12, 24)  # term nodes of one typical body, so that cost grows with members


def _body(rng: Random, funs: dict[str, int], names) -> str:
    while True:
        nodes = [0]
        text = _term(rng, 5, ("x", "y", "z"), funs, names, nodes)
        if BODY_NODES[0] <= nodes[0] <= BODY_NODES[1]:
            return text


def typical_group(rng: Random, members: int) -> str:
    """A group whose members are random bodies of similar size, entered
    through a dispatch on the free inputs so that every member is
    reachable."""
    names = count()
    group = [f"m{i}" for i in range(members)]
    funs = {m: 3 for m in group}
    defs = [f"{m}(x, y, z) =\n{_body(rng, funs, names)}" for m in group]
    dispatch = f"{group[-1]}(c, b, a)"
    for i, m in reversed(list(enumerate(group[:-1]))):
        dispatch = f"if {rng.choice(INPUTS)} < {i} then {m}(a, b, c) else {dispatch}"
    return "fun " + "\nand ".join(defs) + f"\nin\n{dispatch}"


# ---------------------------------------------------------------------------
# Structured shapes: fixed text for a given size


def forward_chain(k: int) -> str:
    """f_i passes y on to f_{i+1} and only the last member reads it, so
    true liveness learns one link per round; z only feeds itself and is
    dead."""
    defs = [f"f{i}(x, y, z) = if x < 1 then x else f{i + 1}(x - 1, y, z + 1)" for i in range(k - 1)]
    defs.append(f"f{k - 1}(x, y, z) = if x < 1 then y else f0(x - 1, y, z)")
    return "fun " + "\nand ".join(defs) + "\nin\nf0(a, b, c)"


def reverse_chain(k: int) -> str:
    """The continuation enters the last member and f_i calls f_{i-1}, so
    reachability marks one body per sweep over the group."""
    defs = ["f0(x, y) = x + y"]
    defs += [f"f{i}(x, y) = if x < {i} then y else f{i - 1}(x - 1, y + 1)" for i in range(1, k)]
    return "fun " + "\nand ".join(defs) + f"\nin\nf{k - 1}(a, b)"


def let_chain(n: int) -> str:
    """n nested lets; every third binding is dead."""
    lines = []
    last = "a"
    for i in range(n):
        if i % 3 == 2:
            lines.append(f"let d{i} = {last} * {i} in")
        else:
            lines.append(f"let v{i} = {last} + {i % 7} in")
            last = f"v{i}"
    lines.append(last)
    return "\n".join(lines)


def paren_exprs(depth: int, count_: int = 4) -> str:
    """count_ lets, each bound to an expression nested depth parentheses
    deep; operators alternate so the printer keeps every level."""
    lines = []
    for j in range(count_):
        e = INPUTS[j % 3]
        for i in range(depth):
            e = f"({e} {'+' if i % 2 else '*'} {i % 5 + 1})"
        lines.append(f"let r{j} = {e} in")
    lines.append(" + ".join(f"r{j}" for j in range(0, count_, 2)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Long executions with closed-form results


def counter_loop(n: int, k: int, s: int) -> tuple[str, int]:
    text = f"fun loop(i, acc) = if i < {n} then loop(i + 1, acc + {k}) else acc in loop(0, {s})"
    return text, wrap(s + n * k)


def nested_groups(n0: int, n1: int, n2: int, width: int) -> tuple[str, int]:
    """Three levels of groups, each defined inside a body of the level
    above; the innermost level is a mutually recursive pair.  width extra
    bindings sit in every captured environment."""
    lets = [f"let w{j} = a + {j} in" for j in range(width)]
    w = f"w{width - 1}" if width else "0"
    text = "\n".join(lets) + f"""
fun l0(i0, acc0) =
  if i0 < 1 then acc0 else
  fun l1(i1, acc1) =
    if i1 < 1 then l0(i0 - 1, acc1) else
    fun l2(i2, acc2) = if i2 < 1 then l1(i1 - 1, acc2) else l2b(i2 - 1, acc2 + i0 * i1)
    and l2b(i2, acc2) = l2(i2, acc2 + {w} - a)
    in l2({n2}, acc1)
  in l1({n1}, acc0)
in l0({n0}, 0)"""
    total = 0
    for i0 in range(n0, 0, -1):
        for i1 in range(n1, 0, -1):
            total += n2 * (i0 * i1 + max(width - 1, 0))
    return text, wrap(total)


def extern_loop(n: int) -> str:
    """A loop that makes two system calls per iteration."""
    return f"""fun loop(i, acc) =
  if i < {n} then
    let r = extern rd(i, acc) in
    let s = extern wr(r + i) in
    loop(i + 1, acc + r * s)
  else acc
in loop(0, 0)"""


def extern_loop_trace(n: int, oracle_seed: int) -> str:
    """The trace text of extern_loop(n) under the seeded oracle,
    computed from the oracle's documented hash."""
    lines = []
    acc = 0
    for i in range(n):
        r = _oracle(oracle_seed, len(lines), "rd", (i, acc))
        lines.append(f"EVT rd({i},{acc})={r}")
        arg = wrap(r + i)
        s = _oracle(oracle_seed, len(lines), "wr", (arg,))
        lines.append(f"EVT wr({arg})={s}")
        acc = wrap(acc + r * s)
    lines.append(f"END TERM {acc}")
    return "\n".join(lines) + "\n"


def _oracle(seed: int, index: int, action: str, args: tuple[int, ...]) -> int:
    """The seeded oracle's contract: blake2b over seed, call index,
    action and arguments, reduced into [-9, 9]."""
    key = f"{seed}:{index}:{action}:{','.join(map(str, args))}"
    h = blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(h, "big", signed=True) % 19 - 9


# ---------------------------------------------------------------------------
# Loop-free, system-call-dense programs for the game


SILENT = ("helper", "dead", "fork", "const")


def extern_tree(rng: Random, calls: int) -> str:
    """A tree that makes exactly calls system calls on every path, with
    one silent step before each, taken in order from SILENT: a
    non-recursive helper group with a pure body and a dead parameter, a
    dead let, a branch on a call result (at most two per path, a
    constant condition after that), and a constant condition with a
    small dead branch.  So both passes change the program, while the
    game's size and the work along each of its paths depend on calls
    alone."""
    names = count()

    def leaf(scope: tuple[str, ...], funs: dict[str, int]) -> str:
        if funs and rng.random() < 0.5:
            name, arity = rng.choice(sorted(funs.items()))
            return f"{name}({', '.join(rng.choice(scope) for _ in range(arity))})"
        return f"{rng.choice(scope)} + {rng.choice(scope)}"

    def go(left: int, scope: tuple[str, ...], funs: dict[str, int], forks: int, turn: int) -> str:
        if left == 0:
            return leaf(scope, funs)
        var = f"v{next(names)}"
        silent = SILENT[turn % len(SILENT)]

        def rest(action: str, arg: str, funs: dict[str, int], forks: int) -> str:
            body = go(left - 1, scope + (var,), funs, forks, turn + 1)
            return f"let {var} = extern {action}({arg}) in\n{body}"

        def call(funs: dict[str, int] = funs, forks: int = forks) -> str:
            return rest(rng.choice(("rd", "wr")), rng.choice(scope), funs, forks)

        if silent == "fork" and forks and len(scope) > 2:
            v = rng.choice(scope[2:])
            return f"if {v} < 1 then\n{call(forks=forks - 1)}\nelse\n{call(forks=forks - 1)}"
        if silent == "helper":
            g = f"h{next(names)}"
            return f"fun {g}(p, q, r) =\n{leaf(('p', 'q'), {})}\nin\n{call(funs={**funs, g: 3})}"
        if silent == "dead":
            return f"let d{next(names)} = {rng.choice(scope)} * 2 in\n{call()}"
        if rng.random() < 0.5:
            return f"if 1 then\n{call()}\nelse\n{leaf(scope, funs)}"
        return f"if 0 then\n{leaf(scope, funs)}\nelse\n{call()}"

    return go(calls, ("a", "b"), {}, 2, 0)
