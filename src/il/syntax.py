"""Abstract syntax, expression evaluation, parsing, and printing for IL.

IL is a first-order language with tail calls, mutually recursive
function groups, and system calls.  Values are signed 64-bit integers
with two's-complement wrapping; comparisons yield 1 or 0.  Expression
evaluation returns None (undefined) when a needed variable is unbound
or a division by zero occurs.

Concrete grammar (whitespace-insensitive)::

    program  := term
    term     := "let" VAR "=" extexp "in" term
              | "if" expr "then" term "else" term
              | "fun" fundef { "and" fundef } "in" term
              | FUN "(" [expr {"," expr}] ")"
              | expr
    fundef   := FUN "(" [VAR {"," VAR}] ")" "=" term
    extexp   := expr | "extern" ACTION "(" [expr {"," expr}] ")"
    expr     := INT | VAR | "-" expr | "!" expr | "(" expr ")"
              | expr ("*"|"/") expr | expr ("+"|"-") expr
              | expr ("="|"<"|"<=") expr
    VAR/FUN/ACTION := [a-zA-Z_][a-zA-Z0-9_']*

Nodes numbers a term's nodes once, in pre-order, with one explicit-stack
walk: each node's term, parent and children (a function group's
children are its member bodies, then its continuation) and, for an
application, the group member its name resolves to.  It is the one
table of terms: the analyses, the checkers and the passes read it.
term_fact folds each node's free variables once and keeps them, with
the node's number, on the term itself; the interpreter's configuration
keys read them there.  term_reads is the one walk for what a whole
program reads, its free variables and its constants: it goes down the
term once, counts the names bound on the path and stores nothing, so
facts are folded only below the nodes a run or a game keys.  An
annotation (Annotated) is that table with one analysis fact per node in
pre-order, which is also the sidecar format: one fact per line,
"true"/"false" for booleans, "{x,y}" for variable sets.  The parser, the printer and every walk
over terms or expressions loop on explicit stacks or over the table,
so no walk recurses.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count, islice
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

# ---------------------------------------------------------------------------
# Values

INT_MAX = (1 << 63) - 1
_MASK = (1 << 64) - 1


def wrap(v: int) -> int:
    """Reduce v to the signed 64-bit range with two's-complement wrapping."""
    v &= _MASK
    return v - (1 << 64) if v > INT_MAX else v


def truthy(v: int) -> bool:
    """Branch decision for conditionals: nonzero is true."""
    return v != 0


# ---------------------------------------------------------------------------
# Expressions


class Expr:
    """Base class for pure expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: int


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unop(Expr):
    op: str  # 'neg' | 'not'
    arg: Expr


@dataclass(frozen=True)
class Binop(Expr):
    op: str  # '+' '-' '*' '/' '=' '<' '<='
    left: Expr
    right: Expr


def free_vars(e: Expr) -> frozenset[str]:
    names: set[str] = set()
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Binop):
            stack += (e.right, e.left)
        elif isinstance(e, Unop):
            stack.append(e.arg)
        elif isinstance(e, Var):
            names.add(e.name)
    return frozenset(names)


def free_vars_list(es: Sequence[Expr]) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for e in es:
        out |= free_vars(e)
    return out


def _div(a: int, b: int) -> Optional[int]:
    # Truncating division; division by zero is undefined.
    if b == 0:
        return None
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return wrap(q)


_APPLY: dict[str, Callable[[int, int], Optional[int]]] = {
    "+": lambda a, b: wrap(a + b),
    "-": lambda a, b: wrap(a - b),
    "*": lambda a, b: wrap(a * b),
    "/": _div,
    "=": lambda a, b: 1 if a == b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
}


def eval_expr(e: Expr, env: Mapping[str, int]) -> Optional[int]:
    """Evaluate e under env; None means undefined (unbound var, div by 0).
    A loop goes down left operands to a leaf and back up; an operator
    waits on the stack as (left value, operator) while its right operand,
    if not a leaf, is evaluated."""
    cls = type(e)
    if cls is Const:
        return e.value
    if cls is Var:
        return env.get(e.name)
    stack: list = []
    while True:
        while cls is Binop or cls is Unop:
            stack.append(e)
            e = e.left if cls is Binop else e.arg
            cls = type(e)
        v = e.value if cls is Const else env.get(e.name)
        while v is not None and stack:
            top = stack.pop()
            if type(top) is Unop:
                v = wrap(-v) if top.op == "neg" else (0 if v else 1)
            elif type(top) is tuple:
                v = _APPLY[top[1].op](top[0], v)
            else:
                e = top.right
                cls = type(e)
                if cls is Binop or cls is Unop:
                    stack.append((v, top))
                    break
                b = e.value if cls is Const else env.get(e.name)
                v = None if b is None else _APPLY[top.op](v, b)
        else:
            return v


def eval_expr_list(es: Sequence[Expr], env: Mapping[str, int]) -> Optional[tuple[int, ...]]:
    """Strict list evaluation: undefined as soon as any element is."""
    out = []
    for e in es:
        v = eval_expr(e, env)
        if v is None:
            return None
        out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Terms


class Term:
    """Base class for IL terms.

    Two attributes are kept on a term but are not fields, so equality,
    hashing and printing never see them.  _segment belongs to the
    interpreter (semantics.run_to_anchor): how often execution has
    entered the segment that starts at this term, then that segment's
    compiled code, or None when the segment's first step is too large
    to inline and it always runs interpreted.  _fact is term_fact's
    (number, free variables)."""

    __slots__ = ()
    _segment: Any = 0
    _fact: Any = None


_setattr = object.__setattr__  # terms are frozen; _segment and _fact are not fields


@dataclass(frozen=True)
class SysCall:
    """The right-hand side of a system-call let: action name and arguments."""

    action: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Exp(Term):
    expr: Expr


@dataclass(frozen=True)
class Let(Term):
    var: str
    value: Union[Expr, SysCall]
    body: Term


@dataclass(frozen=True)
class Cond(Term):
    cond: Expr
    then: Term
    orelse: Term


@dataclass(frozen=True)
class FunDef:
    """One definition inside a function group. Parameter names are distinct."""

    name: str
    params: tuple[str, ...]
    body: Term


@dataclass(frozen=True)
class Fun(Term):
    """A group of mutually recursive definitions with distinct names."""

    defs: tuple[FunDef, ...]
    cont: Term


@dataclass(frozen=True)
class App(Term):
    fun: str
    args: tuple[Expr, ...]


def term_children(t: Term) -> tuple[Term, ...]:
    """Subterms in canonical order (fundef: bodies, then continuation)."""
    if type(t) is Let:
        return (t.body,)
    if type(t) is Cond:
        return (t.then, t.orelse)
    if type(t) is Fun:
        return (*[d.body for d in t.defs], t.cont)
    return ()


class Nodes:
    """A term's nodes, numbered once in pre-order; node 0 is the root.

    terms[i] is node i's term, parent[i] its parent's index (-1 for the
    root) and kids[i] its children's, in term_children order.  For an
    application, callee[i] is the group member its name resolves to, as
    (body index, definition); it is None for every other node and for a
    name no enclosing group defines.  That is the one statement of the
    scoping rule for function names: a group binds its names in all its
    bodies and its continuation, and an inner group shadows an outer one.
    """

    __slots__ = ("terms", "parent", "kids", "callee")

    def __init__(self, t: Term):
        terms: list[Term] = []
        parent: list[int] = []
        nkids: list[int] = []
        scope: dict[str, tuple[int, int]] = {}  # name -> (group node, member position)
        apps: list[tuple[int, int, int]] = []
        stack: list = [(t, -1)]
        while stack:
            top = stack.pop()
            if type(top) is dict:  # leaving a group: restore the names it shadowed
                for name, prev in top.items():
                    if prev is None:
                        del scope[name]
                    else:
                        scope[name] = prev
                continue
            term, up = top
            i = len(terms)
            terms.append(term)
            parent.append(up)
            if isinstance(term, Let):
                stack.append((term.body, i))
                nkids.append(1)
            elif isinstance(term, Cond):
                stack += ((term.orelse, i), (term.then, i))
                nkids.append(2)
            elif isinstance(term, Fun):
                stack.append({d.name: scope.get(d.name) for d in term.defs})
                stack.append((term.cont, i))
                stack += ((d.body, i) for d in reversed(term.defs))
                scope.update((d.name, (i, g)) for g, d in enumerate(term.defs))
                nkids.append(len(term.defs) + 1)
            else:
                nkids.append(0)
                if isinstance(term, App) and term.fun in scope:
                    apps.append((i, *scope[term.fun]))
        # A node's first child follows it, and each further child follows
        # its elder sibling's subtree; subtree sizes come from the parents.
        size = [1] * len(terms)
        for i in reversed(range(1, len(terms))):
            size[parent[i]] += size[i]
        kids: list[tuple[int, ...]] = []
        for i, n in enumerate(nkids):
            k, ks = i + 1, []
            for _ in range(n):
                ks.append(k)
                k += size[k]
            kids.append(tuple(ks))
        callee: list[Optional[tuple[int, FunDef]]] = [None] * len(terms)
        for i, group, g in apps:
            callee[i] = (kids[group][g], terms[group].defs[g])
        self.terms, self.parent, self.kids, self.callee = terms, parent, kids, callee

    def path(self, i: int) -> tuple[int, ...]:
        """Node i's child positions from the root."""
        out = []
        while i > 0:
            up = self.parent[i]
            out.append(self.kids[up].index(i))
            i = up
        return tuple(reversed(out))


def term_size(t: Term) -> int:
    n, stack = 0, [t]
    while stack:
        n += 1
        stack += term_children(stack.pop())
    return n


def term_exprs(t: Term) -> tuple[Expr, ...]:
    """The expressions sitting directly at this node."""
    if isinstance(t, Let):
        return tuple(t.value.args) if isinstance(t.value, SysCall) else (t.value,)
    if isinstance(t, Cond):
        return (t.cond,)
    if isinstance(t, Exp):
        return (t.expr,)
    if isinstance(t, App):
        return tuple(t.args)
    return ()


def node_free_vars(t: Term, kids: Sequence[Iterable[str]]) -> set[str]:
    """t's free variables, given its children's in term_children order.
    This and term_reads' walk are the two statements of the scoping
    rule for variables: a let binds its variable in its body, and a
    group's definitions bind their parameters."""
    out = set(free_vars_list(term_exprs(t)))
    if isinstance(t, Let):
        out.update(v for v in kids[0] if v != t.var)
    elif isinstance(t, Cond):
        out.update(kids[0], kids[1])
    elif isinstance(t, Fun):
        out.update(kids[-1])
        for d, body in zip(t.defs, kids):
            out.update(v for v in body if v not in d.params)
    return out


_numbers = count()


def term_fact(t: Term) -> tuple[int, tuple[str, ...]]:
    """t's number and its free variables in sorted order, kept on t.

    A term without a fact is walked on an explicit stack in pre-order,
    descending only into subterms without a fact, and the nodes walked
    are folded through node_free_vars in reverse pre-order (children
    follow their parent): each node without a fact gets the next number
    and its free variables.  A term with a fact has one on every node
    below it, so a caller folds only the subterms it asks about, and a
    term object shared by two programs, as a pass's output shares
    subterms with its input, is neither walked again nor renumbered.
    Numbers are never reused, so two terms have the same number only if
    they are the same object.  term_reads reads a whole program's free
    variables without folding it."""
    fact = t._fact
    if fact is None:
        order: list[Term] = []
        stack = [t]
        while stack:
            term = stack.pop()
            order.append(term)
            stack += [k for k in reversed(term_children(term)) if k._fact is None]
        for term in reversed(order):
            if term._fact is None:  # an object met twice is folded once
                free = node_free_vars(term, [k._fact[1] for k in term_children(term)])
                _setattr(term, "_fact", (next(_numbers), tuple(sorted(free))))
        fact = t._fact
    return fact


def term_reads(t: Term) -> tuple[frozenset[str], frozenset[int]]:
    """What a whole program reads besides its own bindings: the
    variables it reads from its initial environment, and its constants.

    One walk down t on an explicit stack, in pre-order, which counts the
    variables bound on the path from the root and collects every other
    variable an expression reads; it stores nothing on the terms.  A
    let's value is read before its variable is bound, and a definition's
    parameters are bound in its body only, as node_free_vars states."""
    free: set[str] = set()
    consts: set[int] = set()
    bound: dict[str, int] = {}  # variable -> binders of it on the path
    stack: list = [t]
    exprs: list[Expr] = []
    while stack:
        term = stack.pop()
        cls = type(term)
        if cls is tuple:  # a scope's edge: (names, 1) on entry, (names, -1) on exit
            names, step = term
            for v in names:
                bound[v] = bound.get(v, 0) + step
            continue
        if cls is Let:
            value = term.value
            if type(value) is SysCall:
                exprs += value.args
            else:
                exprs.append(value)
            scope = (term.var,)
            stack += ((scope, -1), term.body, (scope, 1))
        elif cls is Cond:
            exprs.append(term.cond)
            stack += (term.orelse, term.then)
        elif cls is Fun:
            stack.append(term.cont)
            for d in reversed(term.defs):
                stack += ((d.params, -1), d.body, (d.params, 1))
        elif cls is Exp:
            exprs.append(term.expr)
        else:
            exprs += term.args
        while exprs:
            e = exprs.pop()
            cls = type(e)
            if cls is Var:
                if not bound.get(e.name):
                    free.add(e.name)
            elif cls is Const:
                consts.add(e.value)
            elif cls is Binop:
                exprs += (e.left, e.right)
            else:
                exprs.append(e.arg)
    return frozenset(free), frozenset(consts)


# ---------------------------------------------------------------------------
# Annotated terms


@dataclass(frozen=True, eq=False)
class Annotated:
    """A term's node table with one fact per node, in pre-order."""

    nodes: Nodes
    facts: tuple

    @property
    def term(self) -> Term:
        return self.nodes.terms[0]


def _fact_line(fact: Any) -> str:
    if fact is True:
        return "true"
    if fact is False:
        return "false"
    return "{" + ",".join(sorted(fact)) + "}"


def _parse_fact_line(line: str, lineno: int) -> Any:
    line = line.strip()
    if line == "true":
        return True
    if line == "false":
        return False
    if line.startswith("{") and line.endswith("}"):
        inner = line[1:-1].strip()
        if not inner:
            return frozenset()
        return frozenset(p.strip() for p in inner.split(","))
    raise ValueError(f"sidecar line {lineno}: cannot parse fact {line!r}")


def sidecar_text(at: Annotated) -> str:
    """One fact per line, nodes in pre-order."""
    return "\n".join(map(_fact_line, at.facts)) + "\n"


def parse_sidecar(t: Term, text: str) -> Annotated:
    """Rebuild an annotated term from a program and its sidecar."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    facts = tuple(_parse_fact_line(ln, i + 1) for i, ln in enumerate(lines))
    nodes = Nodes(t)
    if len(facts) < len(nodes.terms):
        raise ValueError("sidecar has fewer facts than the program has nodes")
    if len(facts) > len(nodes.terms):
        raise ValueError("sidecar has more facts than the program has nodes")
    return Annotated(nodes, facts)


# ---------------------------------------------------------------------------
# Parsing


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_KEYWORDS = frozenset({"let", "in", "if", "then", "else", "fun", "and", "extern"})

_DIGITS = "[0-9]+"  # a literal: ASCII digits only, no sign, no underscores

_TOKENS_RE = re.compile(rf"[A-Za-z_][A-Za-z0-9_']*|{_DIGITS}|<=|[=+*/<!(),-]")
# Group 1 is a token; group 2 is a character no token can start with.
_TOKEN_RE = re.compile(rf"({_TOKENS_RE.pattern})|(\S)")
_INT_RE = re.compile(rf"-?{_DIGITS}")

_BIN_PREC = {"=": 1, "<": 1, "<=": 1, "+": 2, "-": 2, "*": 3, "/": 3}
_PREFIX = {"-": "neg", "!": "not", "(": "("}


def _error_at(src: str, off: int, message: str) -> ParseError:
    """Only errors need a line and column, so only errors compute them."""
    return ParseError(message, src.count("\n", 0, off) + 1, off - src.rfind("\n", 0, off))


def _is_var(tok: str) -> bool:
    """Whether a token is a name that is not a keyword.  Tokens are
    ASCII, and exactly the names start at or after "A" (letters and
    "_"); digits, operators and "" sort before it."""
    return tok >= "A" and tok not in _KEYWORDS


def is_var_name(text: str) -> bool:
    """Whether text is exactly one variable name token."""
    return _TOKENS_RE.fullmatch(text) is not None and _is_var(text)


def _digits_value(digits: str) -> int:
    """The 64-bit value of a string of ASCII digits.  10**64 is a
    multiple of 2**64, so only the last 64 digits count, and int()'s
    digit limit is never reached."""
    return wrap(int(digits[-64:]))


def int_literal(text: str) -> Optional[int]:
    """The 64-bit value of text if it is a literal, optionally negated,
    else None."""
    if not _INT_RE.fullmatch(text):
        return None
    if text[0] == "-":
        return wrap(-_digits_value(text[1:]))
    return _digits_value(text)


class _Stop(Exception):
    """A syntax error as (token index, message); parse_program works out
    its line and column."""


def _expect(toks: list[str], i: int, tok: str) -> int:
    if toks[i] != tok:
        raise _Stop(i, f"expected {tok!r}")
    return i + 1


def _name(toks: list[str], i: int, what: str) -> str:
    if not _is_var(toks[i]):
        raise _Stop(i, f"expected {what}")
    return toks[i]


def _expr(toks: list[str], i: int, leaves: dict) -> tuple[Expr, int]:
    """The expression from token i, and the index after it.  Operands
    wait on vals, operators on ops: binary ones, which first reduce those
    before them that bind at least as tightly (all are left-associative),
    "neg" and "not", and "(".  leaves keeps one leaf per token text."""
    vals: list[Expr] = []
    ops: list[str] = []
    while True:
        tok = toks[i]
        e = leaves.get(tok)
        if e is None:
            if tok == "-" and toks[i + 1].isdigit():
                i += 1
                tok = "-" + toks[i]
                e = leaves.get(tok) or Const(wrap(-_digits_value(toks[i])))
            elif tok in _PREFIX:
                ops.append(_PREFIX[tok])
                i += 1
                continue
            elif tok.isdigit():
                e = Const(_digits_value(tok))
            elif _is_var(tok):
                e = Var(tok)
            else:
                raise _Stop(i, "expected an expression")
            leaves[tok] = e
        i += 1
        while True:  # e is a complete operand
            while ops and ops[-1] in ("neg", "not"):
                e = Unop(ops.pop(), e)
            prec = _BIN_PREC.get(toks[i])
            if prec is not None:
                while ops and _BIN_PREC.get(ops[-1], 0) >= prec:
                    e = Binop(ops.pop(), vals.pop(), e)
                vals.append(e)
                ops.append(toks[i])
                i += 1
                break
            while ops and ops[-1] != "(":
                e = Binop(ops.pop(), vals.pop(), e)
            if not ops:
                return e, i
            ops.pop()
            i = _expect(toks, i, ")")


def _items(toks: list[str], i: int, leaves: Optional[dict]) -> tuple[tuple, int]:
    """A parenthesized list from token i, and the index after it: of
    expressions, or with leaves None, of distinct names."""
    i = _expect(toks, i, "(")
    out: list = []
    seen: set[str] = set()
    if toks[i] != ")":
        while True:
            if leaves is None:
                e = _name(toks, i, "a parameter name")
                if e in seen:
                    raise _Stop(i, f"duplicate parameter {e!r}")
                seen.add(e)
                i += 1
            else:
                e, i = _expr(toks, i, leaves)
            out.append(e)
            if toks[i] != ",":
                break
            i += 1
    return tuple(out), _expect(toks, i, ")")


def _parse(toks: list[str]) -> Term:
    """The program in toks, which end with "".  A term waits on frames
    while its last subterm is parsed: ("let", var, value), ("then", cond),
    ("else", cond, then), and for a group ("defs", definitions so far)
    under ("def", name, params), then ("in", definitions)."""
    leaves: dict = {}
    frames: list[tuple] = []
    i = 0
    while True:
        tok = toks[i]
        if tok == "let":
            var = _name(toks, i + 1, "a variable name")
            i = _expect(toks, i + 2, "=")
            if toks[i] == "extern":
                action = _name(toks, i + 1, "an action name")
                args, i = _items(toks, i + 2, leaves)
                value: Union[Expr, SysCall] = SysCall(action, args)
            else:
                value, i = _expr(toks, i, leaves)
            frames.append(("let", var, value))
            i = _expect(toks, i, "in")
        elif tok == "if":
            cond, i = _expr(toks, i + 1, leaves)
            frames.append(("then", cond))
            i = _expect(toks, i, "then")
        elif tok == "fun" or (tok == "and" and frames and frames[-1][0] == "defs"):
            if tok == "fun":
                frames.append(("defs", []))
            name = _name(toks, i + 1, "a function name")
            params, i = _items(toks, i + 2, None)
            frames.append(("def", name, params))
            i = _expect(toks, i, "=")
        else:
            # a name is never the last token, so i + 1 is in range
            if _is_var(tok) and toks[i + 1] == "(":
                args, i = _items(toks, i + 1, leaves)
                t: Term = App(tok, args)
            else:
                e, i = _expr(toks, i, leaves)
                t = Exp(e)
            while frames:  # t completes the innermost frame
                f = frames.pop()
                if f[0] == "let":
                    t = Let(f[1], f[2], t)
                elif f[0] == "else":
                    t = Cond(f[1], f[2], t)
                elif f[0] == "in":
                    t = Fun(f[1], t)
                elif f[0] == "then":
                    frames.append(("else", f[1], t))
                    i = _expect(toks, i, "else")
                    break
                else:
                    defs = frames[-1][1]
                    defs.append(FunDef(f[1], f[2], t))
                    if toks[i] == "and":
                        break  # the loop reads the next definition
                    seen: set[str] = set()
                    for d in defs:
                        if d.name in seen:
                            raise _Stop(i, f"duplicate function name {d.name!r} in group")
                        seen.add(d.name)
                    frames[-1] = ("in", tuple(defs))
                    i = _expect(toks, i, "in")
                    break
            else:
                if toks[i]:
                    raise _Stop(i, "expected end of input")
                return t


def parse_program(src: str) -> Term:
    """Parse a program; raises ParseError with line/column on failure.
    All of src is tokenized first, so a bad character is reported
    before any syntax error that precedes it."""
    toks = _TOKENS_RE.findall(src)
    if len("".join(toks)) != len("".join(src.split())):  # a character no token covers
        m = next(m for m in _TOKEN_RE.finditer(src) if m.group(1) is None)
        raise _error_at(src, m.start(), f"unexpected character {m.group(2)!r}")
    try:
        return _parse(toks + [""])
    except _Stop as stop:
        index, message = stop.args
        m = next(islice(_TOKENS_RE.finditer(src), index, None), None)
        raise _error_at(src, len(src) if m is None else m.start(), message) from None


# ---------------------------------------------------------------------------
# Printing


def _expr_str(e: Expr) -> str:
    """e's text, parenthesized only where precedence needs it.  A loop
    goes down left operands; what follows one waits on the stack: text,
    or (right operand, the least precedence it may show bare)."""
    if type(e) is Var:
        return e.name
    out: list[str] = []
    stack: list = [(e, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        e, min_prec = item
        while True:
            if type(e) is Binop:
                p, right = _BIN_PREC[e.op], e.right
                if p < min_prec:
                    out.append("(")
                    stack.append(")")
                if type(right) is Var or type(right) is Const:
                    stack.append(f" {e.op} {right.name if type(right) is Var else right.value}")
                else:
                    stack += ((right, p + 1), f" {e.op} ")
                e, min_prec = e.left, p
            elif type(e) is Unop and not (e.op == "neg" and type(e.arg) is Const and e.arg.value >= 0):
                out.append("-" if e.op == "neg" else "!")
                e, min_prec = e.arg, 4
            else:
                break
        if type(e) is Unop:  # -5 would re-parse as a literal
            out.append(f"-({e.arg.value})")
        else:
            out.append(e.name if type(e) is Var else str(e.value))
    return "".join(out)


def print_program(t: Term) -> str:
    """Deterministic pretty-printer; parse_program inverts it exactly.
    A conditional is on one line when it and its indent fit in 72
    columns; lets and groups break lines.  One-line widths (None: breaks
    lines) are folded in reverse pre-order, then text appended in order."""
    order: list[Term] = []
    stack: list = [t]
    while stack:
        order.append(stack.pop())
        stack += reversed(term_children(order[-1]))
    text: list = [None] * len(order)  # a leaf's text, a conditional's condition
    width: list = [None] * len(order)  # a leaf's or a conditional's one-line width
    widths: list = []  # the widths of the terms after this one, the next on top
    for k in range(len(order) - 1, -1, -1):
        u = order[k]
        if type(u) is Cond:
            text[k] = _expr_str(u.cond)
            a, b = widths.pop(), widths.pop()
            if a is not None and b is not None:
                width[k] = len(text[k]) + 15 + a + b  # "if " c " then " a " else " b
        elif type(u) is Exp or type(u) is App:
            text[k] = _expr_str(u.expr) if type(u) is Exp else f"{u.fun}({', '.join(map(_expr_str, u.args))})"
            width[k] = len(text[k])
        else:
            del widths[len(widths) - (len(u.defs) + 1 if type(u) is Fun else 1) :]
        widths.append(width[k])
    out: list[str] = []
    stack = [0]  # text to append, or the indent of the next term in pre-order
    for k, u in enumerate(order):
        ind = stack.pop()
        while type(ind) is str:
            out.append(ind)
            ind = stack.pop()
        pad = "\n" + " " * ind
        if type(u) is Exp or type(u) is App:
            out.append(text[k])
        elif type(u) is Let:
            v = u.value
            v = f"extern {v.action}({', '.join(map(_expr_str, v.args))})" if type(v) is SysCall else _expr_str(v)
            out.append(f"let {u.var} = {v} in{pad}")
            stack.append(ind)
        elif type(u) is Cond:
            inline = width[k] is not None and width[k] + ind <= 72
            out.append(f"if {text[k]} then" + (" " if inline else f"{pad}  "))
            stack += (ind + 2, " else " if inline else f"{pad}else{pad}  ", ind + 2)
        else:
            parts: list = []
            for g, d in enumerate(u.defs):
                parts += (f"{pad}and " if g else "fun ") + f"{d.name}({', '.join(d.params)}) ={pad}  ", ind + 2
            parts += f"{pad}in{pad}", ind
            stack += reversed(parts)
    out += reversed(stack)
    return "".join(out)
