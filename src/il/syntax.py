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

Annotated terms mirror the term structure and carry one analysis fact
per node; a function-definition node orders its children as the
function bodies followed by the continuation.  The sidecar format is
one fact per line in pre-order: "true"/"false" for booleans, "{x,y}"
for variable sets.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

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
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Unop):
        return free_vars(e.arg)
    if isinstance(e, Binop):
        return free_vars(e.left) | free_vars(e.right)
    return frozenset()


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


def eval_expr(e: Expr, env: Mapping[str, int]) -> Optional[int]:
    """Evaluate e under env; None means undefined (unbound var, div by 0)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return env.get(e.name)
    if isinstance(e, Unop):
        v = eval_expr(e.arg, env)
        if v is None:
            return None
        return wrap(-v) if e.op == "neg" else (0 if v else 1)
    assert isinstance(e, Binop)
    a = eval_expr(e.left, env)
    if a is None:
        return None
    b = eval_expr(e.right, env)
    if b is None:
        return None
    op = e.op
    if op == "+":
        return wrap(a + b)
    if op == "-":
        return wrap(a - b)
    if op == "*":
        return wrap(a * b)
    if op == "/":
        return _div(a, b)
    if op == "=":
        return 1 if a == b else 0
    if op == "<":
        return 1 if a < b else 0
    if op == "<=":
        return 1 if a <= b else 0
    raise ValueError(f"unknown operator {op!r}")


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
    """Base class for IL terms."""

    __slots__ = ()


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
    if isinstance(t, Let):
        return (t.body,)
    if isinstance(t, Cond):
        return (t.then, t.orelse)
    if isinstance(t, Fun):
        return tuple(d.body for d in t.defs) + (t.cont,)
    return ()


def term_size(t: Term) -> int:
    return 1 + sum(term_size(c) for c in term_children(t))


def well_formed(t: Term) -> bool:
    """Structural invariants: distinct group names, distinct parameters."""
    if isinstance(t, Fun):
        names = [d.name for d in t.defs]
        if len(set(names)) != len(names):
            return False
        for d in t.defs:
            if len(set(d.params)) != len(d.params):
                return False
    return all(well_formed(c) for c in term_children(t))


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


def node_free_vars(t: Term, child_free: Callable[[Term], Iterable[str]]) -> set[str]:
    """t's free variables, given each child's through child_free: the
    one statement of the scoping rule.  A let binds its variable in its
    body, and a group's definitions bind their parameters."""
    out = set(free_vars_list(term_exprs(t)))
    if isinstance(t, Let):
        out.update(v for v in child_free(t.body) if v != t.var)
    elif isinstance(t, Cond):
        out.update(child_free(t.then), child_free(t.orelse))
    elif isinstance(t, Fun):
        out.update(child_free(t.cont))
        for d in t.defs:
            out.update(v for v in child_free(d.body) if v not in d.params)
    return out


def free_term_vars(t: Term) -> frozenset[str]:
    """Variables a whole program reads from its initial environment.
    Folded bottom-up on an explicit stack, so depth is not limited."""
    done: dict[int, frozenset[str]] = {}  # by id(); every key's term lives in t
    stack = [(t, False)]
    while stack:
        n, folded = stack.pop()
        if folded:
            done[id(n)] = frozenset(node_free_vars(n, lambda c: done[id(c)]))
        elif id(n) not in done:
            stack.append((n, True))
            stack.extend((c, False) for c in term_children(n))
    return done[id(t)]


def constants_of(*terms: Term) -> frozenset[int]:
    out: set[int] = set()

    def expr_walk(e: Expr) -> None:
        if isinstance(e, Const):
            out.add(e.value)
        elif isinstance(e, Unop):
            expr_walk(e.arg)
        elif isinstance(e, Binop):
            expr_walk(e.left)
            expr_walk(e.right)

    def walk(t: Term) -> None:
        for e in term_exprs(t):
            expr_walk(e)
        for c in term_children(t):
            walk(c)

    for t in terms:
        walk(t)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Annotated terms


@dataclass(frozen=True)
class Annotated:
    """A term zipped with one fact per node.

    children follow term_children order; the invariant children[i].term
    is term_children(term)[i] makes strip a field access.
    """

    term: Term
    fact: Any
    children: tuple["Annotated", ...]


def strip(at: Annotated) -> Term:
    return at.term


def zip_ann(t: Term, facts: tuple) -> Annotated:
    """Attach a structurally isomorphic fact tree, (fact, (subtree, ...)), to t."""
    if not (isinstance(facts, tuple) and len(facts) == 2 and isinstance(facts[1], tuple)):
        raise ValueError("fact tree nodes must be (fact, children) pairs")
    fact, subfacts = facts
    kids = term_children(t)
    if len(kids) != len(subfacts):
        raise ValueError(
            f"fact tree shape mismatch: node has {len(kids)} subterms, got {len(subfacts)} fact subtrees"
        )
    return Annotated(t, fact, tuple(zip_ann(c, f) for c, f in zip(kids, subfacts)))


def ann_walk(at: Annotated) -> Iterator[Annotated]:
    """Pre-order iteration over annotated nodes."""
    yield at
    for c in at.children:
        yield from ann_walk(c)


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
    return "\n".join(_fact_line(n.fact) for n in ann_walk(at)) + "\n"


def parse_sidecar(t: Term, text: str) -> Annotated:
    """Rebuild an annotated term from a program and its sidecar."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    facts = [_parse_fact_line(ln, i + 1) for i, ln in enumerate(lines)]
    pos = 0

    def build(term: Term) -> Annotated:
        nonlocal pos
        if pos >= len(facts):
            raise ValueError("sidecar has fewer facts than the program has nodes")
        fact = facts[pos]
        pos += 1
        return Annotated(term, fact, tuple(build(c) for c in term_children(term)))

    out = build(t)
    if pos != len(facts):
        raise ValueError("sidecar has more facts than the program has nodes")
    return out


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

# Group 1 is a token; group 2 is a character no token can start with.
_TOKEN_RE = re.compile(rf"([A-Za-z_][A-Za-z0-9_']*|{_DIGITS}|<=|[=+*/<!(),-])|(\S)")
_INT_RE = re.compile(rf"-?{_DIGITS}")

_BIN_PREC = {"=": 1, "<": 1, "<=": 1, "+": 2, "-": 2, "*": 3, "/": 3}


def _error_at(src: str, off: int, message: str) -> ParseError:
    """Only errors need a line and column, so only errors compute them."""
    return ParseError(message, src.count("\n", 0, off) + 1, off - src.rfind("\n", 0, off))


def _is_var(tok: str) -> bool:
    """A name that is not a keyword; every token is ASCII."""
    return (tok[:1].isalpha() or tok[:1] == "_") and tok not in _KEYWORDS


def is_var_name(text: str) -> bool:
    """Whether text is exactly one variable name token."""
    m = _TOKEN_RE.fullmatch(text)
    return m is not None and m.group(1) is not None and _is_var(text)


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


class _Parser:
    """Tokens are their texts, "" ends the input; a token's kind
    follows from its first character.  Offsets serve error positions."""

    def __init__(self, src: str):
        self.src = src
        self.toks: list[str] = []
        self.offs: list[int] = []
        # All of src is tokenized first, so a bad character is reported
        # before any syntax error that precedes it.
        for m in _TOKEN_RE.finditer(src):
            tok = m.group(1)
            if tok is None:
                raise _error_at(src, m.start(), f"unexpected character {m.group(2)!r}")
            self.toks.append(tok)
            self.offs.append(m.start())
        self.toks.append("")
        self.offs.append(len(src))
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos]

    def advance(self) -> str:
        tok = self.toks[self.pos]
        if tok:
            self.pos += 1
        return tok

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        return _error_at(self.src, self.offs[self.pos if at is None else at], message)

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise self.error(f"expected {tok!r}")
        self.advance()

    def expect_name(self, what: str) -> str:
        if not _is_var(self.peek()):
            raise self.error(f"expected {what}")
        return self.advance()

    def comma_list(self, item: Callable[[], Any]) -> tuple:
        self.expect("(")
        out = []
        if self.peek() != ")":
            out.append(item())
            while self.peek() == ",":
                self.advance()
                out.append(item())
        self.expect(")")
        return tuple(out)

    # -- terms

    def term(self) -> Term:
        tok = self.peek()
        if tok == "let":
            return self.let_term()
        if tok == "if":
            return self.cond_term()
        if tok == "fun":
            return self.fun_term()
        # a name is never the last token, so pos + 1 is in range
        if _is_var(tok) and self.toks[self.pos + 1] == "(":
            self.advance()
            return App(tok, self.comma_list(self.expr))
        return Exp(self.expr())

    def let_term(self) -> Term:
        self.advance()
        var = self.expect_name("a variable name")
        self.expect("=")
        value: Union[Expr, SysCall]
        if self.peek() == "extern":
            self.advance()
            action = self.expect_name("an action name")
            value = SysCall(action, self.comma_list(self.expr))
        else:
            value = self.expr()
        self.expect("in")
        return Let(var, value, self.term())

    def cond_term(self) -> Term:
        self.advance()
        cond = self.expr()
        self.expect("then")
        then = self.term()
        self.expect("else")
        return Cond(cond, then, self.term())

    def fun_term(self) -> Term:
        self.advance()
        defs = [self.fundef()]
        while self.peek() == "and":
            self.advance()
            defs.append(self.fundef())
        seen: set[str] = set()
        for d in defs:
            if d.name in seen:
                raise self.error(f"duplicate function name {d.name!r} in group")
            seen.add(d.name)
        self.expect("in")
        return Fun(tuple(defs), self.term())

    def fundef(self) -> FunDef:
        name = self.expect_name("a function name")
        seen: set[str] = set()

        def param() -> str:
            at = self.pos
            p = self.expect_name("a parameter name")
            if p in seen:
                raise self.error(f"duplicate parameter {p!r}", at)
            seen.add(p)
            return p

        params = self.comma_list(param)
        self.expect("=")
        return FunDef(name, params, self.term())

    # -- expressions (precedence climbing, all binops left-associative)

    def expr(self, min_prec: int = 1) -> Expr:
        e = self.unary()
        while True:
            op = self.peek()
            prec = _BIN_PREC.get(op)
            if prec is None or prec < min_prec:
                return e
            self.advance()
            e = Binop(op, e, self.expr(prec + 1))

    def unary(self) -> Expr:
        tok = self.peek()
        if tok == "-":
            self.advance()
            if self.peek().isdigit():
                return Const(wrap(-_digits_value(self.advance())))
            return Unop("neg", self.unary())
        if tok == "!":
            self.advance()
            return Unop("not", self.unary())
        return self.atom()

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.isdigit():
            self.advance()
            return Const(_digits_value(tok))
        if _is_var(tok):
            self.advance()
            return Var(tok)
        if tok == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        raise self.error("expected an expression")


def parse_program(src: str) -> Term:
    """Parse a program; raises ParseError with line/column on failure."""
    p = _Parser(src)
    t = p.term()
    if p.peek():
        raise p.error("expected end of input")
    return t


# ---------------------------------------------------------------------------
# Printing


def _expr_str(e: Expr, min_prec: int = 0) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unop):
        if e.op == "neg":
            # -5 would re-parse as a literal; parenthesize constant operands
            if isinstance(e.arg, Const) and e.arg.value >= 0:
                return f"-({e.arg.value})"
            return "-" + _expr_str(e.arg, 4)
        return "!" + _expr_str(e.arg, 4)
    assert isinstance(e, Binop)
    p = _BIN_PREC[e.op]
    s = f"{_expr_str(e.left, p)} {e.op} {_expr_str(e.right, p + 1)}"
    return f"({s})" if p < min_prec else s


def _ext_str(value: Union[Expr, SysCall]) -> str:
    if isinstance(value, SysCall):
        return f"extern {value.action}({', '.join(_expr_str(a) for a in value.args)})"
    return _expr_str(value)


def _term_str(t: Term, ind: int) -> str:
    pad = " " * ind
    if isinstance(t, Exp):
        return _expr_str(t.expr)
    if isinstance(t, App):
        return f"{t.fun}({', '.join(_expr_str(a) for a in t.args)})"
    if isinstance(t, Let):
        return f"let {t.var} = {_ext_str(t.value)} in\n{pad}{_term_str(t.body, ind)}"
    if isinstance(t, Cond):
        s1 = _term_str(t.then, ind + 2)
        s2 = _term_str(t.orelse, ind + 2)
        cond = _expr_str(t.cond)
        inline = f"if {cond} then {s1} else {s2}"
        if "\n" not in inline and len(inline) + ind <= 72:
            return inline
        pad2 = " " * (ind + 2)
        return f"if {cond} then\n{pad2}{s1}\n{pad}else\n{pad2}{s2}"
    assert isinstance(t, Fun)
    pad2 = " " * (ind + 2)
    defs = []
    for d in t.defs:
        head = f"{d.name}({', '.join(d.params)}) ="
        defs.append(f"{head}\n{pad2}{_term_str(d.body, ind + 2)}")
    joined = f"\n{pad}and ".join(defs)
    return f"fun {joined}\n{pad}in\n{pad}{_term_str(t.cont, ind)}"


def print_program(t: Term) -> str:
    """Deterministic pretty-printer; parse_program inverts it exactly."""
    return _term_str(t, 0)
