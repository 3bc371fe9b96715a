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
table of terms: the analyses, the checkers, the passes and term_fact
read it.  term_fact folds each node's free variables once and keeps
them, with the node's number, on the term itself; the interpreter's
configuration keys and free_term_vars read them there.  An annotation
(Annotated) is that table with one analysis fact per node in pre-order,
which is also the sidecar format: one fact per line, "true"/"false" for
booleans, "{x,y}" for variable sets.  The parser and the printer
recurse on terms, and expression evaluation, free_vars and the printer
recurse on expressions (down the left operands of a flat sum too);
every other walk is a loop over the table.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count
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
    """Base class for IL terms.

    Two attributes are kept on a term but are not fields, so equality,
    hashing and printing never see them.  _segment belongs to the
    interpreter (semantics.run_to_anchor): how often execution has
    entered the segment that starts at this term, then that segment's
    compiled code.  _fact is term_fact's (number, free variables)."""

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
    if isinstance(t, Let):
        return (t.body,)
    if isinstance(t, Cond):
        return (t.then, t.orelse)
    if isinstance(t, Fun):
        return tuple(d.body for d in t.defs) + (t.cont,)
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


def well_formed(t: Term) -> bool:
    """Structural invariants: distinct group names, distinct parameters."""
    for n in Nodes(t).terms:
        if isinstance(n, Fun):
            if len({d.name for d in n.defs}) != len(n.defs):
                return False
            if any(len(set(d.params)) != len(d.params) for d in n.defs):
                return False
    return True


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
    """t's free variables, given its children's in term_children order:
    the one statement of the scoping rule for variables.  A let binds
    its variable in its body, and a group's definitions bind their
    parameters."""
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

    A term without a fact brings its Nodes table, whose free variables
    are folded through node_free_vars in reverse pre-order (children
    follow their parent), and each node without a fact gets the next
    number and its free variables.  A term with a fact has one on every
    node below it, so a caller folds only the subterms it asks about,
    and a term object shared by two programs, as a pass's output shares
    subterms with its input, keeps the one number it got first.  Numbers
    are never reused, so two terms have the same number only if they are
    the same object."""
    fact = t._fact
    if fact is None:
        nodes = Nodes(t)
        free: list = [()] * len(nodes.terms)
        for i in reversed(range(len(free))):
            term = nodes.terms[i]
            if term._fact is None:
                free[i] = tuple(sorted(node_free_vars(term, [free[k] for k in nodes.kids[i]])))
                _setattr(term, "_fact", (next(_numbers), free[i]))
            else:
                free[i] = term._fact[1]
        fact = t._fact
    return fact


def free_term_vars(t: Term) -> frozenset[str]:
    """Variables a whole program reads from its initial environment."""
    return frozenset(term_fact(t)[1])


def constants_of(*terms: Term) -> frozenset[int]:
    out: set[int] = set()
    for t in terms:
        stack = [e for n in Nodes(t).terms for e in term_exprs(n)]
        while stack:
            e = stack.pop()
            if isinstance(e, Const):
                out.add(e.value)
            elif isinstance(e, Unop):
                stack.append(e.arg)
            elif isinstance(e, Binop):
                stack += (e.left, e.right)
    return frozenset(out)


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
