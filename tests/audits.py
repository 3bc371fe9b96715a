"""Semantic audits of the analyses and the program generator, used by
the harness and acceptance tests, and the references the parser and
the game are tested against."""

from random import Random
from typing import Any, Callable, Optional, Union

import il.harness
from il.equiv import (
    _DIST,
    _EQ,
    _FUEL,
    Distinguished,
    EquivalentToDepth,
    Exhausted,
    Verdict,
    _judge,
    make_probes,
)
from il.harness import INPUT_NAMES, UNBOUND_NAMES, VAR_NAMES, initial_env, perturbed_env
from il.reach import infer_reach
from il.semantics import (
    Config,
    Cutoff,
    Diverged,
    Done,
    Event,
    Oracle,
    Ready,
    SeededOracle,
    Stepped,
    Terminal,
    apply_extern,
    config_key,
    run_to_anchor,
    run_trace,
    step_silent,
    trace_text,
)
from il.syntax import (
    _BIN_PREC,
    _TOKEN_RE,
    App,
    Binop,
    Cond,
    Const,
    Exp,
    Expr,
    Fun,
    FunDef,
    Let,
    Nodes,
    SysCall,
    Term,
    Unop,
    Var,
    _digits_value,
    _error_at,
    _is_var,
    term_fact,
    term_reads,
    wrap,
)
from il.tlive import infer_tlive


class _Frame:
    """A game node of reference_game whose probes are being explored."""

    __slots__ = ("key", "left", "right", "depth", "probe", "worst", "event")

    def __init__(self, key: Optional[tuple], left: Ready, right: Ready, depth: int) -> None:
        self.key = key
        self.left: Optional[Ready] = left  # the two anchors at matching pending calls,
        self.right: Optional[Ready] = right  # dropped once the last probe is applied
        self.depth = depth  # of the successors
        self.probe = 0  # index of the probe being explored
        self.worst = _EQ  # over the probes explored so far
        self.event: Optional[Event] = None  # the left event of that probe


def reference_game(
    left: Config, right: Config, depth: int, probes: tuple[int, ...], fuel: int, sim: bool
) -> Verdict:
    """The game as il.equiv._game played it before it probed a result
    neither side reads only once: every probe is explored under every
    frame, and every node below the root is keyed unless the probe set
    has one value.  Kept as the reference the game is tested against.

    The game as a loop over an explicit stack of open nodes.  A
    distinguished node ends the whole game, so its event and probe
    prefix is read off the open frames once, and the memo holds only
    the kinds of finished nodes."""
    root_depth = depth
    last = len(probes) - 1
    memo: dict[Optional[tuple], int] = {}
    frames: list[_Frame] = []
    while True:
        # Only the root has no open frame.  No other node has its depth,
        # so its key could never hit, and not keying it saves folding
        # the whole program when the game ends before any system call.
        # With one probe the tree is a path and no key can hit either; its
        # first finished node closes every frame, so the None entry goes unread.
        key = (config_key(left), config_key(right), depth) if frames and last else None
        kind = memo.get(key)
        if kind is None:
            a1 = run_to_anchor(left, fuel)
            if sim and isinstance(a1, Done) and a1.result is None:
                kind = _EQ  # left failed: similar to anything
            else:
                a2 = run_to_anchor(right, fuel)
                kind, reason = _judge(a1, a2, depth)
                if kind == _DIST:
                    return Distinguished(
                        tuple(f.event for f in frames), tuple(probes[f.probe] for f in frames), reason
                    )
            if kind is None:
                frames.append(_Frame(key, a1, a2, depth - 1))
            else:
                memo[key] = kind
        if kind is not None:
            # close every frame whose last probe this node finished
            while frames:
                top = frames[-1]
                top.worst = max(top.worst, kind)
                top.probe += 1
                if top.probe < len(probes):
                    break
                frames.pop()
                kind = memo[top.key] = top.worst
            else:
                return Exhausted("fuel") if kind == _FUEL else EquivalentToDepth(root_depth)
        top = frames[-1]
        value = probes[top.probe]
        top.event, left = apply_extern(top.left, value)
        _, right = apply_extern(top.right, value)
        if top.probe == last:
            top.left = top.right = None  # spent; the event stays for the witness
        depth = top.depth


def reference_config_key(c: Config) -> tuple:
    """il.semantics.config_key as it was before it skipped an empty
    function context and built a non-empty one with list comprehensions:
    the generator-expression form, kept as the reference the key is
    tested against."""
    number, free = term_fact(c.term)
    funs = tuple(tuple((name, clo.key) for name, clo in g) for g in c.funs)
    return (number, tuple(map(c.env.get, free)), funs)


def refereed(monkeypatch) -> list[Verdict]:
    """Make il.harness play reference_game beside each of its games and
    require the same verdict, Distinguished fields included.  Returns
    the list the compared verdicts are appended to."""
    seen: list[Verdict] = []
    for name, sim in (("check_bisim", False), ("check_sim", True)):

        def play(left, right, depth, probes, fuel, game=getattr(il.harness, name), sim=sim):
            verdict = game(left, right, depth, probes, fuel)
            assert verdict == reference_game(left, right, depth, make_probes(probes), fuel, sim)
            seen.append(verdict)
            return verdict

        monkeypatch.setattr(il.harness, name, play)
    return seen


def reach_audit(t: Term, env: dict[str, int], oracle: Oracle, fuel: int, max_events: int = 32) -> bool:
    """Run t and confirm execution only ever focuses nodes whose
    inferred reachability bit is true."""
    ann = infer_reach(t)
    bits: dict[int, bool] = {}
    for term, fact in zip(ann.nodes.terms, ann.facts):
        # A shared subterm object is reachable when any occurrence is.
        bits[id(term)] = bits.get(id(term), False) or bool(fact)
    config = Config((), env, t)
    events = 0
    steps = 0
    while steps < fuel:
        if not bits.get(id(config.term), True):
            return False
        step = step_silent(config)
        if isinstance(step, Terminal):
            return True
        if isinstance(step, Stepped):
            config = step.config
            steps += 1
            continue
        if events >= max_events:
            return True
        ready = Ready(config.term.value.action, step.args, config)
        _, config = apply_extern(ready, wrap(oracle(events, ready.action, ready.args)))
        events += 1
        steps += 1
    return True


def tlive_audit(t: Term, seed: int, fuel: int, max_events: int = 32) -> bool:
    """Perturb the initial environment outside the root live set and
    confirm the observable trace is byte-identical.  A dead variable
    can decide whether a silent loop repeats a configuration, so one
    side may end Diverged where the other is cut off by fuel; both
    mean no further event within the bounds, and they count as equal."""
    ann = infer_tlive(t)
    rng = Random(seed)
    env = initial_env(t, rng)
    env2 = perturbed_env(env, ann.facts[0], rng)
    oracle = SeededOracle(seed)
    left = run_trace(Config((), env, t), oracle, fuel, max_events)
    right = run_trace(Config((), env2, t), oracle, fuel, max_events)
    silent = (Cutoff, Diverged)
    if isinstance(left.outcome, silent) and isinstance(right.outcome, silent):
        return left.events == right.events
    return trace_text(left) == trace_text(right)


def generator_audit(t: Term) -> bool:
    """Well-formedness plus harness-level scoping: applications hit
    in-scope functions with the right arity, and every variable read is
    a binder, an input, or from the unbound pool."""
    if not well_formed(t):
        return False
    nodes = Nodes(t)
    for term, hit in zip(nodes.terms, nodes.callee):
        if isinstance(term, App) and (hit is None or len(hit[1].params) != len(term.args)):
            return False
    return term_reads(t)[0] <= {*VAR_NAMES, *INPUT_NAMES, *UNBOUND_NAMES}


def well_formed(t: Term) -> bool:
    """Structural invariants: distinct group names, distinct parameters."""
    for n in Nodes(t).terms:
        if isinstance(n, Fun):
            if len({d.name for d in n.defs}) != len(n.defs):
                return False
            if any(len(set(d.params)) != len(d.params) for d in n.defs):
                return False
    return True


def flatten(t: Term) -> list[tuple]:
    """t's nodes and expressions in pre-order, one tuple each, built
    without recursion: two terms are equal exactly when their
    flattenings are, and comparing these never recurses."""
    out: list[tuple] = []
    for term in Nodes(t).terms:
        if isinstance(term, Let):
            value = term.value
            if isinstance(value, SysCall):
                out.append(("let", term.var, "extern", value.action, len(value.args)))
                exprs: list[Expr] = list(value.args)
            else:
                out.append(("let", term.var))
                exprs = [value]
        elif isinstance(term, Cond):
            out.append(("if",))
            exprs = [term.cond]
        elif isinstance(term, Fun):
            out.append(("fun", tuple((d.name, d.params) for d in term.defs)))
            exprs = []
        elif isinstance(term, App):
            out.append(("app", term.fun, len(term.args)))
            exprs = list(term.args)
        else:
            out.append(("exp",))
            exprs = [term.expr]
        stack = exprs[::-1]
        while stack:
            e = stack.pop()
            if isinstance(e, Binop):
                out.append(("binop", e.op))
                stack += (e.right, e.left)
            elif isinstance(e, Unop):
                out.append(("unop", e.op))
                stack.append(e.arg)
            else:
                out.append((type(e).__name__, e.value if isinstance(e, Const) else e.name))
    return out


class ReferenceParser:
    """The recursive-descent parser il.syntax.parse_program replaced,
    kept as the reference it is tested against.  It recurses once per
    nesting level, so it takes only shallow programs.  Tokens are their
    texts, "" ends the input; a token's kind follows from its first
    character.  Offsets serve error positions."""

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

    def program(self) -> Term:
        t = self.term()
        if self.peek():
            raise self.error("expected end of input")
        return t

    def peek(self) -> str:
        return self.toks[self.pos]

    def advance(self) -> str:
        tok = self.toks[self.pos]
        if tok:
            self.pos += 1
        return tok

    def error(self, message: str, at: Optional[int] = None):
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


def reference_parse(src: str) -> Term:
    """parse_program as the reference parser reads src."""
    return ReferenceParser(src).program()
