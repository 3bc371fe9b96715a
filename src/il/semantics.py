"""Small-step execution of IL configurations and observable traces.

A configuration is (function context, environment, focused term).  The
function context is a stack of closure groups, most recent first; an
application rewinds it by dropping every group more recent than the
first group defining the callee, which is what makes recursion work
without a call stack.  Silent steps cover binding, conditionals, group
definition, and application.  System calls are the only observable
transitions: step_silent evaluates a system call's arguments once,
the Ready anchor holds them, and apply_extern resolves the call from
that anchor with a result value supplied from outside the stepper, so
execution is deterministic up to those results.

Environments are plain dicts treated as immutable: every step builds a
fresh one and nothing mutates an existing binding.

Divergence.  Because silent stepping is a function of the configuration's
content, a silent run that comes back to an equal configuration repeats
forever without an observable action.  run_to_anchor decides this with
Brent's cycle finder (one saved configuration, replaced whenever the
distance since the last save reaches the next power of two) and
returns a Diverges anchor.  Binding, conditionals and group definition
each step into a strict subterm of the focus, so every silent cycle
contains an application step; only the configurations right after an
application are compared.  Those form a deterministic sequence of their
own, so Brent's method applies to it unchanged.  Configurations are
compared by what their future can read (config_key): the focused
term's number and the values of its free variables, and per closure its
name and its own key (Closure.key): its body's number, its parameters
and the values of the body's free variables that are not parameters.
Numbers and free variables are kept on the terms (syntax.term_fact), a
closure's key on the closure, so no table is built per run or per game
and no key holds an id().  Two configurations equal in that projection
run alike forever, so a repeat of it is a silent loop even where a
variable never read again still changes.  The game's memo uses the
same keys.  Fuel still bounds every run, and a loop that never repeats
a key, such as a counter, still runs out of fuel.

Compiled segments.  A segment is the code from an entry term up to the
next application, system call or leaf: the term a run starts from (the
root, or the body after a system-call let) or the body an application
enters.  A segment entered HOT_ENTRIES times (entries by an application
or from a cut count; a run's start does not, so code the game only
resumes after system calls stays interpreted) is compiled into one
Python function and kept on its entry term (Term._segment).  The
function runs the segment's Let, Cond and Fun steps with let-bound
values in locals, builds an environment only where a configuration
needs one (a closure, a Ready anchor, the callee's environment, a cut),
and returns the anchor it reached or the configuration after its last
step with the number of steps taken.  Generated code holds only
generated names and 64-bit integer literals; names, actions, terms and
other constants come from a tuple.  Its size is bounded (MAX_NESTING
nested conditionals, MAX_SIZE lines, INLINE_NODES expression nodes
inlined per step): where a bound is reached the code is cut, returning
the configuration at that term, which is a new entry.  run_to_anchor
runs compiled code only when the remaining fuel covers the segment's
longest path, application included, and otherwise steps the segment
with step_silent, which stays the reference semantics.  So every
anchor, OutOfFuel and Diverges included, comes at the same step with an
equal configuration either way, and Brent's check sees the same
post-application configurations.
"""
from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Callable, Optional, Sequence, Union

from .syntax import (
    INT_MAX,
    App,
    Binop,
    Cond,
    Const,
    Exp,
    Expr,
    Fun,
    Let,
    SysCall,
    Term,
    Unop,
    Var,
    _div,
    _setattr,
    eval_expr,
    eval_expr_list,
    term_exprs,
    term_fact,
    truthy,
    wrap,
)

Env = dict[str, int]


@dataclass(frozen=True)
class Closure:
    """Captured environment, parameter list, and body. Not recursive by
    itself; recursion comes from context rewinding.  _key, kept on the
    closure once asked for, is not a field."""

    env: Env
    params: tuple[str, ...]
    body: Term
    _key = None

    @property
    def key(self) -> tuple:
        """What the closure's body can read: its number, the parameters,
        and the values (None for unbound) of its free variables that are
        not parameters, in sorted order."""
        key = self._key
        if key is None:
            number, free = term_fact(self.body)
            key = (number, self.params, tuple(self.env.get(v) for v in free if v not in self.params))
            _setattr(self, "_key", key)
        return key


Group = tuple[tuple[str, Closure], ...]
FunContext = tuple[Group, ...]  # most recent group first


def _group(defs: tuple, env: Env) -> Group:
    return tuple((d.name, Closure(env, d.params, d.body)) for d in defs)


def ctx_resolve(ctx: FunContext, name: str) -> Optional[tuple[Closure, FunContext]]:
    """Most-recent lookup; also returns the context rewound to the
    group that defines name (that group stays included)."""
    for i, group in enumerate(ctx):
        for n, clo in group:
            if n == name:
                return clo, ctx[i:]
    return None


@dataclass(frozen=True)
class Config:
    funs: FunContext
    env: Env
    term: Term


def config_key(c: Config) -> tuple:
    """What c's future reads, as a hashable key: the focus's number, the
    values of its free variables (None for unbound) in sorted order, and
    per closure in the function context its name and key.  Two
    configurations with equal keys step to configurations with equal
    keys, reach the same anchor kind after the same number of steps, and
    have the same events."""
    number, free = term_fact(c.term)
    funs = tuple(tuple((name, clo.key) for name, clo in g) for g in c.funs)
    return (number, tuple(map(c.env.get, free)), funs)


# -- one silent step


@dataclass(frozen=True)
class Stepped:
    config: Config


@dataclass(frozen=True)
class AtExtern:
    """The focus is a system-call let whose arguments evaluate to args."""

    args: tuple[int, ...]


@dataclass(frozen=True)
class Terminal:
    """No silent successor and not at a system call."""


_TERMINAL = Terminal()


def result_of(config: Config) -> Optional[int]:
    """The result of a terminal configuration: defined only for an
    expression focus whose evaluation succeeds."""
    t = config.term
    if isinstance(t, Exp):
        return eval_expr(t.expr, config.env)
    return None


def step_silent(config: Config) -> Union[Stepped, AtExtern, Terminal]:
    t = config.term
    if isinstance(t, Let):
        if isinstance(t.value, SysCall):
            args = eval_expr_list(t.value.args, config.env)
            return _TERMINAL if args is None else AtExtern(args)
        v = eval_expr(t.value, config.env)
        if v is None:
            return _TERMINAL
        return Stepped(Config(config.funs, {**config.env, t.var: v}, t.body))
    if isinstance(t, App):
        hit = ctx_resolve(config.funs, t.fun)
        if hit is None:
            return _TERMINAL
        clo, rewound = hit
        vals = eval_expr_list(t.args, config.env)
        if vals is None or len(vals) != len(clo.params):
            return _TERMINAL
        env = dict(clo.env)
        env.update(zip(clo.params, vals))
        return Stepped(Config(rewound, env, clo.body))
    if isinstance(t, Cond):
        v = eval_expr(t.cond, config.env)
        if v is None:
            return _TERMINAL
        return Stepped(Config(config.funs, config.env, t.then if truthy(v) else t.orelse))
    if isinstance(t, Fun):
        return Stepped(Config((_group(t.defs, config.env),) + config.funs, config.env, t.cont))
    return _TERMINAL  # expression focus


# -- events and anchors


@dataclass(frozen=True)
class Event:
    action: str
    args: tuple[int, ...]
    result: int


@dataclass(frozen=True)
class Done:
    """Terminal anchor; result None means the run got stuck or the
    final expression is undefined."""

    result: Optional[int]


@dataclass(frozen=True)
class Ready:
    """Anchored at a system call, waiting for a result value."""

    action: str
    args: tuple[int, ...]
    config: Config


@dataclass(frozen=True)
class OutOfFuel:
    config: Config


@dataclass(frozen=True)
class Diverges:
    """The silent run reached config twice: it loops forever without
    an observable action."""

    config: Config


Anchor = Union[Done, Ready, OutOfFuel, Diverges]


def apply_extern(ready: Ready, result: int) -> tuple[Event, Config]:
    """Resolve the pending system call of a Ready anchor with the given
    result value: the event, and the configuration after the let."""
    c = ready.config
    t = c.term
    return Event(ready.action, ready.args, result), Config(c.funs, {**c.env, t.var: result}, t.body)


def run_to_anchor(config: Config, fuel: int) -> Anchor:
    """Run silent steps (at most fuel of them) to the next anchor, or
    to the first repeat of a configuration's key (Diverges).

    One segment at a time: its compiled code when the segment is hot and
    the fuel covers its longest path, else step_silent up to the next
    application or anchor."""
    remaining = fuel
    # Brent's cycle finder over the post-application configurations:
    # saved is compared with each of them and replaced by the current
    # one when since reaches power, which then doubles.  Starting from
    # the initial configuration is sound, since it is on the path too.
    saved = config
    saved_key = None
    since = 0
    power = 1
    seg = config.term._segment  # a run's start is not counted as an entry
    while True:
        if seg.__class__ is Segment and seg.longest <= remaining:
            if config is not None:
                funs, env = config.funs, config.env
            out = seg.run(funs, env)
            if out.__class__ is not tuple:
                return out
            steps, funs, env, term, applied = out
            remaining -= steps
            config = None  # funs, env and term hold it; a Config is built only where needed
        else:
            if config is None:
                config = Config(funs, env, term)
            while True:
                step = step_silent(config)
                if not isinstance(step, Stepped):
                    if isinstance(step, Terminal):
                        return Done(result_of(config))
                    return Ready(config.term.value.action, step.args, config)
                if remaining <= 0:
                    return OutOfFuel(config)
                remaining -= 1
                applied = type(config.term) is App
                config = step.config
                if applied:
                    break
            term, env = config.term, config.env
        if applied:
            # keys differ whenever the focus does, so only an equal
            # focus needs them; and they differ whenever a bound free
            # variable of saved changes, which is cheaper to test first
            if term is saved.term:
                if saved_key is None:
                    saved_key = config_key(saved)
                    free = term_fact(saved.term)[1]
                    bound = {v: x for v, x in zip(free, saved_key[1]) if x is not None}.items()
                if bound <= env.items():
                    if config is None:
                        config = Config(funs, env, term)
                    if config_key(config) == saved_key:
                        return Diverges(config)
            since += 1
            if since == power:
                if config is None:
                    config = Config(funs, env, term)
                saved, saved_key, since, power = config, None, 0, power * 2
        seg = term._segment
        if seg.__class__ is int:
            if seg + 1 < HOT_ENTRIES:
                _setattr(term, "_segment", seg + 1)
            else:
                seg = compile_segment(term)


# -- compiled segments

HOT_ENTRIES = 32  # a segment is compiled on its 32nd counted entry
MAX_NESTING = 24  # conditionals nested in one segment's code
MAX_SIZE = 256  # lines of one segment's code, plus entries of the environments it builds
INLINE_NODES = 32  # expression nodes a step inlines; a larger first step calls eval_expr

_MIN = -INT_MAX - 1
_COMPARE = {"=": "==", "<": "<", "<=": "<="}
_WRAPPED = frozenset("+-*")


class Segment:
    """A segment's compiled code.  run(funs, env) returns an anchor
    (Done or Ready), or (steps, funs, env, term, applied): the
    configuration the segment's last step reached, after an application
    when applied is true, else at a new entry where the code was cut.
    longest is the most silent steps any path through it takes."""

    __slots__ = ("longest", "run")

    def __init__(self, longest: int, run: Callable):
        self.longest = longest
        self.run = run


# The only names generated code reads besides its own v<n> locals, its
# c<n> constants and its funs and env parameters.
_HELPERS = {
    "__builtins__": {},
    "len": len,
    "dict": dict,
    "zip": zip,
    "_BOT": Done(None),
    "_Done": Done,
    "_Ready": Ready,
    "_Config": Config,
    "_resolve": ctx_resolve,
    "_group": _group,
    "_wrap": wrap,
    "_div": _div,
    "_eval": eval_expr,
    "_evals": eval_expr_list,
}


def _inlinable(t: Term) -> bool:
    """Whether t's expressions are small and built of known operators."""
    stack, n = list(term_exprs(t)), 0
    while stack:
        e = stack.pop()
        n += 1
        if n > INLINE_NODES:
            return False
        if isinstance(e, Binop):
            if e.op not in _COMPARE and e.op not in _WRAPPED and e.op != "/":
                return False
            stack += (e.left, e.right)
        elif isinstance(e, Unop):
            stack.append(e.arg)
        elif not isinstance(e, (Const, Var)):
            return False
    return True


class _Path:
    """Where code generation stands on one path through a segment:
    indent, silent steps so far, the locals holding the function context
    and the last environment built, the operand of each variable read or
    bound so far (scope) and the let-bound ones not yet in that
    environment (pending)."""

    __slots__ = ("indent", "steps", "funs", "env", "scope", "pending")

    def __init__(self, indent: int, steps: int, funs: str, env: str, scope: dict, pending: dict):
        self.indent, self.steps, self.funs, self.env = indent, steps, funs, env
        self.scope, self.pending = scope, pending

    def branch(self) -> "_Path":
        return _Path(self.indent + 1, self.steps + 1, self.funs, self.env, dict(self.scope), dict(self.pending))


class _Source:
    """Python source for one segment.  Every IL name, action, term and
    constant outside the 64-bit range is a constant c<n>, bound from a
    tuple; the source holds only generated names and 64-bit integers."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.size = 0
        self.consts: list = []
        self.index: dict = {}
        self.locals = 0
        self.longest = 0

    def const(self, obj: Any) -> str:
        key = obj if type(obj) is str else id(obj)
        i = self.index.get(key)
        if i is None:
            i = self.index[key] = len(self.consts)
            self.consts.append(obj)
        return f"c{i}"

    def local(self) -> str:
        self.locals += 1
        return f"v{self.locals - 1}"

    def emit(self, path: _Path, line: str, size: int = 1) -> None:
        self.lines.append("    " * (path.indent + 2) + line)
        self.size += size

    def leave(self, path: _Path, value: str, steps: int) -> None:
        self.emit(path, f"return {value}")
        self.longest = max(self.longest, steps)

    def wrapped(self, path: _Path, line: str) -> str:
        v = self.local()
        self.emit(path, f"{v} = {line}")
        self.emit(path, f"if not {_MIN} <= {v} <= {INT_MAX}: {v} = _wrap({v})")
        return v

    def operand(self, e: Expr, path: _Path) -> str:
        """Emit e's evaluation (three-address code, returning _BOT where
        it is undefined); its value's operand."""
        if isinstance(e, Const):
            v = e.value
            if type(v) is int and _MIN <= v <= INT_MAX:
                return f"({v})" if v < 0 else str(v)
            return self.const(v)
        if isinstance(e, Var):
            v = path.scope.get(e.name)
            if v is None:
                v = path.scope[e.name] = self.local()
                self.emit(path, f"{v} = env.get({self.const(e.name)})")
                self.emit(path, f"if {v} is None: return _BOT")
            return v
        if isinstance(e, Unop):
            a = self.operand(e.arg, path)
            if e.op == "neg":
                return self.wrapped(path, f"-{a}")
            v = self.local()
            self.emit(path, f"{v} = 0 if {a} else 1")
            return v
        a, b = self.operand(e.left, path), self.operand(e.right, path)
        if e.op in _WRAPPED:
            return self.wrapped(path, f"{a} {e.op} {b}")
        v = self.local()
        if e.op == "/":
            self.emit(path, f"if {b} == 0: return _BOT")
            self.emit(path, f"{v} = _div({a}, {b})")
        else:
            self.emit(path, f"{v} = 1 if {a} {_COMPARE[e.op]} {b} else 0")
        return v

    def value(self, e: Expr, path: _Path, inline: bool) -> str:
        if inline:
            return self.operand(e, path)
        v = self.local()
        self.emit(path, f"{v} = _eval({self.const(e)}, env)")
        self.emit(path, f"if {v} is None: return _BOT")
        return v

    def values(self, es: tuple, path: _Path, inline: bool) -> str:
        """A tuple of es's values."""
        if inline:
            ops = [self.operand(e, path) for e in es]
            return f"({', '.join(ops)}{',' if len(ops) == 1 else ''})"
        v = self.local()
        self.emit(path, f"{v} = _evals({self.const(es)}, env)")
        self.emit(path, f"if {v} is None: return _BOT")
        return v

    def environment(self, path: _Path) -> str:
        """The local holding path's environment, built if lets are
        pending."""
        if path.pending:
            v = self.local()
            pairs = ", ".join(f"{self.const(name)}: {op}" for name, op in path.pending.items())
            self.emit(path, f"{v} = {{**{path.env}, {pairs}}}", 1 + len(path.pending))
            path.env, path.pending = v, {}
        return path.env

    def path(self, t: Term, path: _Path) -> None:
        """Emit the steps from t along path up to its returns.  The
        first step is always emitted, so every cut is at least one step
        in and run_to_anchor makes progress."""
        while True:
            inline = _inlinable(t)
            if path.steps and (
                not inline
                or self.size >= MAX_SIZE
                or (isinstance(t, Cond) and path.indent >= MAX_NESTING)
            ):
                env = self.environment(path)
                self.leave(path, f"({path.steps}, {path.funs}, {env}, {self.const(t)}, False)", path.steps)
                return
            if isinstance(t, Let):
                if isinstance(t.value, SysCall):
                    args = self.values(t.value.args, path, inline)
                    config = f"_Config({path.funs}, {self.environment(path)}, {self.const(t)})"
                    self.leave(path, f"_Ready({self.const(t.value.action)}, {args}, {config})", path.steps)
                    return
                v = self.value(t.value, path, inline)
                path.scope[t.var] = path.pending[t.var] = v
                path.steps += 1
                t = t.body
            elif isinstance(t, Cond):
                e = t.cond
                if inline and isinstance(e, Binop) and e.op in _COMPARE:
                    test = f"{self.operand(e.left, path)} {_COMPARE[e.op]} {self.operand(e.right, path)}"
                else:
                    test = self.value(e, path, inline)
                self.emit(path, f"if {test}:")
                self.path(t.then, path.branch())
                self.emit(path, "else:")
                path.indent += 1
                path.steps += 1
                t = t.orelse
            elif isinstance(t, Fun):
                env, funs = self.environment(path), self.local()
                self.emit(path, f"{funs} = (_group({self.const(t.defs)}, {env}),) + {path.funs}")
                path.funs = funs
                path.steps += 1
                t = t.cont
            elif isinstance(t, App):
                hit, clo, rewound, params, new = (self.local() for _ in range(5))
                self.emit(path, f"{hit} = _resolve({path.funs}, {self.const(t.fun)})")
                self.emit(path, f"if {hit} is None: return _BOT")
                args = self.values(t.args, path, inline)
                self.emit(path, f"{clo}, {rewound} = {hit}")
                self.emit(path, f"{params} = {clo}.params")
                self.emit(path, f"if len({params}) != {len(t.args)}: return _BOT")
                self.emit(path, f"{new} = dict({clo}.env)")
                self.emit(path, f"{new}.update(zip({params}, {args}))")
                steps = path.steps + 1
                self.leave(path, f"({steps}, {rewound}, {new}, {clo}.body, True)", steps)
                return
            elif isinstance(t, Exp):
                self.leave(path, f"_Done({self.value(t.expr, path, inline)})", path.steps)
                return
            else:
                self.leave(path, "_BOT", path.steps)
                return


def compile_segment(t: Term) -> Segment:
    """Compile the segment that starts at t and keep it on t."""
    src = _Source()
    src.path(t, _Path(0, 0, "funs", "env", {}, {}))
    head = ["def make(k):"]
    if src.consts:
        head.append("    " + "".join(f"c{i}, " for i in range(len(src.consts))) + "= k")
    head.append("    def seg(funs, env):")
    code = compile("\n".join(head + src.lines + ["    return seg"]), "<segment>", "exec")
    scope: dict = {}
    exec(code, _HELPERS, scope)
    seg = Segment(src.longest, scope["make"](tuple(src.consts)))
    _setattr(t, "_segment", seg)
    return seg


# -- traces


@dataclass(frozen=True)
class Terminated:
    value: Optional[int]


@dataclass(frozen=True)
class Cutoff:
    pass


@dataclass(frozen=True)
class Diverged:
    """The run ended in a silent loop (a Diverges anchor)."""


@dataclass(frozen=True)
class Trace:
    events: tuple[Event, ...]
    outcome: Union[Terminated, Cutoff, Diverged]


Oracle = Callable[[int, str, tuple[int, ...]], int]


class SeededOracle:
    """Deterministic system-call results keyed by (seed, call index,
    action, argument values). Values land in [-9, 9] so branches on
    them go both ways."""

    def __init__(self, seed: int):
        self.seed = seed

    def __call__(self, index: int, action: str, args: tuple[int, ...]) -> int:
        key = f"{self.seed}:{index}:{action}:{','.join(map(str, args))}"
        h = blake2b(key.encode(), digest_size=8).digest()
        return int.from_bytes(h, "big", signed=True) % 19 - 9


class ListOracle:
    """Replays a fixed list of results; 0 past the end. Used to rerun
    counterexample witnesses."""

    def __init__(self, values: Sequence[int]):
        self.values = tuple(values)

    def __call__(self, index: int, action: str, args: tuple[int, ...]) -> int:
        return self.values[index] if index < len(self.values) else 0


def run_trace(config: Config, oracle: Oracle, fuel: int, max_events: int = 256) -> Trace:
    """Drive a run, resolving each system call through the oracle.
    fuel bounds silent steps per anchor segment; max_events bounds the
    number of resolved calls."""
    events: list[Event] = []
    while True:
        anchor = run_to_anchor(config, fuel)
        if isinstance(anchor, Done):
            return Trace(tuple(events), Terminated(anchor.result))
        if isinstance(anchor, OutOfFuel):
            return Trace(tuple(events), Cutoff())
        if isinstance(anchor, Diverges):
            return Trace(tuple(events), Diverged())
        if len(events) >= max_events:
            return Trace(tuple(events), Cutoff())
        value = wrap(oracle(len(events), anchor.action, anchor.args))
        event, config = apply_extern(anchor, value)
        events.append(event)


def trace_text(trace: Trace) -> str:
    """Stable text form: EVT lines, then an END line."""
    lines = [f"EVT {e.action}({','.join(map(str, e.args))})={e.result}" for e in trace.events]
    if isinstance(trace.outcome, Cutoff):
        lines.append("END CUTOFF")
    elif isinstance(trace.outcome, Diverged):
        lines.append("END DIVERGE")
    elif trace.outcome.value is None:
        lines.append("END BOT")
    else:
        lines.append(f"END TERM {trace.outcome.value}")
    return "\n".join(lines) + "\n"
