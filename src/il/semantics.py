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

Configurations, events and anchors are immutable records: NamedTuple
classes whose fields cannot be assigned and which equal only records
of their own class, so Done(x) != Diverges(x) and no record equals a
plain tuple.  Environments are plain dicts.  step_silent, the reference
semantics, builds a fresh one at every let and application.
run_to_anchor's cold loop applies the same rules in place over funs,
env and term locals, and writes a segment's let-bound values into one
private dict, copied from the entry environment at the segment's first
let.  That dict is never one that something else holds: a fun's
closures capture it, so the next let copies again; an application's
fresh environment never becomes it, since Brent's check may have saved
a configuration holding that environment; and a Config is built from it
only for an anchor, which ends the run.  So no dict that a caller, a
closure or a Config holds is ever written.

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
a key, such as a counter, still runs out of fuel.  A compiled loop
(below) passes post-application configurations without returning to
run_to_anchor, but only those where this check does nothing: it is
given budget = power - since - 1, so no save falls among the ones it
passes, and it passes one at saved's focus only if its free-variable
values differ from saved's, which makes the keys differ.  Otherwise it
returns the configuration with the count it passed, which
run_to_anchor adds to since.

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
step with the number of steps taken.  Every segment is called the same
way, run(funs, env, fuel, budget, saved), from one place in
run_to_anchor.  Each step's expressions are inlined as three-address
code; generated code holds only generated names and 64-bit integer
literals, and names, actions, terms and other constants come from a
tuple.  Its size is bounded (MAX_NESTING nested conditionals, MAX_SIZE
lines, INLINE_NODES expression nodes per step): where a later step
reaches a bound the code is cut, returning the configuration at that
term, which is a new entry.  A segment whose first step has more than
INLINE_NODES expression nodes is never compiled: its entry term keeps
_segment None and always runs cold.  run_to_anchor runs compiled code
only when the remaining fuel covers the segment's longest path,
application included, and otherwise runs the segment in the cold
loop.  That loop makes step_silent's checks in its order (an
undefined evaluation ends the run with Done(None) before the fuel is
checked) and, with no fuel left, asks step_silent for the anchor.  So
every anchor, OutOfFuel and Diverges included, comes at the same step
with an equal configuration whichever way a segment runs, and Brent's
check sees the same post-application configurations.  Either way a
Config is built only for a Ready or OutOfFuel anchor and for the
configurations Brent's check saves or compares.

Loops.  In the paper's language a loop is a function that applies
itself.  When an application entered the segment being compiled, its
callee, the member of funs[0] whose body is the entry term, gives the
segment a member name and parameters, and each application in the
segment with that name and arity gets a guard: the callee's body is the
entry term and its parameters are the member's.  Where the guard holds,
Brent's budget is not spent, the fuel covers the longest path and the
values differ from saved's, the code goes on in a second copy of the
segment, the loop path.  It keeps the parameters in locals, reads other
free variables from the callee's environment, resolves each application
once per function context, and builds an environment only where one
escapes: a closure, a Ready, a cut, or an application that leaves the
loop.  So a counter returns to run_to_anchor once per save, about
log2 of its iterations.  run_to_anchor passes every segment Brent's
saved configuration; a segment with a loop path reads the values of its
entry's free variables from it in its prologue, and only when saved's
focus is its entry term.  Only applications named like the member get a
guard: in a prototype, a guard on every application of matching arity
made nested groups about 15% slower.
"""
from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

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


def _same(self, other: object) -> bool:
    return self.__class__ is other.__class__ and tuple.__eq__(self, other)


def _differ(self, other: object) -> bool:
    return not _same(self, other)


def _record(cls: type) -> type:
    """Make a NamedTuple class equal only to records of its own class,
    so Done(x) != Diverges(x) and no record equals a plain tuple;
    hashing stays the tuple's."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _same, _differ, tuple.__hash__
    return cls


@_record
class Config(NamedTuple):
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


@_record
class Event(NamedTuple):
    action: str
    args: tuple[int, ...]
    result: int


@_record
class Done(NamedTuple):
    """Terminal anchor; result None means the run got stuck or the
    final expression is undefined."""

    result: Optional[int]


@_record
class Ready(NamedTuple):
    """Anchored at a system call, waiting for a result value."""

    action: str
    args: tuple[int, ...]
    config: Config


@_record
class OutOfFuel(NamedTuple):
    config: Config


@_record
class Diverges(NamedTuple):
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


_BOT = Done(None)


def _stopped(config: Config) -> Anchor:
    """The anchor at config when no fuel is left: the one step_silent
    finds there, or OutOfFuel where it would step."""
    step = step_silent(config)
    if step.__class__ is Stepped:
        return OutOfFuel(config)
    if step is _TERMINAL:
        return Done(result_of(config))
    return Ready(config.term.value.action, step.args, config)


def run_to_anchor(config: Config, fuel: int) -> Anchor:
    """Run silent steps (at most fuel of them) to the next anchor, or
    to the first repeat of a configuration's key (Diverges).

    One segment at a time: its compiled code when the segment is hot and
    the fuel covers its longest path, else the cold loop up to the next
    application or anchor."""
    funs, env, term = config
    remaining = fuel
    # Brent's cycle finder over the post-application configurations:
    # saved is compared with each of them and replaced by the current
    # one when since reaches power, which then doubles.  Starting from
    # the initial configuration is sound, since it is on the path too.
    saved = config
    saved_key = None
    since = 0
    power = 1
    seg = term._segment  # a run's start is not counted as an entry
    while True:
        if seg.__class__ is Segment and seg.longest <= remaining:
            # a loop passes post-application configurations only where
            # this check would do nothing (see the module docstring)
            out = seg.run(funs, env, remaining, power - since - 1, saved)
            if out.__class__ is not tuple:
                return out
            steps, funs, env, term, applied, passed = out
            remaining -= steps
            since += passed
        else:
            # the cold loop; own is the segment's private dict, once a
            # let has copied it (see the module docstring)
            own = None
            while True:
                if remaining <= 0:
                    return _stopped(Config(funs, env, term))
                remaining -= 1
                cls = term.__class__
                if cls is Let:
                    value = term.value
                    if value.__class__ is SysCall:
                        args = eval_expr_list(value.args, env)
                        if args is None:
                            return _BOT
                        return Ready(value.action, args, Config(funs, env, term))
                    v = eval_expr(value, env)
                    if v is None:
                        return _BOT
                    if env is not own:
                        env = own = dict(env)
                    env[term.var] = v
                    term = term.body
                elif cls is Cond:
                    v = eval_expr(term.cond, env)
                    if v is None:
                        return _BOT
                    term = term.then if v else term.orelse
                elif cls is App:
                    hit = ctx_resolve(funs, term.fun)
                    if hit is None:
                        return _BOT
                    clo, funs = hit
                    vals = eval_expr_list(term.args, env)
                    if vals is None or len(vals) != len(clo.params):
                        return _BOT
                    env = dict(clo.env)
                    env.update(zip(clo.params, vals))
                    term = clo.body
                    break
                elif cls is Fun:
                    funs = (_group(term.defs, env),) + funs
                    own = None
                    term = term.cont
                else:
                    return Done(eval_expr(term.expr, env))
            applied = True
        if applied:
            # keys differ whenever the focus does, so only an equal
            # focus needs them; and they differ whenever a bound free
            # variable of saved changes, which is cheaper to test first
            config = None
            if term is saved.term:
                if saved_key is None:
                    saved_key = config_key(saved)
                    bound = {v: x for v, x in zip(term_fact(term)[1], saved_key[1]) if x is not None}.items()
                if bound <= env.items():
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
                # an application entered term: its callee, the member
                # of funs[0] whose body term is, is the loop's member
                member = None
                if applied:
                    for name, clo in funs[0]:
                        if clo.body is term:
                            member = (name, clo.params)
                            break
                seg = compile_segment(term, member)


# -- compiled segments

HOT_ENTRIES = 32  # a segment is compiled on its 32nd counted entry
MAX_NESTING = 24  # conditionals nested in one segment's code
MAX_SIZE = 256  # lines of one segment's code, plus entries of the environments it builds
INLINE_NODES = 32  # expression nodes a step inlines; a larger first step leaves the term cold

_MIN = -INT_MAX - 1
_COMPARE = {"=": "==", "<": "<", "<=": "<="}
_WRAPPED = frozenset("+-*")


class Segment:
    """A segment's compiled code.  run(funs, env, fuel, budget, saved)
    takes the remaining fuel, how many post-application configurations
    it may pass (budget) and Brent's saved configuration, and returns an
    anchor (Done or Ready), or (steps, funs, env, term, applied, passed):
    the configuration the segment's last step reached, after an
    application when applied is true, else at a new entry where the code
    was cut, and how many post-application configurations it passed on
    the way.  longest is the most silent steps any path through it
    takes.  loops is true when the segment has a loop path; only then
    does run read fuel, budget and saved."""

    __slots__ = ("longest", "run", "loops")

    def __init__(self, longest: int, run: Callable, loops: bool):
        self.longest = longest
        self.run = run
        self.loops = loops


# The only names generated code reads besides its own v<n> locals, its
# c<n> constants and its parameters.
_HELPERS = {
    "__builtins__": {},
    "len": len,
    "dict": dict,
    "zip": zip,
    "_BOT": _BOT,
    "_Done": Done,
    "_Ready": Ready,
    "_Config": Config,
    "_resolve": ctx_resolve,
    "_group": _group,
    "_wrap": wrap,
    "_div": _div,
}


def _inlinable(t: Term) -> bool:
    """Whether t's expressions have at most INLINE_NODES nodes."""
    stack, n = list(term_exprs(t)), 0
    while stack:
        e = stack.pop()
        n += 1
        if n > INLINE_NODES:
            return False
        if isinstance(e, Binop):
            stack += (e.left, e.right)
        elif isinstance(e, Unop):
            stack.append(e.arg)
    return True


def _tuple(items: Sequence[str]) -> str:
    """Python source for a tuple of the given operands."""
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


class _Path:
    """Where code generation stands on one path through a segment:
    indent, silent steps so far, the locals holding the function context,
    the last environment built and the environment that variables
    neither bound nor read so far are read from (base), the operand of
    each variable read or bound so far (scope) and the bound ones not
    yet in that environment (pending)."""

    __slots__ = ("indent", "steps", "funs", "env", "base", "scope", "pending")

    def __init__(self, indent: int, funs: str, env: str, scope: dict) -> None:
        self.indent, self.steps, self.funs, self.env, self.base = indent, 0, funs, env, env
        self.scope, self.pending = dict(scope), dict(scope)

    def branch(self) -> "_Path":
        path = _Path(self.indent + 1, self.funs, self.env, self.scope)
        path.steps, path.base, path.pending = self.steps + 1, self.base, dict(self.pending)
        return path


class _Source:
    """Python source for one segment.  Every IL name, action, term and
    constant outside the 64-bit range is a constant c<n>, bound from a
    tuple; the source holds only generated names and 64-bit integers.

    member, when known, is the name and parameters of the closure whose
    body the segment is; its applications get a loop site.  The entry
    copy runs from the segment's entry environment; where a loop site's
    guard holds it falls through into the loop copy, which holds the
    parameters in the locals params and reads other free variables from
    the callee's environment (cenv).  A loop site compares free-variable
    values with the local saved, the values of Brent's saved
    configuration when its focus is the entry term, else None."""

    def __init__(self, entry: Term, member: Optional[tuple]) -> None:
        self.lines: list[str] = []
        self.size = 0
        self.consts: list = []
        self.index: dict = {}
        self.locals = 0
        self.longest = 0
        self.entry, self.member, self.loops, self.looping = entry, member, False, False
        self.inits: list[str] = []  # the loop copy's cached resolutions
        if member is not None:
            self.params = [self.local() for _ in member[1]]
            self.cenv = self.local()
            self.saved = self.local()

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
        self.lines.append("    " * (path.indent + 2 + self.looping) + line)
        self.size += size

    def leave(self, path: _Path, value: str, steps: int) -> None:
        self.emit(path, f"return {value}")
        self.longest = max(self.longest, steps)

    def result(self, path: _Path, funs: str, env: str, term: str, applied: bool, steps: int) -> None:
        """Return a configuration: steps counts this copy's steps, to
        which the loop copy adds those of its earlier iterations."""
        count, passed = (f"steps + {steps}", "passed") if self.looping else (str(steps), "0")
        self.leave(path, f"({count}, {funs}, {env}, {term}, {applied}, {passed})", steps)

    def apply(self, path: _Path, clo: str, rewound: str, params: str, args: str, steps: int) -> None:
        """Return the configuration an application enters: the callee's
        body under its environment with the parameters bound."""
        new = self.local()
        self.emit(path, f"{new} = dict({clo}.env)")
        self.emit(path, f"{new}.update(zip({params}, {args}))")
        self.result(path, rewound, new, f"{clo}.body", True, steps)

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
                self.emit(path, f"{v} = {path.base}.get({self.const(e.name)})")
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

    def environment(self, path: _Path) -> str:
        """The local holding path's environment, built if variables are
        pending."""
        if path.pending:
            v = self.local()
            pairs = ", ".join(f"{self.const(name)}: {op}" for name, op in path.pending.items())
            self.emit(path, f"{v} = {{**{path.env}, {pairs}}}", 1 + len(path.pending))
            path.env, path.pending = v, {}
        return path.env

    def loop_site(self, path: _Path, clo: str, rewound: str, params: str, args: str, ops: list, steps: int) -> None:
        """Where an application of the member enters the entry term
        again and the driver's repeat check would do nothing, go on in
        the loop copy: only while under the budget, with the fuel
        covering the longest path, and with free-variable values that
        differ from saved's."""
        self.loops = True
        formals = self.member[1]
        by_name = dict(zip(formals, ops))
        key = _tuple([by_name[v] if v in by_name else f"{clo}.env.get({self.const(v)})" for v in term_fact(self.entry)[1]])
        guard = f"{clo}.body is {self.const(self.entry)} and {params} is {self.const(formals)}"
        self.emit(path, f"if not ({guard} and passed < budget and room >= steps + {steps} and {key} != {self.saved}):")
        path.indent += 1
        self.apply(path, clo, rewound, params, args, steps)
        path.indent -= 1
        if self.params:
            self.emit(path, f"{''.join(f'{p}, ' for p in self.params)}= {args}")
        self.emit(path, f"{self.cenv}, funs = {clo}.env, {rewound}")
        self.emit(path, f"steps += {steps}")
        self.emit(path, "passed += 1")

    def path(self, t: Term, path: _Path) -> None:
        """Emit the steps from t along path up to its returns.  The
        first step is always emitted, so every cut is at least one step
        in and run_to_anchor makes progress."""
        while True:
            if path.steps and (
                self.size >= MAX_SIZE
                or (isinstance(t, Cond) and path.indent >= MAX_NESTING)
                or not _inlinable(t)
            ):
                self.result(path, path.funs, self.environment(path), self.const(t), False, path.steps)
                return
            if isinstance(t, Let):
                if isinstance(t.value, SysCall):
                    args = _tuple([self.operand(e, path) for e in t.value.args])
                    config = f"_Config({path.funs}, {self.environment(path)}, {self.const(t)})"
                    self.leave(path, f"_Ready({self.const(t.value.action)}, {args}, {config})", path.steps)
                    return
                v = self.operand(t.value, path)
                path.scope[t.var] = path.pending[t.var] = v
                path.steps += 1
                t = t.body
            elif isinstance(t, Cond):
                e = t.cond
                if isinstance(e, Binop) and e.op in _COMPARE:
                    test = f"{self.operand(e.left, path)} {_COMPARE[e.op]} {self.operand(e.right, path)}"
                else:
                    test = self.operand(e, path)
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
                hit, clo, rewound, params = (self.local() for _ in range(4))
                if self.looping:
                    # resolved once per function context, which the
                    # loop's applications mostly leave as it was
                    cached = self.local()
                    self.inits.append(f"{cached} = None")
                    self.emit(path, f"if {path.funs} is not {cached}:")
                    self.emit(path, f"    {cached}, {hit} = {path.funs}, _resolve({path.funs}, {self.const(t.fun)})")
                else:
                    self.emit(path, f"{hit} = _resolve({path.funs}, {self.const(t.fun)})")
                self.emit(path, f"if {hit} is None: return _BOT")
                ops = [self.operand(e, path) for e in t.args]
                args = _tuple(ops)
                self.emit(path, f"{clo}, {rewound} = {hit}")
                self.emit(path, f"{params} = {clo}.params")
                self.emit(path, f"if len({params}) != {len(t.args)}: return _BOT")
                steps = path.steps + 1
                member = self.member
                if member is not None and t.fun == member[0] and len(t.args) == len(member[1]):
                    self.loop_site(path, clo, rewound, params, args, ops, steps)
                else:
                    self.apply(path, clo, rewound, params, args, steps)
                return
            else:
                self.leave(path, f"_Done({self.operand(t.expr, path)})", path.steps)
                return


def compile_segment(t: Term, member: Optional[tuple[str, tuple[str, ...]]] = None) -> Optional[Segment]:
    """Compile the segment that starts at t and keep it on t.  member is
    the name and parameters of the closure whose body t is, when an
    application of it entered t.  A first step whose expressions do not
    inline leaves t cold for good: _segment None, which is returned."""
    if not _inlinable(t):
        _setattr(t, "_segment", None)
        return None
    src = _Source(t, member)
    src.path(t, _Path(0, "funs", "env", {}))
    body = src.lines
    if src.loops:
        # where a loop site's guard holds, the entry copy falls through
        # to here: one iteration of the loop copy per pass
        src.lines, src.size, src.looping = [], 0, True
        src.path(t, _Path(0, "funs", src.cenv, dict(zip(member[1], src.params))))
        values = _tuple([f"saved.env.get({src.const(v)})" for v in term_fact(t)[1]])
        start = [
            f"{src.saved} = {values} if saved.term is {src.const(t)} else None",
            f"room = fuel - {src.longest}",
            "steps = passed = 0",
            *src.inits,
        ]
        body = ["        " + line for line in start] + body + ["        while True:"] + src.lines
    lines = ["def make(k):"]
    if src.consts:
        lines.append("    " + "".join(f"c{i}, " for i in range(len(src.consts))) + "= k")
    lines.append("    def seg(funs, env, fuel, budget, saved):")
    code = compile("\n".join(lines + body + ["    return seg"]), "<segment>", "exec")
    scope: dict = {}
    exec(code, _HELPERS, scope)
    seg = Segment(src.longest, scope["make"](tuple(src.consts)), src.loops)
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
    them go both ways: the 8-byte blake2b digest of
    f"{seed}:{index}:{action}:{','.join(map(str, args))}", read as a
    signed big-endian integer, modulo 19, less 9.  The hash state of
    the f"{seed}:" prefix is kept and copied per call."""

    def __init__(self, seed: int):
        self.seed = seed
        self._prefix = blake2b(f"{seed}:".encode(), digest_size=8)

    def __call__(self, index: int, action: str, args: tuple[int, ...]) -> int:
        h = self._prefix.copy()
        h.update(f"{index}:{action}:{','.join(map(str, args))}".encode())
        return int.from_bytes(h.digest(), "big", signed=True) % 19 - 9


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
