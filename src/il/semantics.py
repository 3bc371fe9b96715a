"""Small-step execution of IL configurations and observable traces.

A configuration is (function context, environment, focused term).  The
function context is a stack of closure groups, most recent first; an
application rewinds it by dropping every group more recent than the
first group defining the callee, which is what makes recursion work
without a call stack.  Silent steps cover binding, conditionals, group
definition, and application.  System calls are the only observable
transitions: a run evaluates a system call's arguments once, the
Ready anchor holds them, and apply_extern resolves the call from that
anchor with a result value supplied from outside the stepper, so
execution is deterministic up to those results.  run_trace instead
gives run_to_anchor a resolver, which supplies each result where the
call is reached, so one run_to_anchor call runs a whole trace.

step_silent (with Stepped, AtExtern and Terminal, the three outcomes
it returns) is the reference semantics, one step at a time.
run_to_anchor and everything it calls reach none of them: the tests
check runs against a plain loop over step_silent, with the rest of that
loop's vocabulary (result_of) in tests/audits.py.  They stay in this
module because perfbench's tracer wraps il.semantics.step_silent on
every start of its run workload and counts its calls.

Configurations, events and anchors are immutable records: NamedTuple
classes whose fields cannot be assigned and which equal only records
of their own class, so Done(x) != Diverges(x) and no record equals a
plain tuple.  Environments are plain dicts.  step_silent builds a
fresh one at every let and application.  run_to_anchor's cold loop
applies the same rules in place over funs, env and term locals, and
writes a segment's let-bound values into one private dict, copied from
the entry environment at the segment's first let.  That dict is never
one that something else holds: a fun's closures capture it, so the
next let copies again; an application's fresh environment never
becomes it, since Brent's check may have saved a configuration holding
that environment; a resolved system call binds its result in a new
dict, which nothing else holds, so it becomes the private dict; and a
Config is built from it only for an anchor, which ends the run.  So no
dict that a caller, a closure or a Config holds is ever written.

Divergence.  Because silent stepping is a function of the configuration's
content, a silent run that comes back to an equal configuration repeats
forever without an observable action.  run_to_anchor decides this with
Brent's cycle finder (one saved configuration, replaced whenever the
distance since the last save reaches the next power of two) and
returns a Diverges anchor.  Binding, conditionals and group definition
each step into a strict subterm of the focus, so every silent cycle
contains an application step; only the configurations right after an
application are compared.  Those form a deterministic sequence of their
own, so Brent's method applies to it unchanged: its first element is
saved without a comparison, and until then saved is _UNSET, a
configuration whose focus is no term.  Configurations are
compared by what their future can read (config_key): the focused
term's number and the values of its read set, and per closure its name
and its own key (Closure.key): its body's number, its parameters and
the values of the body's read set that are not parameters.  A term's
read set is its free variables, less those named only in a branch that
a closed condition decides against (syntax.term_fact): such a condition
decides alike in every run, so no run reads them.  Numbers and read
sets are kept on the terms, a closure's key on the closure, so no table
is built per run or per game and no key holds an id().  Two
configurations equal in that projection run alike forever, so a repeat
of it is a silent loop even where a variable never read again, or read
only in a branch no run takes, still changes.  The game's memo uses
these keys.  Brent's check keys a configuration that an application
entered by fewer values (loop_reads): its focus is the body of a member
of the group funs[0], and of the body's read set only the variables the
body can observe count (syntax.group_live, a true liveness over the
group's bodies that keeps every value an expression with "/" divides,
and every argument to a function the group does not define).  The
parameters are bound and the closure's key holds the values of the
other variables the body reads, so two such configurations with equal
keys step alike, reach the same anchors and come back to member bodies
with equal keys.  So a counter that only feeds itself, such as
fun f(x) = f(x + 1), repeats its key within one period and is a silent
loop.  The fact is kept on the group's Fun term, which each closure
names (Closure._fun), and folded when a run first comes back to a body
of that group.  Fuel still bounds every run, and a loop that never
repeats a key, such as a counter read by a condition, a division or a
closure, still runs out of fuel.  A resolved system call starts the
fuel and the check over (saved _UNSET, since 0 and power 1), as a fresh
run from the configuration after it would.  Neither a run's start nor
the configuration after a call is ever compared: every program the
parser, the generator, the passes and the shrinker build is a tree, so
no member body is a root or a let's body, and such a configuration
never has the focus of a post-application one.  A compiled loop
(below) makes this check itself, with the same keys, wherever it can
tell that the keys differ, and makes Brent's saves itself.

Compiled segments.  A segment is the code from an entry term up to the
next application or leaf: the term a run starts from (the root, or the
body after a system-call let that apply_extern resumes) or the body an
application enters.  A segment entered HOT_ENTRIES times (entries by an
application or from a cut count; a run's start does not) is compiled
into one Python function and kept on its entry term (Term._segment).
Where an application entered the segment, the function takes the
parameters of its callee from the entry environment; where one is
unbound (a run that starts at the body, or a body that a group whose
parameter has another name shares) it returns None having run no step,
and run_to_anchor runs the segment cold.
The function runs the segment's Let, Cond and Fun steps with let-bound
values in locals, builds an environment only where a configuration
needs one (a closure, a Ready anchor, the callee's environment, a cut,
a configuration a return hands back as saved), and returns the anchor it
reached, or the configuration after its last step with the run's state
(the remaining fuel and Brent's saved, since and power) updated, which
run_to_anchor then checks as its own.  At a system call it calls
run_to_anchor's resolver, if there is one; where that gives a result,
the code binds it in a local, starts the fuel and Brent's check over
and goes on into the let's body, else it returns a Ready anchor.  So
run_trace runs the code after a call in the segment that reached it,
and the game, which passes no resolver, gets the same Ready anchors as
it would from the cold loop.  The body of a system-call let is never
compiled on its own account: a run that apply_extern resumes there runs
it cold unless an application or a cut made it hot, and the game's
loop-free trees resume many configurations but make few bodies hot.
Every segment is called the same way, run(funs, env, fuel, remaining,
saved, since, power, resolve), from one place in run_to_anchor.  Each
step's expressions are inlined as three-address code; generated code
holds only generated names and 64-bit integer literals, and names,
actions, terms and other constants come from a tuple.  Its size is
bounded (MAX_NESTING nested conditionals, MAX_SIZE lines, INLINE_NODES
expression nodes per step): where a later step, or the first after a
system call, reaches a bound the code is cut, returning the
configuration at that term, which is a new entry.  A segment whose
first step has more than INLINE_NODES expression nodes is never
compiled: its entry term keeps _segment None and always runs cold.
run_to_anchor runs compiled code only when the remaining fuel covers
the most steps any path through the segment takes between its entry,
its system calls, its sites (below) and its ends (longest), and
otherwise runs the segment in the cold loop.  That loop decides every
anchor itself, in step_silent's order: it evaluates a step (a let's
value, a condition, or a callee, its arguments and its arity) and ends
with Done where that is undefined or the focus is an expression; only
then counts the step, ending with OutOfFuel at the configuration
before it where no fuel is left; and then commits it.  A system call
takes no fuel, so it is resolved or anchored even with none left.  So
every anchor, OutOfFuel and Diverges included, comes at the same step
with an equal configuration whichever way a segment runs, and Brent's
check sees the same post-application configurations.  Either way a
Config is built only for a Ready or OutOfFuel anchor and for the
configurations Brent's check saves or compares.

Loops.  In the paper's language a loop is a group of functions that
apply each other, often a function that applies itself.  When an
application entered the segment being compiled, its callee's group,
funs[0], gives the segment its member (the closure whose body is the
entry term) and the names, parameters and bodies of the other members.
An application of a member with its arity, where no group defined on
the way hides it, is a site: at the member's own (a loop site), the
code goes on at the top of the segment, whose code is one loop from
its first pass; at another member's (a member site), into that
member's body inline, on the same path, with that member's parameters
in locals of their own.  Every site follows one rule.  Its guard holds
where the callee's body, parameters and group (Closure._fun) are that
member's, the remaining fuel covers the longest path and, before any
system call on the path, the values that key the body (loop_reads, one
local each) differ from those kept for that body.  Where saved's focus
is that body they are saved's, taken with the same variables, so the
keys differ: a saved keyed by other variables has a key of another
length or another function context.  Elsewhere the foci differ, and
values kept from an earlier save can only send the run back to
run_to_anchor.  Where the guard holds, the
site counts the post-application configuration, and where Brent's save
falls due it makes the save itself, keeping the saved configuration's
function context, the callee's closure (its environment, parameters
and body), the parameters' values and the values that key the body in
locals; a Config is built from them only where the segment returns.
Right after a call Brent's state is known when the code is compiled
(_UNSET, since 0, power 1): the first site after a call saves without
comparing.  A member gets a member site where the path has not gone
into it yet and its body's first step fits the size bounds; elsewhere
the application leaves the segment as any other does.  Every
such choice is local to the path being emitted, so a helper member that
a loop exits into, and that never applies the entry, is gone into in
line too.  The loop keeps the parameters in locals, reads other free
variables from the callee's environment, resolves each application
and checks its arity and, at a site, the callee's body and parameters
once per function context, compares a key value by value, the
parameters' first, up to the first that differs, and builds an
environment only where one escapes: a closure, a Ready, a cut, or an
application that leaves the loop.  So a compiled loop, a cycle through
several members and a loop that makes system calls included, comes
back to run_to_anchor only at a possible repeat, when the fuel runs
short, or where it leaves.
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
    group_live,
    term_exprs,
    term_fact,
    truthy,
    wrap,
)

Env = dict[str, int]


@dataclass(frozen=True)
class Closure:
    """Captured environment, parameter list, and body. Not recursive by
    itself; recursion comes from context rewinding.  Two attributes are
    not fields: _key, kept on the closure once asked for, and _fun, the
    Fun term whose group made the closure (None for one made otherwise),
    whose group_live fact loop_reads reads."""

    env: Env
    params: tuple[str, ...]
    body: Term
    _key = None
    _fun = None

    @property
    def key(self) -> tuple:
        """What the closure's body can read: its number, the parameters,
        and the values (None for unbound) of the variables in its read
        set (syntax.term_fact) that are not parameters, in sorted order."""
        key = self._key
        if key is None:
            number, reads = term_fact(self.body)
            key = (number, self.params, tuple(self.env.get(v) for v in reads if v not in self.params))
            _setattr(self, "_key", key)
        return key


Group = Sequence[tuple[str, Closure]]
FunContext = tuple[Group, ...]  # most recent group first

_object_new = object.__new__


def _group(fun: Fun, env: Env) -> Group:
    """The group fun defines under env, as a list in the order of its
    definitions: each closure is made with object.__new__ and given its
    fields, and _fun, as its __dict__, which is what the frozen
    dataclass's __init__ would do, at about half the cost."""
    group = []
    for d in fun.defs:
        clo = _object_new(Closure)
        _setattr(clo, "__dict__", {"env": env, "params": d.params, "body": d.body, "_fun": fun})
        group.append((d.name, clo))
    return group


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


# _new(Cls, (fields...)) is a record of Cls without its generated
# __new__; a record on a per-step or per-game-node path is built with it
_new = tuple.__new__


@_record
class Config(NamedTuple):
    funs: FunContext
    env: Env
    term: Term


def config_key(c: Config, reads: Optional[Sequence[str]] = None) -> tuple:
    """What c's future reads, as a hashable key: the focus's number, the
    values of the variables in its read set (syntax.term_fact; None for
    unbound) in sorted order, and per closure in the function context
    its name and key.  A variable named only in a branch that a closed
    condition decides against is not in the read set: no run reads it.
    Two configurations with equal keys step to configurations with equal
    keys, reach the same anchor kind after the same number of steps, and
    have the same events.  With reads, the values of those variables
    stand for the read set's (Brent's check passes loop_reads)."""
    funs, env, term = c
    number, own = term_fact(term)
    if funs:
        funs = tuple([tuple([(name, clo.key) for name, clo in g]) for g in funs])
    return (number, tuple(map(env.get, own if reads is None else reads)), funs)


def loop_reads(c: Config) -> tuple[str, ...]:
    """The variables whose values Brent's check keys c by, a
    configuration an application entered: its focus is the body of a
    member of funs[0], and the variables that body can observe
    (syntax.group_live) count.  Two keys with equal function contexts'
    keys were taken with the same variables, as group_live depends only
    on the definitions that those keys name."""
    funs, _, term = c
    i, clo = next((i, clo) for i, (_, clo) in enumerate(funs[0]) if clo.body is term)
    return _member_reads(clo._fun, i, term)


def _member_reads(fun: Optional[Fun], i: int, body: Term) -> tuple[str, ...]:
    """loop_reads where an application of the i-th closure of a group,
    made by fun (or otherwise, None), entered body."""
    return term_fact(body)[1] if fun is None else group_live(fun)[i]


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


def step_silent(config: Config) -> Union[Stepped, AtExtern, Terminal]:
    """One step of the reference semantics (see the module docstring)."""
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
        return Stepped(Config((_group(t, config.env),) + config.funs, config.env, t.cont))
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
    """The silent run reached config's key twice (loop_reads): it loops
    forever without an observable action."""

    config: Config


Anchor = Union[Done, Ready, OutOfFuel, Diverges]


def apply_extern(ready: Ready, result: int) -> tuple[Event, Config]:
    """Resolve the pending system call of a Ready anchor with the given
    result value: the event, and the configuration after the let."""
    action, args, (funs, env, t) = ready
    return _new(Event, (action, args, result)), _new(Config, (funs, {**env, t.var: result}, t.body))


_BOT = Done(None)

# Brent's saved before the first post-application configuration of a
# run, or since its last resolved call: its focus is no term, so no
# configuration repeats it
_UNSET = Config((), {}, None)

# resolve(action, args): a system call's result, or None to leave the
# call pending as a Ready anchor
Resolver = Callable[[str, tuple[int, ...]], Optional[int]]


def run_to_anchor(config: Config, fuel: int, resolve: Optional[Resolver] = None) -> Anchor:
    """Run silent steps (at most fuel of them) to the next anchor, or
    to the first repeat of a configuration's key (Diverges).

    With a resolver, a system call is an anchor only where the resolver
    returns None; elsewhere its result is bound and the run goes on as a
    fresh run from the configuration after the call, with fuel silent
    steps and Brent's check started over.

    One segment at a time: its compiled code when the segment is hot and
    the fuel covers its longest path, else the cold loop up to the next
    application or anchor.  Compiled code takes the remaining fuel and
    Brent's state and hands them back updated (Segment)."""
    funs, env, term = config
    remaining = fuel
    # Brent's cycle finder over the post-application configurations:
    # saved is compared with each of them and replaced by the current
    # one when since reaches power, which then doubles.  Until the first
    # save, saved is _UNSET, whose focus is no term.
    saved, saved_key, since, power = _UNSET, None, 0, 1
    # a run's start is not counted as an entry
    seg = term._segment
    while True:
        if (
            seg.__class__ is Segment
            and seg.longest <= remaining
            and (out := seg.run(funs, env, fuel, remaining, saved, since, power, resolve)) is not None
        ):
            if out.__class__ is not tuple:
                return out
            if out[5] is not saved:
                saved_key = None
            funs, env, term, applied, remaining, saved, since, power = out
        else:
            # the cold loop; own is the segment's private dict, once a
            # let has copied it (see the module docstring)
            own = None
            while True:
                # evaluate, count (a system call takes no fuel), commit
                cls = term.__class__
                if cls is Let:
                    value = term.value
                    if value.__class__ is SysCall:
                        args = eval_expr_list(value.args, env)
                        if args is None:
                            return _BOT
                        if resolve is None or (result := resolve(value.action, args)) is None:
                            return _new(Ready, (value.action, args, _new(Config, (funs, env, term))))
                        env = own = {**env, term.var: result}
                        term, remaining = term.body, fuel
                        saved, saved_key, since, power = _UNSET, None, 0, 1
                        continue
                    v = eval_expr(value, env)
                    if v is None:
                        return _BOT
                    if (remaining := remaining - 1) < 0:
                        return OutOfFuel(Config(funs, env, term))
                    if env is not own:
                        env = own = dict(env)
                    env[term.var] = v
                    term = term.body
                elif cls is Cond:
                    v = eval_expr(term.cond, env)
                    if v is None:
                        return _BOT
                    if (remaining := remaining - 1) < 0:
                        return OutOfFuel(Config(funs, env, term))
                    term = term.then if v else term.orelse
                elif cls is App:
                    hit = ctx_resolve(funs, term.fun)
                    if hit is None:
                        return _BOT
                    vals = eval_expr_list(term.args, env)
                    if vals is None or len(vals) != len(hit[0].params):
                        return _BOT
                    if (remaining := remaining - 1) < 0:
                        return OutOfFuel(Config(funs, env, term))
                    clo, funs = hit
                    env = dict(clo.env)
                    env.update(zip(clo.params, vals))
                    term = clo.body
                    break
                elif cls is Fun:
                    if (remaining := remaining - 1) < 0:
                        return OutOfFuel(Config(funs, env, term))
                    funs = (_group(term, env),) + funs
                    own = None
                    term = term.cont
                else:
                    return _new(Done, (eval_expr(term.expr, env),))
            applied = True
        if applied:
            # keys differ whenever the focus does, so only an equal
            # focus needs them; and they differ whenever a bound variable
            # that saved is keyed by changes, which is cheaper to test
            # first
            config = None
            if term is saved.term:
                if saved_key is None:
                    reads = loop_reads(saved)
                    saved_key = config_key(saved, reads)
                    bound = {v: x for v, x in zip(reads, saved_key[1]) if x is not None}.items()
                if bound <= env.items():
                    config = _new(Config, (funs, env, term))
                    if config_key(config, loop_reads(config)) == saved_key:
                        return Diverges(config)
            since += 1
            if since == power:
                if config is None:
                    config = _new(Config, (funs, env, term))
                saved, saved_key, since, power = config, None, 0, power * 2
        seg = term._segment
        if seg.__class__ is int:
            if seg + 1 < HOT_ENTRIES:
                _setattr(term, "_segment", seg + 1)
            else:
                # an application entered term: its callee is the member
                # of funs[0] whose body term is
                seg = compile_segment(term, funs[0] if applied else ())


# -- compiled segments

HOT_ENTRIES = 32  # a segment is compiled on its 32nd counted entry
MAX_NESTING = 24  # conditionals nested in one segment's code
MAX_SIZE = 256  # lines of one segment's code, plus entries of the environments it builds
INLINE_NODES = 32  # expression nodes a step inlines; a larger first step leaves the term cold

_MIN = -INT_MAX - 1
_COMPARE = {"=": "==", "<": "<", "<=": "<="}
_WRAPPED = frozenset("+-*")


class Segment:
    """A segment's compiled code.  run(funs, env, fuel, remaining, saved,
    since, power, resolve) takes the entry's function context and
    environment, the run's state (its fuel, the fuel remaining, and
    Brent's saved, since and power) and run_to_anchor's resolver.  It
    returns an anchor (Done or Ready), or the configuration its last
    step reached with the run's state there, the saves its sites made
    included, before Brent's check of it: (funs, env, term, applied,
    remaining, saved, since, power), after an application when applied
    is true, else at a new entry where the code was cut.  The code of a
    body that an application entered returns None, having run no step,
    where env leaves a parameter of its member unbound; run_to_anchor
    then runs the segment cold.  longest is the most silent steps any path
    through it takes from its entry, a system call or a site to the next
    of these or an end."""

    __slots__ = ("longest", "run")

    def __init__(self, longest: int, run: Callable):
        self.longest = longest
        self.run = run


# The only names generated code reads besides its own v<n> locals, its
# c<n> constants and its parameters.
_HELPERS = {
    "__builtins__": {},
    "len": len,
    "dict": dict,
    "zip": zip,
    "_BOT": _BOT,
    "_new": _new,
    "_Done": Done,
    "_Ready": Ready,
    "_Config": Config,
    "_resolve": ctx_resolve,
    "_group": _group,
    "_wrap": wrap,
    "_div": _div,
    "_UNSET": _UNSET,
    "_UNSAVED": object(),  # a key value before any save: equals no value
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
    indent, silent steps since the entry, the last site or the last
    system call, the locals holding the function context, the last
    environment built and the environment that variables neither bound
    nor read so far are read from (base), the operand of each variable
    read or bound so far (scope) and the bound ones not yet in that
    environment (pending); after, whether a system call is on the path
    since its entry or its last site: such a path returns saved _UNSET,
    since 0 and power 1, and the fuel counted from the call; inlined,
    the group members whose bodies the path has gone on into; hidden,
    the names defined by the groups made since the entry or the last
    member site."""

    __slots__ = ("indent", "steps", "funs", "env", "base", "scope", "pending", "after", "inlined", "hidden")

    def __init__(self, indent: int, funs: str, env: str, scope: dict) -> None:
        self.indent, self.steps, self.funs, self.env, self.base = indent, 0, funs, env, env
        self.scope, self.pending, self.after = dict(scope), dict(scope), False
        self.inlined, self.hidden = (), frozenset()

    def branch(self) -> "_Path":
        path = _Path(self.indent + 1, self.funs, self.env, self.scope)
        path.steps, path.base, path.pending, path.after = self.steps + 1, self.base, dict(self.pending), self.after
        path.inlined, path.hidden = self.inlined, self.hidden
        return path


class _Source:
    """Python source for one segment.  Every IL name, action, term and
    constant outside the 64-bit range is a constant c<n>, bound from a
    tuple; the source holds only generated names and 64-bit integers.

    When an application entered the segment, group is the callee's group
    and member the name of the callee, the member whose body is the
    entry term.  The code is then one loop, run from its first pass: it
    holds the member's parameters in the locals params and reads other
    free variables from the callee's environment (cenv), which the
    prologue takes, with the parameters, from the entry environment.
    An application of the member that no group defined on the way hides
    gets a loop site, where the path goes on at the loop's top, and one
    of another member a member site where this path has not gone into
    that member yet and its body fits the bounds, where the path goes on
    into that member's body in the same way, on locals of its own.

    Every site follows one rule.  It counts its steps into remaining
    first and goes on only where that covers room, the longest path's
    steps, and, before any system call on its path, where the values of
    its body's read set differ from that body's locals in saved,
    one per variable: saved's values where saved's focus is the body,
    else _UNSAVED or the values of an earlier save.  It counts the
    configuration, and where Brent's save falls due it makes the save
    into the locals kept (the saved configuration's function context,
    None until a site sets it, the callee's closure, whose environment,
    parameters and body the guard checked, and the parameters' values)
    and its body's locals.
    Right after a call Brent's state is _UNSET, since 0 and power 1, so
    the first site after a call saves without comparing.  A return with no
    call on its path since its last site hands the kept configuration
    back as saved where a site made it."""

    def __init__(self, entry: Term, group: Group) -> None:
        self.lines: list[str] = []
        self.size = 0
        self.consts: list = []
        self.index: dict = {}
        self.locals = 0
        self.longest = 0
        self.entry, self.member, self.group = entry, None, {}
        # name -> (params, body, the Fun term that made the closure, its
        # position in the group), which give the key at its body
        for i, (name, clo) in enumerate(group):
            if self.member is None and clo.body is entry:
                self.member, self.group[name] = name, (clo.params, entry, clo._fun, i)
            else:
                self.group.setdefault(name, (clo.params, clo.body, clo._fun, i))
        self.saved: dict[int, tuple] = {}  # id(body) -> (locals, body, reads) per body a site enters
        self.inits: list[str] = []  # locals the prologue sets to None
        if self.member is None:
            self.group, self.margin = {}, " " * 8
        else:
            # the loop's body is one level deeper, in its while
            self.params = [self.local() for _ in self.group[self.member][0]]
            self.cenv = self.local()
            self.kept = [self.local() for _ in range(3)]
            self.margin = " " * 12

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
        self.lines.append(self.margin + "    " * path.indent + line)
        self.size += size

    def leave(self, path: _Path, value: str, steps: int, size: int = 1) -> None:
        self.emit(path, f"return {value}", size)
        self.longest = max(self.longest, steps)

    def result(self, path: _Path, funs: str, env: str, term: str, applied: bool, steps: int) -> None:
        """Return a configuration with the run's state: steps counts the
        path's steps since its entry, its last site or its last system
        call."""
        saved, brent, size = "saved", "since, power", 1
        if path.after:
            saved, brent = "_UNSET", "0, 1"
        elif self.member is not None:
            # past a site: the save a site made, if any
            funs_, clo, values = self.kept
            config = f"_new(_Config, ({funs_}, {{**{clo}.env, **dict(zip({clo}.params, {values}))}}, {clo}.body))"
            saved, size = f"saved if {funs_} is None else {config}", 2
        remaining = f"remaining - {steps}" if steps else "remaining"
        self.leave(path, f"({funs}, {env}, {term}, {applied}, {remaining}, {saved}, {brent})", steps, size)

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

    def env_source(self, path: _Path) -> str:
        """Source for path's environment, without building it."""
        if not path.pending:
            return path.env
        pairs = ", ".join(f"{self.const(name)}: {op}" for name, op in path.pending.items())
        return f"{{**{path.env}, {pairs}}}"

    def environment(self, path: _Path) -> str:
        """The local holding path's environment, built if variables are
        pending."""
        if path.pending:
            v = self.local()
            self.emit(path, f"{v} = {self.env_source(path)}", 1 + len(path.pending))
            path.env, path.pending = v, {}
        return path.env

    def fits(self, t: Term, path: _Path) -> bool:
        """Whether t's step may be emitted on path within the bounds."""
        return self.size < MAX_SIZE and not (isinstance(t, Cond) and path.indent >= MAX_NESTING) and _inlinable(t)

    def key(self, body: Term, ops: dict, env: str) -> list:
        """Body's locals in saved, each with the value of a variable that
        a configuration an application entered body by is keyed by
        (loop_reads): its operand in ops, these first, or else read from
        env.  A body keyed by no variable has one local, and the value 0."""
        kept, _, reads = self.saved[id(body)]
        pairs = [(s, ops[v]) for s, v in zip(kept, reads) if v in ops]
        pairs += [(s, f"{env}.get({self.const(v)})") for s, v in zip(kept, reads) if v not in ops]
        return pairs or [(kept[0], "0")]

    def site(self, path: _Path, name: str, clo: str, rewound: str, params: str, args: str, ops: list, steps: int, same: str) -> list:
        """Where an application of member name enters its body (where
        same holds), go on past the application: with the fuel covering
        the longest path and, before any system call on the path, a key
        that differs from that body's locals in saved.  Count the
        configuration and make Brent's save where it falls due.  The
        locals that then hold the member's parameters."""
        formals, body, fun, i = self.group[name]
        if name == self.member:
            bound = self.params
        else:
            bound = [self.local() for _ in formals]
        if id(body) not in self.saved:
            # the guard checks the closure's body, parameters and _fun
            reads = _member_reads(fun, i, body)
            self.saved[id(body)] = ([self.local() for _ in reads or "0"], body, reads)
        # the fuel is counted first, so the return where the guard
        # fails has no steps left to count
        guard = f"(remaining := remaining - {steps}) >= room and {same}"
        if not path.after:
            # the first value that differs decides, the parameters'
            # before any read of the callee's environment
            differ = " or ".join(f"{x} != {s}" for s, x in self.key(body, dict(zip(formals, ops)), f"{clo}.env"))
            guard += f" and ({differ})"
        self.emit(path, f"if not ({guard}):")
        path.indent += 1
        self.longest = max(self.longest, steps)
        self.apply(path, clo, rewound, params, args, 0)
        path.indent -= 1
        if bound:
            self.emit(path, f"{''.join(f'{p}, ' for p in bound)}= {args}")
        self.emit(path, f"{self.cenv}, funs = {clo}.env, {rewound}")
        # the save, from the bound locals: binding may overwrite the
        # operands of the key compared above
        key = self.key(body, dict(zip(formals, bound)), self.cenv)
        targets, values = self.kept + [s for s, _ in key], [x for _, x in key]
        save = f"{', '.join(targets)}, since, power = funs, {clo}, {_tuple(bound)}, {', '.join(values)}, 0"
        if not path.after:
            self.emit(path, f"if (since := since + 1) == power: {save}, power * 2")
        else:
            # the first post-application configuration since the call,
            # which saved _UNSET cannot equal: it is saved
            self.emit(path, f"{save}, 2")
        return bound

    def path(self, t: Term, path: _Path) -> None:
        """Emit the steps from t along path up to its returns.  The
        first step is always emitted, so every cut is at least one step
        or one system call in and run_to_anchor makes progress."""
        while True:
            if (path.steps or path.after) and not self.fits(t, path):
                self.result(path, path.funs, self.environment(path), self.const(t), False, path.steps)
                return
            if isinstance(t, Let):
                if isinstance(t.value, SysCall):
                    # the result, where a resolver gives one; else a
                    # Ready anchor
                    action = self.const(t.value.action)
                    args = _tuple([self.operand(e, path) for e in t.value.args])
                    config = f"_new(_Config, ({path.funs}, {self.env_source(path)}, {self.const(t)}))"
                    v = self.local()
                    self.emit(
                        path,
                        f"if resolve is None or ({v} := resolve({action}, {args})) is None:"
                        f" return _new(_Ready, ({action}, {args}, {config}))",
                        1 + len(path.pending),
                    )
                    self.longest = max(self.longest, path.steps)
                    # the rest runs as a fresh run from after the call:
                    # steps count from 0, and the first step may be cut
                    self.emit(path, "remaining = fuel", 0)
                    path.scope[t.var] = path.pending[t.var] = v
                    path.steps, path.after, t = 0, True, t.body
                    continue
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
                self.emit(path, f"{funs} = (_group({self.const(t)}, {env}),) + {path.funs}")
                path.funs, path.hidden = funs, path.hidden.union(d.name for d in t.defs)
                path.steps += 1
                t = t.cont
            elif isinstance(t, App):
                hit, clo, rewound, params = (self.local() for _ in range(4))
                steps, name, callee = path.steps + 1, t.fun, self.group.get(t.fun)
                site = callee is not None and len(callee[0]) == len(t.args) and name not in path.hidden
                site = site and (name == self.member or name not in path.inlined and self.fits(callee[1], path))
                same = site and (
                    f"{clo}.body is {self.const(callee[1])} and {params} is {self.const(callee[0])}"
                    f" and {clo}._fun is {self.const(callee[2])}"
                )
                checks = [f"if {hit} is None: return _BOT", f"{clo}, {rewound} = {hit}", f"{params} = {clo}.params"]
                checks.append(f"if len({params}) != {len(t.args)}: return _BOT")
                if self.member is not None:
                    # resolved and checked once per function context,
                    # which the loop's applications mostly leave as it
                    # was: a pass that finds it unchanged got here only
                    # because the checks held, the arity's included
                    cached = self.local()
                    self.inits.append(f"{cached} = None")
                    if site:
                        same, test = self.local(), same
                        checks.append(f"{same} = {test}")
                    self.emit(path, f"if {path.funs} is not {cached}:")
                    for line in [f"{cached}, {hit} = {path.funs}, _resolve({path.funs}, {self.const(name)})", *checks]:
                        self.emit(path, "    " + line)
                    checks = []
                else:
                    self.emit(path, f"{hit} = _resolve({path.funs}, {self.const(name)})")
                    self.emit(path, checks.pop(0))
                ops = [self.operand(e, path) for e in t.args]
                for line in checks:
                    self.emit(path, line)
                args = _tuple(ops)
                if not site:
                    self.apply(path, clo, rewound, params, args, steps)
                    return
                bound = self.site(path, name, clo, rewound, params, args, ops, steps, same)
                if name == self.member:
                    return
                # go on into the member's body on this path
                inlined = path.inlined + (name,)
                path = _Path(path.indent, "funs", self.cenv, dict(zip(callee[0], bound)))
                path.inlined, t = inlined, callee[1]
            else:
                self.leave(path, f"_new(_Done, ({self.operand(t.expr, path)},))", path.steps)
                return


def compile_segment(t: Term, group: Group = ()) -> Optional[Segment]:
    """Compile the segment that starts at t, the code after its system
    calls included, and keep it on t.  group is the callee's group when
    an application entered t: its members give the segment's sites, and
    the code is one loop, whose prologue takes the callee's parameters
    from the entry environment and returns None where one is unbound.  A
    first step whose expressions do not inline leaves t cold for good:
    _segment None, which is returned."""
    if not _inlinable(t):
        _setattr(t, "_segment", None)
        return None
    src = _Source(t, group)
    if src.member is None:
        src.path(t, _Path(0, "funs", "env", {}))
        start = []
    else:
        params = src.group[src.member][0]
        src.path(t, _Path(0, "funs", src.cenv, dict(zip(params, src.params))))
        # the parameters from the entry environment, where it binds them
        start = [f"{p} = env.get({src.const(x)})" for p, x in zip(src.params, params)]
        if params:
            start.append(f"if {' or '.join(f'{p} is None' for p in src.params)}: return None")
        start += [f"{src.cenv} = env", f"{src.kept[0]} = None", *src.inits]
        if src.saved:
            start.append(f"room = {src.longest}")
        for kept, term, _ in src.saved.values():
            key = src.key(term, {}, "saved.env")
            start += [f"if saved.term is {src.const(term)}: {', '.join(s for s, _ in key)} = {', '.join(x for _, x in key)}"]
            start += [f"else: {' = '.join(kept)} = _UNSAVED"]
        start.append("while True:")
    body = ["        " + line for line in start] + src.lines
    lines = ["def make(k):"]
    if src.consts:
        lines.append("    " + "".join(f"c{i}, " for i in range(len(src.consts))) + "= k")
    lines.append("    def seg(funs, env, fuel, remaining, saved, since, power, resolve):")
    code = compile("\n".join(lines + body + ["    return seg"]), "<segment>", "exec")
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
    them go both ways: the 8-byte blake2b digest of
    f"{seed}:{index}:{action}:{','.join(map(str, args))}", read as a
    signed big-endian integer, modulo 19, less 9.  The hash state of
    the f"{seed}:" prefix is kept and copied per call, and the common
    one- and two-argument keys are formatted without a join."""

    def __init__(self, seed: int):
        self.seed = seed
        self._prefix = blake2b(f"{seed}:".encode(), digest_size=8)

    def __call__(self, index: int, action: str, args: tuple[int, ...]) -> int:
        n = len(args)
        if n == 2:
            key = f"{index}:{action}:{args[0]},{args[1]}"
        elif n == 1:
            key = f"{index}:{action}:{args[0]}"
        else:
            key = f"{index}:{action}:{','.join(map(str, args))}"
        h = self._prefix.copy()
        h.update(key.encode())
        return int.from_bytes(h.digest(), "big", signed=True) % 19 - 9


def run_trace(config: Config, oracle: Oracle, fuel: int, max_events: int = 256) -> Trace:
    """Drive a run, resolving each system call through the oracle.
    fuel bounds the silent steps from the start or a resolved call to
    the next call or the end; max_events bounds the number of resolved
    calls.

    The run is one run_to_anchor call, whose resolver is the one place
    an event is made, so the code after a call runs on in the segment
    that reached it.  The resolver returns None once max_events calls
    are resolved, which leaves the next call a Ready anchor and ends the
    trace with Cutoff."""
    events: list[Event] = []
    append = events.append

    def resolve(action: str, args: tuple[int, ...]) -> Optional[int]:
        index = len(events)
        if index >= max_events:
            return None
        result = oracle(index, action, args)
        if not _MIN <= result <= INT_MAX:
            result = wrap(result)
        append(_new(Event, (action, args, result)))
        return result

    anchor = run_to_anchor(config, fuel, resolve)
    cls = anchor.__class__
    if cls is Done:
        return Trace(tuple(events), Terminated(anchor.result))
    return Trace(tuple(events), Diverged() if cls is Diverges else Cutoff())


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
