"""Small-step execution of IL configurations and observable traces.

A configuration is (function context, environment, focused term).  The
function context is a stack of closure groups, most recent first; an
application rewinds it by dropping every group more recent than the
first group defining the callee, which is what makes recursion work
without a call stack.  Silent steps cover binding, conditionals, group
definition, and application.  System calls are the only observable
transitions; their result value is supplied from outside the stepper
(apply_extern), so execution is deterministic up to those results.

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
compared by content: the focused term by identity (it is a subterm of
the program, so equal identity means equal term), then the environment
and the function context by ==.  Fuel still bounds every run, and a
loop that never repeats a configuration, such as a counter, still runs
out of fuel.
"""
from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, Optional, Sequence, Union

from .syntax import (
    App,
    Cond,
    Exp,
    Fun,
    Let,
    SysCall,
    Term,
    eval_expr,
    eval_expr_list,
    truthy,
    wrap,
)

Env = dict[str, int]


@dataclass(frozen=True)
class Closure:
    """Captured environment, parameter list, and body. Not recursive by
    itself; recursion comes from context rewinding."""

    env: Env
    params: tuple[str, ...]
    body: Term


Group = tuple[tuple[str, Closure], ...]
FunContext = tuple[Group, ...]  # most recent group first


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


# -- one silent step


@dataclass(frozen=True)
class Stepped:
    config: Config


@dataclass(frozen=True)
class AtExtern:
    """The focus is a system-call let whose arguments evaluate."""


@dataclass(frozen=True)
class Terminal:
    """No silent successor and not at a system call."""


_AT_EXTERN = AtExtern()
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
            if eval_expr_list(t.value.args, config.env) is None:
                return _TERMINAL
            return _AT_EXTERN
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
        group = tuple((d.name, Closure(config.env, d.params, d.body)) for d in t.defs)
        return Stepped(Config((group,) + config.funs, config.env, t.cont))
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


def apply_extern(config: Config, result: int) -> tuple[Event, Config]:
    """Resolve the pending system call of a ready configuration with
    the given result value."""
    t = config.term
    if not (isinstance(t, Let) and isinstance(t.value, SysCall)):
        raise ValueError("configuration is not at a system call")
    vals = eval_expr_list(t.value.args, config.env)
    if vals is None:
        raise ValueError("system-call arguments do not evaluate")
    event = Event(t.value.action, vals, result)
    return event, Config(config.funs, {**config.env, t.var: result}, t.body)


def run_to_anchor(config: Config, fuel: int) -> Anchor:
    """Run silent steps (at most fuel of them) to the next anchor, or
    to the first repeat of a configuration (Diverges)."""
    remaining = fuel
    # Brent's cycle finder over the post-application configurations:
    # saved is compared with each of them and replaced by the current
    # one when since reaches power, which then doubles.  Starting from
    # the initial configuration is sound, since it is on the path too.
    saved = config
    since = 0
    power = 1
    while True:
        step = step_silent(config)
        if not isinstance(step, Stepped):
            if isinstance(step, Terminal):
                return Done(result_of(config))
            call = config.term.value  # AtExtern
            args = eval_expr_list(call.args, config.env)
            assert args is not None
            return Ready(call.action, args, config)
        if remaining <= 0:
            return OutOfFuel(config)
        remaining -= 1
        applied = type(config.term) is App
        config = step.config
        if applied:
            # env before funs: in a loop that does not repeat, the
            # environment is what differs
            if config.term is saved.term and config.env == saved.env and config.funs == saved.funs:
                return Diverges(config)
            since += 1
            if since == power:
                saved, since, power = config, 0, power * 2


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
        event, config = apply_extern(anchor.config, value)
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
