"""Bounded (bi)simulation checking and a brute-force trace oracle.

The checker plays the equivalence game on anchors: run both sides
silently to a terminal or a pending system call, compare, and on a
matching pair of pending calls feed every probe value to both sides
and recurse with one less depth.  Execution is deterministic between
system calls, so exploring a finite probe set to a finite depth
decides "no difference observable within k calls over these probes".
A ready pair at depth 0 is cut off before the pending call is compared
and counts as equivalent to depth 0; enumerate_traces truncates at the
same point, which keeps game verdicts and trace-set equality aligned.

Silent divergence is decided, not cut off: run_to_anchor returns a
Diverges anchor when a silent run repeats a configuration (see
il.semantics for why comparing post-application configurations is
enough).  A silent infinite loop is one observable behaviour, so two
diverging sides are equivalent, and a side that diverges while the
other terminates or waits at a system call is distinguished.  Only a
run that exhausts its fuel, such as a loop that never repeats a
configuration, leaves the game inconclusive.  enumerate_traces ends a
diverging run with Diverged and a fuel-exhausted one with Cutoff, so
trace-set equality keeps matching the game's verdict.

The similarity variant adds one asymmetric rule: when the left side
reaches a terminal configuration with an undefined result, the pair is
equivalent no matter what the right side does.  That is the sense in
which dead variable elimination may erase a crash but never invent
behavior.

Distinguished verdicts carry the shared event prefix, the probe
choices down the failing path (replayable with ListOracle), and a
description of the divergence.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .semantics import (
    Config,
    Diverged,
    Diverges,
    Done,
    Event,
    OutOfFuel,
    Ready,
    Trace,
    Terminated,
    Cutoff,
    apply_extern,
    run_to_anchor,
)
from .syntax import Term, constants_of, wrap


def make_probes(values: Iterable[int]) -> tuple[int, ...]:
    """Wrap to signed 64 bits like every other value, then deduplicate in
    deterministic order; must be non-empty."""
    out = tuple(dict.fromkeys(wrap(v) for v in values))
    if not out:
        raise ValueError("probe set must be non-empty")
    return out


def default_probes(*terms: Term) -> tuple[int, ...]:
    """{0, 1} plus every constant occurring in the given programs."""
    return tuple(sorted({0, 1} | constants_of(*terms)))


@dataclass(frozen=True)
class EquivalentToDepth:
    depth: int


@dataclass(frozen=True)
class Distinguished:
    events: tuple[Event, ...]  # shared prefix up to the divergence
    probes: tuple[int, ...]  # probe values chosen along the failing path
    reason: str


@dataclass(frozen=True)
class Exhausted:
    reason: str  # 'fuel' | 'depth'


Verdict = Union[EquivalentToDepth, Distinguished, Exhausted]

_EQ_FULL = 0  # every explored branch ended in matching terminals
_EQ_DEPTH = 1  # some branch was cut at depth 0
_FUEL = 2  # some branch ran out of fuel; inconclusive
_DIST = 3


def _env_key(env: dict) -> tuple:
    return tuple(sorted(env.items()))


class _Keys:
    """Structural keys for memoization, with identity caches for the
    pieces that persist across configurations.  The cache holds every
    group it has keyed, so no id() in it can be reused by a later
    object while the cache lives."""

    def __init__(self) -> None:
        self.groups: dict[int, tuple[tuple, tuple]] = {}

    def group(self, g: tuple) -> tuple:
        hit = self.groups.get(id(g))
        if hit is not None:
            return hit[1]
        k = tuple((name, id(clo.body), clo.params, _env_key(clo.env)) for name, clo in g)
        self.groups[id(g)] = (g, k)
        return k

    def config(self, c: Config) -> tuple:
        return (id(c.term), _env_key(c.env), tuple(self.group(g) for g in c.funs))


@dataclass(frozen=True)
class _Outcome:
    kind: int
    events: tuple[Event, ...] = ()
    choices: tuple[int, ...] = ()
    reason: str = ""


def _game(
    left: Config,
    right: Config,
    depth: int,
    probes: tuple[int, ...],
    fuel: int,
    sim: bool,
    memo: dict,
    keys: _Keys,
) -> _Outcome:
    key = (keys.config(left), keys.config(right), depth)
    hit = memo.get(key)
    if hit is not None:
        return hit

    a1 = run_to_anchor(left, fuel)
    if sim and isinstance(a1, Done) and a1.result is None:
        out = _Outcome(_EQ_FULL)  # left failed: similar to anything
        memo[key] = out
        return out
    a2 = run_to_anchor(right, fuel)

    if isinstance(a1, OutOfFuel) or isinstance(a2, OutOfFuel):
        out = _Outcome(_FUEL)
    elif isinstance(a1, Diverges) and isinstance(a2, Diverges):
        out = _Outcome(_EQ_FULL)
    elif isinstance(a1, Diverges) or isinstance(a2, Diverges):
        side = "left" if isinstance(a1, Diverges) else "right"
        out = _Outcome(_DIST, reason=f"{side} side diverges silently while the other does not")
    elif isinstance(a1, Done) and isinstance(a2, Done):
        if a1.result == a2.result:
            out = _Outcome(_EQ_FULL)
        else:
            out = _Outcome(_DIST, reason=f"terminal results differ: {_val(a1.result)} vs {_val(a2.result)}")
    elif isinstance(a1, Done) or isinstance(a2, Done):
        side = "left" if isinstance(a1, Done) else "right"
        out = _Outcome(_DIST, reason=f"{side} side terminates while the other is at a system call")
    else:
        assert isinstance(a1, Ready) and isinstance(a2, Ready)
        if depth == 0:
            out = _Outcome(_EQ_DEPTH)
        elif a1.action != a2.action or a1.args != a2.args:
            out = _Outcome(
                _DIST,
                reason=(
                    f"pending system calls differ: {a1.action}({','.join(map(str, a1.args))})"
                    f" vs {a2.action}({','.join(map(str, a2.args))})"
                ),
            )
        else:
            worst = _EQ_FULL
            out = None
            for value in probes:
                event, succ1 = apply_extern(a1.config, value)
                _, succ2 = apply_extern(a2.config, value)
                sub = _game(succ1, succ2, depth - 1, probes, fuel, sim, memo, keys)
                if sub.kind == _DIST:
                    out = _Outcome(_DIST, (event,) + sub.events, (value,) + sub.choices, sub.reason)
                    break
                worst = max(worst, sub.kind)
            if out is None:
                out = _Outcome(worst)

    memo[key] = out
    return out


def _val(v: Optional[int]) -> str:
    return "BOT" if v is None else str(v)


def _verdict(outcome: _Outcome, depth: int) -> Verdict:
    if outcome.kind == _DIST:
        return Distinguished(outcome.events, outcome.choices, outcome.reason)
    if outcome.kind == _FUEL:
        return Exhausted("fuel")
    return EquivalentToDepth(depth)


def check_bisim(
    left: Config, right: Config, depth: int, probes: Iterable[int], fuel: int
) -> Verdict:
    """Bounded bisimulation game between two configurations."""
    p = make_probes(probes)
    return _verdict(_game(left, right, depth, p, fuel, False, {}, _Keys()), depth)


def check_sim(
    left: Config, right: Config, depth: int, probes: Iterable[int], fuel: int
) -> Verdict:
    """Bounded similarity: like check_bisim plus the error rule for the
    left side. Asymmetric by design."""
    p = make_probes(probes)
    return _verdict(_game(left, right, depth, p, fuel, True, {}, _Keys()), depth)


def enumerate_traces(
    config: Config, depth: int, probes: Iterable[int], fuel: int
) -> frozenset[Trace]:
    """All traces over the probe set, cut at depth pending calls.
    Intended for small bounds; the game and this enumeration truncate
    identically, so trace-set equality matches the game's verdict on
    terminating programs."""
    p = make_probes(probes)

    def go(c: Config, d: int) -> frozenset[Trace]:
        anchor = run_to_anchor(c, fuel)
        if isinstance(anchor, Done):
            return frozenset((Trace((), Terminated(anchor.result)),))
        if isinstance(anchor, Diverges):
            return frozenset((Trace((), Diverged()),))
        if isinstance(anchor, OutOfFuel) or d == 0:
            return frozenset((Trace((), Cutoff()),))
        out = set()
        for value in p:
            event, succ = apply_extern(anchor.config, value)
            for tr in go(succ, d - 1):
                out.add(Trace((event,) + tr.events, tr.outcome))
        return frozenset(out)

    return go(config, depth)
