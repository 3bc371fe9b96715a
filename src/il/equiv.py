"""Bounded (bi)simulation checking and a brute-force trace oracle.

The checker plays the equivalence game on anchors: run both sides
silently to a terminal or a pending system call, compare, and on a
matching pair of pending calls feed every probe value to both sides
and play on with one less depth.  Execution is deterministic between
system calls, so exploring a finite probe set to a finite depth
decides "no difference observable within k calls over these probes".
A ready pair at depth 0 is cut off before the pending call is compared
and counts as equivalent to depth 0; enumerate_traces truncates at the
same point, which keeps game verdicts and trace-set equality aligned.

The game memoizes each pair of configurations and depth under the
configurations' semantics.Keys: what their futures can read, not their
whole environments, so pairs that differ only in variables never read
again share an entry.  run_to_anchor's repeat check compares the same
keys, so a memo hit returns exactly what running the pair would.  The
game and enumerate_traces walk the tree of probe choices on explicit
stacks, so their depth is not bounded by Python's recursion limit.

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
    Anchor,
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
    Keys,
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


def _judge(a1: Anchor, a2: Anchor, depth: int) -> tuple[Optional[int], str]:
    """The kind of a game node from its two anchors and, for _DIST, the
    reason; None for matching pending calls that branch on the probes."""
    if isinstance(a1, OutOfFuel) or isinstance(a2, OutOfFuel):
        return _FUEL, ""
    if isinstance(a1, Diverges) and isinstance(a2, Diverges):
        return _EQ_FULL, ""
    if isinstance(a1, Diverges) or isinstance(a2, Diverges):
        side = "left" if isinstance(a1, Diverges) else "right"
        return _DIST, f"{side} side diverges silently while the other does not"
    if isinstance(a1, Done) and isinstance(a2, Done):
        if a1.result == a2.result:
            return _EQ_FULL, ""
        return _DIST, f"terminal results differ: {_val(a1.result)} vs {_val(a2.result)}"
    if isinstance(a1, Done) or isinstance(a2, Done):
        side = "left" if isinstance(a1, Done) else "right"
        return _DIST, f"{side} side terminates while the other is at a system call"
    assert isinstance(a1, Ready) and isinstance(a2, Ready)
    if depth == 0:
        return _EQ_DEPTH, ""
    if a1.action != a2.action or a1.args != a2.args:
        return _DIST, (
            f"pending system calls differ: {a1.action}({','.join(map(str, a1.args))})"
            f" vs {a2.action}({','.join(map(str, a2.args))})"
        )
    return None, ""


class _Frame:
    """A game node whose probes are being explored."""

    __slots__ = ("key", "left", "right", "depth", "probe", "worst", "event")

    def __init__(self, key: tuple, left: Config, right: Config, depth: int) -> None:
        self.key = key
        self.left = left  # the ready configurations
        self.right = right
        self.depth = depth  # of the successors
        self.probe = 0  # index of the probe being explored
        self.worst = _EQ_FULL  # over the probes explored so far
        self.event: Optional[Event] = None  # the left event of that probe


def _game(
    left: Config, right: Config, depth: int, probes: tuple[int, ...], fuel: int, sim: bool
) -> Verdict:
    """The game as a loop over an explicit stack of open nodes.  A
    distinguished node ends the whole game, so its event and probe
    prefix is read off the open frames once, and the memo holds only
    the kinds of finished nodes."""
    root_depth = depth
    keys = Keys()
    memo: dict[Optional[tuple], int] = {}
    frames: list[_Frame] = []
    while True:
        # Only the root has no open frame.  No other node has its depth,
        # so its key could never hit, and not keying it saves folding
        # the whole program when the game ends before any system call.
        key = (keys.config(left), keys.config(right), depth) if frames else None
        kind = memo.get(key)
        if kind is None:
            a1 = run_to_anchor(left, fuel, keys)
            if sim and isinstance(a1, Done) and a1.result is None:
                kind = _EQ_FULL  # left failed: similar to anything
            else:
                a2 = run_to_anchor(right, fuel, keys)
                kind, reason = _judge(a1, a2, depth)
                if kind == _DIST:
                    return Distinguished(
                        tuple(f.event for f in frames), tuple(probes[f.probe] for f in frames), reason
                    )
            if kind is None:
                frames.append(_Frame(key, a1.config, a2.config, depth - 1))
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
        depth = top.depth


def _val(v: Optional[int]) -> str:
    return "BOT" if v is None else str(v)


def check_bisim(
    left: Config, right: Config, depth: int, probes: Iterable[int], fuel: int
) -> Verdict:
    """Bounded bisimulation game between two configurations."""
    p = make_probes(probes)
    return _game(left, right, depth, p, fuel, False)


def check_sim(
    left: Config, right: Config, depth: int, probes: Iterable[int], fuel: int
) -> Verdict:
    """Bounded similarity: like check_bisim plus the error rule for the
    left side. Asymmetric by design."""
    p = make_probes(probes)
    return _game(left, right, depth, p, fuel, True)


def enumerate_traces(
    config: Config, depth: int, probes: Iterable[int], fuel: int
) -> frozenset[Trace]:
    """All traces over the probe set, cut at depth pending calls.
    Intended for small bounds; the game and this enumeration truncate
    identically, so trace-set equality matches the game's verdict on
    terminating programs.

    This is the oracle the game is checked against, so it keeps no
    memo.  It does share run_to_anchor's projected repeat check (Keys)
    with the game; tests/test_semantics.py checks that check against a
    full-equality reference.  It walks the tree
    of probe choices depth first on an explicit stack and keeps the
    current path's events in one list, oldest first."""
    p = make_probes(probes)
    out: set[Trace] = set()
    events: list[Event] = []
    stack: list[tuple[Config, int, Optional[Event]]] = [(config, depth, None)]
    while stack:
        c, d, event = stack.pop()
        if event is not None:
            del events[depth - d - 1 :]
            events.append(event)
        anchor = run_to_anchor(c, fuel)
        if isinstance(anchor, Done):
            out.add(Trace(tuple(events), Terminated(anchor.result)))
        elif isinstance(anchor, Diverges):
            out.add(Trace(tuple(events), Diverged()))
        elif isinstance(anchor, OutOfFuel) or d == 0:
            out.add(Trace(tuple(events), Cutoff()))
        else:
            for value in p:
                event, succ = apply_extern(anchor.config, value)
                stack.append((succ, d - 1, event))
    return frozenset(out)
