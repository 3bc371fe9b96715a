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
configurations' keys (semantics.config_key): what their futures can
read, not their whole environments, so pairs that differ only in
variables never read again, or named only in a branch that a closed
condition decides against, share an entry.  The keys are built from
facts kept on the terms and closures they describe, so a game folds
only terms no earlier run or game has keyed.  run_to_anchor's repeat
check compares keys of the same kind, at a member body over fewer
variables (semantics.loop_reads), so configurations with equal keys
run to the same anchors, and a memo hit returns exactly what running
the pair would.

A result that neither side's continuation reads is not in either
successor's key, so every probe gives the same pair of keys, and every
probe after the first would only hit the first one's entry.  The game
therefore feeds only the first probe to such a pair of pending calls;
the verdict and the witness are the ones exploring every probe gives.
A continuation reads the result where the result is in its read set
(syntax.term_fact), the fact its key is built from: a result named
only in a branch that a closed condition decides against is not read.
A node is keyed only while some open node explores more than one
probe: below nodes that explore one probe each, the tree is a path
whose depth falls at every node, so no key can come back.  That holds
for every game with one probe, and for any probe set on a loop that
never reads its results.  enumerate_traces is the oracle the game is
checked against, so it still branches on every probe and keeps no
memo.  The game and enumerate_traces walk the tree of probe choices on
explicit stacks, so their depth is not bounded by Python's recursion
limit.

Silent divergence is decided, not cut off: run_to_anchor returns a
Diverges anchor when a silent run repeats what it observes (see
il.semantics for why comparing post-application configurations, by
what their group can observe, is enough).  A silent infinite loop is
one observable behaviour, so two diverging sides are equivalent, and a
side that diverges while the other terminates or waits at a system
call is distinguished.  Only a run that exhausts its fuel, such as a
loop that observes a counter, leaves the game inconclusive.
enumerate_traces ends a diverging run with Diverged and a
fuel-exhausted one with Cutoff, so trace-set equality keeps matching
the game's verdict.

The similarity variant adds one asymmetric rule: when the left side
reaches a terminal configuration with an undefined result, the pair is
equivalent no matter what the right side does.  That is the sense in
which dead variable elimination may erase a crash but never invent
behavior.

Distinguished verdicts carry the shared event prefix, the probe
choices down the failing path (the call results that replay it, in
order), and a description of the divergence.
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
    apply_extern,
    config_key,
    run_to_anchor,
)
from .syntax import Term, term_fact, term_reads, wrap


def make_probes(values: Iterable[int]) -> tuple[int, ...]:
    """Wrap to signed 64 bits like every other value, then deduplicate in
    deterministic order; must be non-empty."""
    out = tuple(dict.fromkeys(wrap(v) for v in values))
    if not out:
        raise ValueError("probe set must be non-empty")
    return out


def default_probes(*terms: Term) -> tuple[int, ...]:
    """{0, 1} plus every constant occurring in the given programs."""
    return tuple(sorted({0, 1}.union(*(term_reads(t)[1] for t in terms))))


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
    reason: str  # always 'fuel': some branch ran out of fuel


Verdict = Union[EquivalentToDepth, Distinguished, Exhausted]

_EQ = 0  # every explored branch ended in matching anchors or was cut at depth 0
_FUEL = 1  # some branch ran out of fuel; inconclusive
_DIST = 2


def _judge(a1: Anchor, a2: Anchor, depth: int) -> tuple[Optional[int], str]:
    """The kind of a game node from its two anchors and, for _DIST, the
    reason; None for matching pending calls that branch on the probes."""
    c1, c2 = a1.__class__, a2.__class__
    if c1 is Ready and c2 is Ready:
        if depth == 0:
            return _EQ, ""
        if a1.action != a2.action or a1.args != a2.args:
            return _DIST, (
                f"pending system calls differ: {a1.action}({','.join(map(str, a1.args))})"
                f" vs {a2.action}({','.join(map(str, a2.args))})"
            )
        return None, ""
    if c1 is OutOfFuel or c2 is OutOfFuel:
        return _FUEL, ""
    if c1 is Diverges and c2 is Diverges:
        return _EQ, ""
    if c1 is Diverges or c2 is Diverges:
        side = "left" if c1 is Diverges else "right"
        return _DIST, f"{side} side diverges silently while the other does not"
    if c1 is Done and c2 is Done:
        if a1.result == a2.result:
            return _EQ, ""
        return _DIST, f"terminal results differ: {_val(a1.result)} vs {_val(a2.result)}"
    side = "left" if c1 is Done else "right"
    return _DIST, f"{side} side terminates while the other is at a system call"


class _Frame:
    """A game node whose probes are being explored."""

    __slots__ = ("key", "left", "right", "depth", "last", "probe", "worst", "event")

    def __init__(self, key: Optional[tuple], left: Ready, right: Ready, depth: int, last: int) -> None:
        self.key = key
        self.left: Optional[Ready] = left  # the two anchors at matching pending calls,
        self.right: Optional[Ready] = right  # dropped once the last probe is applied
        self.depth = depth  # of the successors
        self.last = last  # index of the last probe to explore: 0 when neither side reads the result
        self.probe = 0  # index of the probe being explored
        self.worst = _EQ  # over the probes explored so far
        self.event: Optional[Event] = None  # the left event of that probe


def _game(
    left: Config, right: Config, depth: int, probes: tuple[int, ...], fuel: int, sim: bool
) -> Verdict:
    """The game as a loop over an explicit stack of open nodes.  A
    distinguished node ends the whole game, so its event and probe
    prefix is read off the open frames once, and the memo holds only
    the kinds of finished nodes."""
    root_depth = depth
    memo: dict[Optional[tuple], int] = {}
    frames: list[_Frame] = []
    branching = 0  # open frames with more than one probe to explore
    while True:
        # While no open frame branches, the tree is a path whose depth
        # falls at every node, so no key can come back (the root, with
        # no open frame, included).  The first finished node on a path
        # closes every frame, so the None entry goes unread.
        key = (config_key(left), config_key(right), depth) if branching else None
        kind = memo.get(key)
        if kind is None:
            a1 = run_to_anchor(left, fuel)
            if sim and a1.__class__ is Done and a1.result is None:
                kind = _EQ  # left failed: similar to anything
            else:
                a2 = run_to_anchor(right, fuel)
                kind, reason = _judge(a1, a2, depth)
                if kind == _DIST:
                    return Distinguished(
                        tuple(f.event for f in frames), tuple(probes[f.probe] for f in frames), reason
                    )
            if kind is None:
                # A result neither side reads is not in its successor's
                # key, so every probe after the first would hit the
                # first one's memo entry with the same kind.
                t1, t2 = a1.config.term, a2.config.term
                reads = t1.var in term_fact(t1.body)[1] or t2.var in term_fact(t2.body)[1]
                last = len(probes) - 1 if reads else 0
                frames.append(_Frame(key, a1, a2, depth - 1, last))
                branching += last > 0
            else:
                memo[key] = kind
        if kind is not None:
            # close every frame whose last probe this node finished
            while frames:
                top = frames[-1]
                top.worst = max(top.worst, kind)
                top.probe += 1
                if top.probe <= top.last:
                    break
                frames.pop()
                branching -= top.last > 0
                kind = memo[top.key] = top.worst
            else:
                return Exhausted("fuel") if kind == _FUEL else EquivalentToDepth(root_depth)
        top = frames[-1]
        value = probes[top.probe]
        top.event, left = apply_extern(top.left, value)
        _, right = apply_extern(top.right, value)
        if top.probe == top.last:
            top.left = top.right = None  # spent; the event stays for the witness
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
    memo.  It does share run_to_anchor's projected repeat check
    (config_key) with the game; tests/test_semantics.py checks that
    check against a full-equality reference.  It walks the tree of
    probe choices depth first on an explicit stack and keeps the
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
        cls = anchor.__class__
        if cls is Ready and d:
            for value in p:
                event, succ = apply_extern(anchor, value)
                stack.append((succ, d - 1, event))
        elif cls is Done:
            out.add(Trace(tuple(events), Terminated(anchor.result)))
        elif cls is Diverges:
            out.add(Trace(tuple(events), Diverged()))
        else:
            out.add(Trace(tuple(events), Cutoff()))
    return frozenset(out)
