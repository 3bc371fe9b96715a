"""True liveness: per-node variable sets, inference, and checking.

The fact at a node is the set of variables whose values the rest of
the run may depend on (live before the node).  Truly live means the
analysis tracks use through calls: an argument is only live if the
corresponding parameter is live in the callee, which is what lets dead
parameters and their argument expressions disappear together.

infer_tlive solves the member-body sets with a worklist (Kildall): a
body is swept when its group is first reached and again, FIFO, when a
set it read grows; the root, whose set nothing reads, is swept once.
Sets only grow from empty, so the result is the least solution.
check_tlive verifies an annotation against the judgment rules; a
statically excluded branch of a conditional needs no derivation at all
and is skipped, while the inference still annotates it with its own
least solution, which contributes nothing to the node's set.
"""
from __future__ import annotations

from collections import deque
from typing import Mapping, Optional, Sequence

from .reach import Rejection, shape_rejection, static_branch
from .syntax import (
    Annotated,
    App,
    Cond,
    Exp,
    Fun,
    Let,
    SysCall,
    Term,
    free_vars,
    free_vars_list,
)

ParamCtx = Mapping[str, tuple[str, ...]]
LiveCtx = Mapping[str, frozenset[str]]

_EMPTY: frozenset[str] = frozenset()


def _group_live_context(lam: dict, names: list[str], sets: list[frozenset[str]]) -> dict:
    """Live-set context for descending into a function group."""
    out = dict(lam)
    out.update(zip(names, sets))
    return out


def _fact(term: Term, kids: Sequence[frozenset[str]], callee: Optional[tuple]) -> frozenset[str]:
    """The transfer rule: a node's set from its children's (member bodies,
    then the continuation) and an application's callee (params, set);
    an unbound callee (None) is underivable anyway, so needs nothing."""
    if isinstance(term, Exp):
        return free_vars(term.expr)
    if isinstance(term, Let):
        fact = kids[0] - {term.var}
        if isinstance(term.value, SysCall):
            return fact | free_vars_list(term.value.args)
        return fact | free_vars(term.value) if term.var in kids[0] else fact
    if isinstance(term, App):
        params, live = callee or ((), _EMPTY)
        fact = _EMPTY
        for x, e in zip(params, term.args):
            if x in live:
                fact |= free_vars(e)
        return fact
    if isinstance(term, Cond):
        sb = static_branch(term.cond)
        fact = free_vars(term.cond) if sb is None else _EMPTY
        if sb is not False:
            fact |= kids[0]
        return fact | kids[1] if sb is not True else fact
    assert isinstance(term, Fun)
    fact = kids[-1]
    for d, live in zip(term.defs, kids):
        fact |= live - set(d.params)
    return fact


def infer_tlive(t: Term) -> Annotated:
    """Annotate t with its least true-liveness solution."""
    live: dict[tuple, frozenset[str]] = {}
    users: dict[tuple, set[tuple]] = {}
    scopes: dict[tuple, dict[str, tuple]] = {}
    members: dict[tuple, Term] = {}
    queue: deque[tuple] = deque()
    queued: set[tuple] = set()

    def read(key: tuple, region: tuple) -> frozenset[str]:
        users[key].add(region)
        return live[key]

    def grow(key: tuple, fact: frozenset[str]) -> None:
        if fact != live[key]:
            live[key] = fact
            fresh = users[key] - queued - {()}  # () is the root: nothing reads its set
            queue.extend(fresh)
            queued.update(fresh)

    def sweep(term: Term, path: tuple, scope: dict, region: tuple) -> frozenset[str]:
        """Fold _fact over a region, reading nested member sets as their user."""
        if isinstance(term, Let):
            return _fact(term, (sweep(term.body, path + (0,), scope, region),), None)
        if isinstance(term, App):
            bound = scope.get(term.fun)
            return _fact(term, (), None if bound is None else (bound[0], read(bound[1], region)))
        if isinstance(term, Cond):
            then = sweep(term.then, path + (0,), scope, region)
            return _fact(term, (then, sweep(term.orelse, path + (1,), scope, region)), None)
        if isinstance(term, Fun):
            keys = [path + (g,) for g in range(len(term.defs))]
            if path not in scopes:
                # a scope maps a name to (parameters, member path)
                inner = scopes[path] = {**scope, **{d.name: (d.params, key) for d, key in zip(term.defs, keys)}}
                for d, key in zip(term.defs, keys):
                    live[key], users[key], members[key] = _EMPTY, set(), d.body
                for d, key in zip(term.defs, keys):
                    grow(key, sweep(d.body, key, inner, key))
            kids = [read(key, region) for key in keys]
            kids.append(sweep(term.cont, path + (len(keys),), scopes[path], region))
            return _fact(term, kids, None)
        return _fact(term, (), None)

    sweep(t, (), {}, ())
    while queue:
        key = queue.popleft()
        queued.discard(key)
        grow(key, sweep(members[key], key, scopes[key[:-1]], key))

    def build(term: Term, path: tuple, scope: dict, lam: dict) -> Annotated:
        if isinstance(term, Let):
            kids: tuple = (build(term.body, path + (0,), scope, lam),)
            return Annotated(term, _fact(term, (kids[0].fact,), None), kids)
        if isinstance(term, App):
            known = term.fun in scope and term.fun in lam
            return Annotated(term, _fact(term, (), (scope[term.fun][0], lam[term.fun]) if known else None), ())
        if isinstance(term, Cond):
            kids = (build(term.then, path + (0,), scope, lam), build(term.orelse, path + (1,), scope, lam))
            return Annotated(term, _fact(term, (kids[0].fact, kids[1].fact), None), kids)
        if isinstance(term, Fun):
            inner, n = scopes[path], len(term.defs)
            lam = _group_live_context(lam, [d.name for d in term.defs], [live[path + (g,)] for g in range(n)])
            built = []
            for g, d in enumerate(term.defs):
                built.append(build(d.body, path + (g,), inner, lam))
            built.append(build(term.cont, path + (n,), inner, lam))
            return Annotated(term, _fact(term, [k.fact for k in built], None), tuple(built))
        return Annotated(term, _fact(term, (), None), ())

    return build(t, (), {}, {})


def check_tlive(zeta: ParamCtx, lam: LiveCtx, at: Annotated) -> Optional[Rejection]:
    """Verify a true-liveness annotation; None means accepted."""

    def walk(node: Annotated, zeta: Mapping, lam: Mapping, path: tuple) -> Optional[Rejection]:
        term = node.term
        live: frozenset[str] = node.fact
        bad = shape_rejection(node, path)
        if bad is not None:
            return bad
        if isinstance(term, Let):
            body = node.children[0]
            after: frozenset[str] = body.fact
            if not (after - {term.var}) <= live:
                missing = sorted((after - {term.var}) - live)
                return Rejection(path, "TLive-Op" if not isinstance(term.value, SysCall) else "TLive-Call",
                                 f"continuation needs {missing} beyond this node's set")
            if isinstance(term.value, SysCall):
                if not free_vars_list(term.value.args) <= live:
                    missing = sorted(free_vars_list(term.value.args) - live)
                    return Rejection(path, "TLive-Call", f"call arguments read {missing} outside this node's set")
            else:
                if term.var in after and not free_vars(term.value) <= live:
                    missing = sorted(free_vars(term.value) - live)
                    return Rejection(path, "TLive-Op", f"bound expression reads {missing} outside this node's set")
            return walk(body, zeta, lam, path + (0,))
        if isinstance(term, Exp):
            if not free_vars(term.expr) <= live:
                missing = sorted(free_vars(term.expr) - live)
                return Rejection(path, "TLive-Exp", f"expression reads {missing} outside this node's set")
            return None
        if isinstance(term, App):
            params = zeta.get(term.fun)
            callee_live = lam.get(term.fun)
            if params is None or callee_live is None:
                return Rejection(path, "TLive-App", f"application of unknown function {term.fun!r}")
            if len(params) != len(term.args):
                return Rejection(path, "TLive-App",
                                 f"arity mismatch: {len(term.args)} arguments for {len(params)} parameters")
            for x, e in zip(params, term.args):
                if x in callee_live and not free_vars(e) <= live:
                    missing = sorted(free_vars(e) - live)
                    return Rejection(path, "TLive-App",
                                     f"argument for live parameter {x!r} reads {missing} outside this node's set")
            return None
        if isinstance(term, Cond):
            sb = static_branch(term.cond)
            then, orelse = node.children
            if sb is None and not free_vars(term.cond) <= live:
                missing = sorted(free_vars(term.cond) - live)
                return Rejection(path, "TLive-Cond", f"condition reads {missing} outside this node's set")
            if sb is not False:
                if not then.fact <= live:
                    missing = sorted(then.fact - live)
                    return Rejection(path, "TLive-Cond", f"then-branch needs {missing} beyond this node's set")
                bad = walk(then, zeta, lam, path + (0,))
                if bad is not None:
                    return bad
            if sb is not True:
                if not orelse.fact <= live:
                    missing = sorted(orelse.fact - live)
                    return Rejection(path, "TLive-Cond", f"else-branch needs {missing} beyond this node's set")
                bad = walk(orelse, zeta, lam, path + (1,))
                if bad is not None:
                    return bad
            return None
        assert isinstance(term, Fun)
        n = len(term.defs)
        cont = node.children[n]
        zeta2 = dict(zeta)
        zeta2.update((d.name, d.params) for d in term.defs)
        lam2 = dict(lam)
        lam2.update((d.name, body.fact) for d, body in zip(term.defs, node.children))
        if not cont.fact <= live:
            missing = sorted(cont.fact - live)
            return Rejection(path, "TLive-Fun", f"continuation needs {missing} beyond this node's set")
        for d, body in zip(term.defs, node.children):
            escaped = body.fact - set(d.params)
            if not escaped <= live:
                missing = sorted(escaped - live)
                return Rejection(path, "TLive-Fun",
                                 f"body of {d.name!r} captures {missing} outside this node's set")
        for g, body in enumerate(node.children[:n]):
            bad = walk(body, zeta2, lam2, path + (g,))
            if bad is not None:
                return bad
        return walk(cont, zeta2, lam2, path + (n,))

    return walk(at, dict(zeta), dict(lam), ())
