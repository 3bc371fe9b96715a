"""True liveness: per-node variable sets, inference, and checking.

The fact at a node is the set of variables whose values the rest of
the run may depend on (live before the node).  Truly live means the
analysis tracks use through calls: an argument is only live if the
corresponding parameter is live in the callee, which is what lets dead
parameters and their argument expressions disappear together.

infer_tlive solves the sets with a worklist (Kildall) over regions: the
root and each member body, less the member bodies nested in it.  A
sweep folds the transfer rule over a region's nodes and writes their
facts.  Every region is swept once, and again when a member set it read
grows; the region that starts latest in pre-order goes first, so a
group's bodies settle before the region that holds the group.  Sets
only grow from empty, so the result is the least solution.
check_tlive verifies an annotation against the judgment rules; a
statically excluded branch of a conditional needs no derivation at all
and is skipped, while the inference still annotates it with its own
least solution, which contributes nothing to the node's set.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Mapping, Optional, Sequence

from .reach import Rejection, check_shape, static_branch
from .syntax import (
    Annotated,
    App,
    Cond,
    Exp,
    Fun,
    Let,
    Nodes,
    SysCall,
    Term,
    free_vars,
    free_vars_list,
)

ParamCtx = Mapping[str, tuple[str, ...]]
LiveCtx = Mapping[str, frozenset[str]]

_EMPTY: frozenset[str] = frozenset()


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
    nodes = Nodes(t)
    terms, parent, kids, callee = nodes.terms, nodes.parent, nodes.kids, nodes.callee
    regions: dict[int, list[int]] = {0: [0]}  # region start -> its nodes in pre-order
    region = [0] * len(terms)
    for i in range(1, len(terms)):
        up = parent[i]
        if isinstance(terms[up], Fun) and i != kids[up][-1]:
            region[i] = i
            regions[i] = []
        else:
            region[i] = region[up]
        regions[region[i]].append(i)
    facts = [_EMPTY] * len(terms)
    users: dict[int, set[int]] = {r: set() for r in regions}  # member body -> regions that read its set
    queue = [-r for r in regions]
    heapify(queue)
    queued = set(regions)
    while queue:
        r = -heappop(queue)
        queued.discard(r)
        before = facts[r]
        for i in reversed(regions[r]):
            term, hit = terms[i], callee[i]
            if isinstance(term, Fun):  # reads its members' sets
                for body in kids[i][:-1]:
                    users[body].add(r)
            elif hit is not None:  # reads its callee's set
                users[hit[0]].add(r)
                hit = (hit[1].params, facts[hit[0]])
            facts[i] = _fact(term, [facts[k] for k in kids[i]], hit)
        if facts[r] != before:
            for u in users[r] - queued:
                heappush(queue, -u)
                queued.add(u)
    return Annotated(nodes, tuple(facts))


def derivable(nodes: Nodes) -> list[int]:
    """Node indices in pre-order, less the statically excluded branches
    of conditionals: those need no derivation, and dve builds its
    output from exactly these nodes."""
    out, stack = [], [0]
    while stack:
        i = stack.pop()
        out.append(i)
        term, kids = nodes.terms[i], nodes.kids[i]
        sb = static_branch(term.cond) if isinstance(term, Cond) else None
        stack += reversed(kids) if sb is None else (kids[0] if sb else kids[1],)
    return out


def check_tlive(zeta: ParamCtx, lam: LiveCtx, at: Annotated) -> Optional[Rejection]:
    """Verify a true-liveness annotation; None means accepted.  zeta and
    lam give the parameters and live sets of functions the term applies
    but does not define."""
    rejection = check_shape(at, frozenset)
    if rejection is not None:
        return rejection
    nodes, facts = at.nodes, at.facts
    for i in derivable(nodes):
        term, kids = nodes.terms[i], nodes.kids[i]
        live: frozenset[str] = facts[i]
        bad = None
        if isinstance(term, Let):
            after: frozenset[str] = facts[kids[0]]
            if not (after - {term.var}) <= live:
                missing = sorted((after - {term.var}) - live)
                bad = ("TLive-Op" if not isinstance(term.value, SysCall) else "TLive-Call",
                       f"continuation needs {missing} beyond this node's set")
            elif isinstance(term.value, SysCall):
                if not free_vars_list(term.value.args) <= live:
                    missing = sorted(free_vars_list(term.value.args) - live)
                    bad = "TLive-Call", f"call arguments read {missing} outside this node's set"
            elif term.var in after and not free_vars(term.value) <= live:
                missing = sorted(free_vars(term.value) - live)
                bad = "TLive-Op", f"bound expression reads {missing} outside this node's set"
        elif isinstance(term, Exp):
            if not free_vars(term.expr) <= live:
                missing = sorted(free_vars(term.expr) - live)
                bad = "TLive-Exp", f"expression reads {missing} outside this node's set"
        elif isinstance(term, App):
            hit = nodes.callee[i]
            if hit is None:
                params, callee_live = zeta.get(term.fun), lam.get(term.fun)
            else:
                params, callee_live = hit[1].params, facts[hit[0]]
            if params is None or callee_live is None:
                bad = "TLive-App", f"application of unknown function {term.fun!r}"
            elif len(params) != len(term.args):
                bad = "TLive-App", f"arity mismatch: {len(term.args)} arguments for {len(params)} parameters"
            else:
                for x, e in zip(params, term.args):
                    if x in callee_live and not free_vars(e) <= live:
                        missing = sorted(free_vars(e) - live)
                        bad = "TLive-App", f"argument for live parameter {x!r} reads {missing} outside this node's set"
                        break
        elif isinstance(term, Cond):
            sb = static_branch(term.cond)
            then, orelse = facts[kids[0]], facts[kids[1]]
            if sb is None and not free_vars(term.cond) <= live:
                missing = sorted(free_vars(term.cond) - live)
                bad = "TLive-Cond", f"condition reads {missing} outside this node's set"
            elif sb is not False and not then <= live:
                bad = "TLive-Cond", f"then-branch needs {sorted(then - live)} beyond this node's set"
            elif sb is not True and not orelse <= live:
                bad = "TLive-Cond", f"else-branch needs {sorted(orelse - live)} beyond this node's set"
        else:
            assert isinstance(term, Fun)
            cont = facts[kids[-1]]
            if not cont <= live:
                bad = "TLive-Fun", f"continuation needs {sorted(cont - live)} beyond this node's set"
            else:
                for d, k in zip(term.defs, kids):
                    escaped = facts[k] - set(d.params)
                    if not escaped <= live:
                        missing = sorted(escaped - live)
                        bad = "TLive-Fun", f"body of {d.name!r} captures {missing} outside this node's set"
                        break
        if bad is not None:
            return Rejection(nodes.path(i), *bad)
    return None
