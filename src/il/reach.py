"""Reachability: per-node boolean annotations, inference, and checking.

A node's bit says whether execution can reach it.  Conditionals whose
condition evaluates in the empty environment propagate reachability
only into the branch that can actually be taken; a function body is
reachable only if some application of it sits in reachable code.  The
checker verifies an annotation against the judgment rules and reports
the first violated premise in pre-order (at the root, rule "Shape" when
the fact count differs from the node count and rule "Reach-Root" when
the root, where execution starts, is not marked reachable); the
inference computes the annotation the checker accepts, marking excluded
branches and unused function bodies false throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .syntax import (
    Annotated,
    App,
    Cond,
    Expr,
    Fun,
    Let,
    Nodes,
    Term,
    eval_expr,
    truthy,
)

ReachCtx = Mapping[str, bool]


def static_branch(e: Expr) -> Optional[bool]:
    """Decide a conditional statically: evaluate under the empty
    environment; None when that is undefined."""
    v = eval_expr(e, {})
    return None if v is None else truthy(v)


@dataclass(frozen=True)
class Rejection:
    """First violated premise: node path (child indices from the root),
    the rule whose premise failed, and a short description."""

    path: tuple[int, ...]
    rule: str
    detail: str

    def __str__(self) -> str:
        where = ".".join(map(str, self.path)) if self.path else "<root>"
        return f"at {where}: {self.rule}: {self.detail}"


def infer_reach(t: Term) -> Annotated:
    """Annotate t with reachability bits, root true.

    A worklist of reachable regions: the root, and each group body once
    an application in reachable code first names it.  Sweeping a region
    marks every node it visits true; a sweep enters only the branches a
    conditional can take and only a group's continuation, so a node is
    reachable exactly when some region's sweep visits it.
    """
    nodes = Nodes(t)
    terms, kids, callee = nodes.terms, nodes.kids, nodes.callee
    facts = [False] * len(terms)
    regions = [0]
    while regions:
        stack = [regions.pop()]
        while stack:
            i = stack.pop()
            facts[i] = True
            term = terms[i]
            if isinstance(term, Cond):
                sb = static_branch(term.cond)
                if sb is not False:
                    stack.append(kids[i][0])
                if sb is not True:
                    stack.append(kids[i][1])
            elif isinstance(term, (Let, Fun)):
                stack.append(kids[i][-1])
            elif callee[i] is not None:
                body = callee[i][0]
                if not facts[body]:
                    facts[body] = True
                    regions.append(body)
    return Annotated(nodes, tuple(facts))


def check_reach(ctx: ReachCtx, at: Annotated) -> Optional[Rejection]:
    """Verify a reachability annotation; None means accepted.  ctx gives
    the body bits of functions the term applies but does not define."""
    nodes, facts = at.nodes, at.facts
    if len(facts) != len(nodes.terms):
        return Rejection((), "Shape", f"{len(facts)} facts for a term with {len(nodes.terms)} nodes")
    if not facts[0]:
        return Rejection((), "Reach-Root", "the root is not marked reachable")
    for i, term in enumerate(nodes.terms):
        bit = facts[i]
        kids = nodes.kids[i]
        bad = None
        if isinstance(term, Let):
            if facts[kids[0]] != bit:
                bad = "Reach-Let", f"continuation bit {facts[kids[0]]} differs from node bit {bit}"
        elif isinstance(term, App):
            hit = nodes.callee[i]
            if bit and not (ctx.get(term.fun, False) if hit is None else facts[hit[0]]):
                bad = "Reach-App", f"reachable application of {term.fun!r} whose body is not marked reachable"
        elif isinstance(term, Cond):
            sb = static_branch(term.cond)
            then, orelse = facts[kids[0]], facts[kids[1]]
            if sb is not False and then != bit:
                bad = "Reach-Cond", f"then-branch bit {then} differs from node bit {bit}"
            elif sb is not True and orelse != bit:
                bad = "Reach-Cond", f"else-branch bit {orelse} differs from node bit {bit}"
        elif isinstance(term, Fun):
            if facts[kids[-1]] != bit:
                bad = "Reach-Fun", f"continuation bit {facts[kids[-1]]} differs from node bit {bit}"
        if bad is not None:
            return Rejection(nodes.path(i), *bad)
    return None
