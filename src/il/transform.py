"""Unreachable code elimination and dead variable elimination.

Both passes consume a checked annotation and produce a plain term.
uce folds conditionals that the empty-environment evaluation decides,
drops group members whose body bit is false, and elides a group that
loses all members.  dve removes pure lets whose variable is dead after
the binding (system-call lets always stay), folds decided conditionals
the same way, and filters parameter lists and the matching argument
positions through the callee's live set.  Both fold in reverse
pre-order over the nodes their output is built from, which leaves out
statically excluded branches: check_tlive skips them, and one may apply
a function bound nowhere, so dve must never enter one.  run_pass
is the one checked pipeline: it infers the pass's annotation, has the
independent checker accept or reject it, and transforms only an
accepted annotation.
"""
from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence, TypeVar, Union

from .reach import Rejection, check_reach, infer_reach, static_branch
from .syntax import (
    Annotated,
    App,
    Cond,
    Fun,
    FunDef,
    Let,
    Nodes,
    SysCall,
    Term,
)
from .tlive import check_tlive, infer_tlive

K = TypeVar("K")
V = TypeVar("V")


def filterby(pred: Callable[[K], bool], keys: Sequence[K], values: Sequence[V]) -> tuple[V, ...]:
    """Keep values[i] when pred(keys[i]); stops at the shorter list."""
    return tuple(v for k, v in zip(keys, values) if pred(k))


def filter_list(pred: Callable[[K], bool], xs: Sequence[K]) -> tuple[K, ...]:
    """filterby of a list against itself."""
    return filterby(pred, xs, xs)


def _sources(nodes: Nodes, keep_member: Callable[[int], bool]) -> list[int]:
    """Pre-order indices of the nodes a pass builds its output from: a
    decided conditional's taken branch only, and of a group's members
    only the bodies keep_member accepts."""
    out, stack = [], [0]
    while stack:
        i = stack.pop()
        out.append(i)
        term, kids = nodes.terms[i], nodes.kids[i]
        if isinstance(term, Cond):
            sb = static_branch(term.cond)
            kids = kids if sb is None else (kids[0] if sb else kids[1],)
        elif isinstance(term, Fun):
            kids = [k for k in kids[:-1] if keep_member(k)] + [kids[-1]]
        stack += reversed(kids)
    return out


def _fold_cond(term: Cond, then: Optional[Term], orelse: Optional[Term]) -> Term:
    """A conditional's output from its branches' outputs.  A decided
    conditional's other branch is no source, so it has no output."""
    if then is None:
        return orelse
    return then if orelse is None else Cond(term.cond, then, orelse)


def uce(at: Annotated) -> Term:
    """Unreachable code elimination over a reachability annotation."""
    nodes, facts = at.nodes, at.facts
    out: list = [None] * len(facts)
    for i in reversed(_sources(nodes, facts.__getitem__)):
        term, kids = nodes.terms[i], nodes.kids[i]
        if isinstance(term, Let):
            out[i] = Let(term.var, term.value, out[kids[0]])
        elif isinstance(term, Cond):
            out[i] = _fold_cond(term, out[kids[0]], out[kids[1]])
        elif isinstance(term, Fun):
            kept = tuple(FunDef(d.name, d.params, out[k]) for d, k in zip(term.defs, kids) if facts[k])
            out[i] = Fun(kept, out[kids[-1]]) if kept else out[kids[-1]]
        else:
            out[i] = term  # applications and expressions unchanged
    return out[0]


def dve(zeta: Mapping[str, tuple[str, ...]], lam: Mapping[str, frozenset[str]], at: Annotated) -> Term:
    """Dead variable elimination over a true-liveness annotation.

    zeta and lam supply parameter lists and live sets for functions
    the term applies but does not define.  An application of a function
    bound in neither is a precondition violation.
    """
    nodes, facts = at.nodes, at.facts
    out: list = [None] * len(facts)
    for i in reversed(_sources(nodes, lambda body: True)):
        term, kids = nodes.terms[i], nodes.kids[i]
        if isinstance(term, Let):
            keep = isinstance(term.value, SysCall) or term.var in facts[kids[0]]
            out[i] = Let(term.var, term.value, out[kids[0]]) if keep else out[kids[0]]
        elif isinstance(term, Cond):
            out[i] = _fold_cond(term, out[kids[0]], out[kids[1]])
        elif isinstance(term, App):
            hit = nodes.callee[i]
            if hit is None:
                params, live = zeta.get(term.fun), lam.get(term.fun)
            else:
                params, live = hit[1].params, facts[hit[0]]
            if params is None or live is None:
                raise ValueError(f"application of unknown function {term.fun!r}")
            out[i] = App(term.fun, filterby(lambda x: x in live, params, term.args))
        elif isinstance(term, Fun):
            defs = tuple(
                FunDef(d.name, filter_list(lambda x: x in facts[k], d.params), out[k])
                for d, k in zip(term.defs, kids)
            )
            out[i] = Fun(defs, out[kids[-1]])
        else:
            out[i] = term  # expressions unchanged
    return out[0]


def run_pass(name: str, t: Term) -> Union[tuple[Annotated, Term], Rejection]:
    """Analyze, check and transform t with pass "uce" (reachability) or
    "dve" (true liveness).  Returns the accepted annotation with the
    output term, or the checker's rejection; nothing is transformed
    unless the checker accepts."""
    if name == "uce":
        ann = infer_reach(t)
        rej = check_reach({}, ann)
        return rej if rej is not None else (ann, uce(ann))
    if name == "dve":
        ann = infer_tlive(t)
        rej = check_tlive({}, {}, ann)
        return rej if rej is not None else (ann, dve({}, {}, ann))
    raise ValueError(f"unknown pass {name!r}")
