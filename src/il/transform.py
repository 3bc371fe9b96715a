"""Unreachable code elimination and dead variable elimination.

Both passes consume a checked annotation and produce a plain term.
uce folds conditionals that the empty-environment evaluation decides,
drops group members whose body bit is false, and elides a group that
loses all members.  dve removes pure lets whose variable is dead after
the binding (system-call lets always stay), folds decided conditionals
the same way, and filters parameter lists and the matching argument
positions through the callee's live set.  Both fold in reverse
pre-order.  uce folds every node and decides each conditional itself,
so a fault in that decision stays in the pass and no checker shares
it.  dve folds over the nodes check_tlive checks (tlive.derivable),
which leave out statically excluded branches: one may apply a function
bound nowhere, so dve must never enter one.  run_pass is the one
checked pipeline: it infers the pass's annotation, has the independent
checker accept or reject it, and transforms only an accepted annotation.
"""
from __future__ import annotations

from typing import Callable, Mapping, Sequence, TypeVar, Union

from .reach import Rejection, check_reach, infer_reach, static_branch
from .syntax import (
    Annotated,
    App,
    Cond,
    Fun,
    FunDef,
    Let,
    SysCall,
    Term,
)
from .tlive import check_tlive, derivable, infer_tlive

K = TypeVar("K")
V = TypeVar("V")


def filterby(pred: Callable[[K], bool], keys: Sequence[K], values: Sequence[V]) -> tuple[V, ...]:
    """Keep values[i] when pred(keys[i]); stops at the shorter list."""
    return tuple(v for k, v in zip(keys, values) if pred(k))


def filter_list(pred: Callable[[K], bool], xs: Sequence[K]) -> tuple[K, ...]:
    """filterby of a list against itself."""
    return filterby(pred, xs, xs)


def uce(at: Annotated) -> Term:
    """Unreachable code elimination over a reachability annotation."""
    nodes, facts = at.nodes, at.facts
    out: list = [None] * len(facts)
    for i in reversed(range(len(facts))):
        term, kids = nodes.terms[i], nodes.kids[i]
        if isinstance(term, Let):
            out[i] = Let(term.var, term.value, out[kids[0]])
        elif isinstance(term, Cond):
            sb, then, orelse = static_branch(term.cond), out[kids[0]], out[kids[1]]
            out[i] = Cond(term.cond, then, orelse) if sb is None else then if sb else orelse
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
    for i in reversed(derivable(nodes)):
        term, kids = nodes.terms[i], nodes.kids[i]
        if isinstance(term, Let):
            keep = isinstance(term.value, SysCall) or term.var in facts[kids[0]]
            out[i] = Let(term.var, term.value, out[kids[0]]) if keep else out[kids[0]]
        elif isinstance(term, Cond):  # an excluded branch has no output
            then, orelse = out[kids[0]], out[kids[1]]
            out[i] = orelse if then is None else then if orelse is None else Cond(term.cond, then, orelse)
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
