"""Unreachable code elimination and dead variable elimination.

Both passes consume a checked annotation and produce a plain term.
uce folds conditionals that the empty-environment evaluation decides,
drops group members whose body bit is false, and elides a group that
loses all members.  dve removes pure lets whose variable is dead after
the binding (system-call lets always stay), folds decided conditionals
the same way, and filters parameter lists and the matching argument
positions through the callee's live set.  dve needs its own fold:
check_tlive skips a statically excluded branch, which may apply a
function bound nowhere, so dve must never descend into one.  run_pass
is the one checked pipeline: it infers the pass's annotation, has the
independent checker accept or reject it, and transforms only an
accepted annotation.
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
from .tlive import check_tlive, infer_tlive

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
    term = at.term
    if isinstance(term, Let):
        return Let(term.var, term.value, uce(at.children[0]))
    if isinstance(term, Cond):
        sb = static_branch(term.cond)
        if sb is True:
            return uce(at.children[0])
        if sb is False:
            return uce(at.children[1])
        return Cond(term.cond, uce(at.children[0]), uce(at.children[1]))
    if isinstance(term, Fun):
        kept = tuple(
            FunDef(d.name, d.params, uce(body))
            for d, body in zip(term.defs, at.children)
            if body.fact
        )
        cont = uce(at.children[len(term.defs)])
        if not kept:
            return cont
        return Fun(kept, cont)
    return term  # applications and expressions unchanged


def dve(zeta: Mapping[str, tuple[str, ...]], lam: Mapping[str, frozenset[str]], at: Annotated) -> Term:
    """Dead variable elimination over a true-liveness annotation.

    zeta and lam supply parameter lists and live sets for functions
    bound outside at; both are extended at each group.  An application
    of a function bound in neither is a precondition violation.
    """
    term = at.term
    if isinstance(term, Let):
        body = at.children[0]
        rest = dve(zeta, lam, body)
        if isinstance(term.value, SysCall) or term.var in body.fact:
            return Let(term.var, term.value, rest)
        return rest
    if isinstance(term, Cond):
        sb = static_branch(term.cond)
        if sb is True:
            return dve(zeta, lam, at.children[0])
        if sb is False:
            return dve(zeta, lam, at.children[1])
        return Cond(term.cond, dve(zeta, lam, at.children[0]), dve(zeta, lam, at.children[1]))
    if isinstance(term, App):
        params = zeta.get(term.fun)
        live = lam.get(term.fun)
        if params is None or live is None:
            raise ValueError(f"application of unknown function {term.fun!r}")
        return App(term.fun, filterby(lambda x: x in live, params, term.args))
    if isinstance(term, Fun):
        zeta2 = dict(zeta)
        zeta2.update((d.name, d.params) for d in term.defs)
        lam2 = dict(lam)
        lam2.update((d.name, body.fact) for d, body in zip(term.defs, at.children))
        defs = tuple(
            FunDef(d.name, filter_list(lambda x: x in body.fact, d.params), dve(zeta2, lam2, body))
            for d, body in zip(term.defs, at.children)
        )
        return Fun(defs, dve(zeta2, lam2, at.children[len(term.defs)]))
    return term  # expressions unchanged


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
