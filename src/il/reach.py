"""Reachability: per-node boolean annotations, inference, and checking.

A node's bit says whether execution can reach it.  Conditionals whose
condition evaluates in the empty environment propagate reachability
only into the branch that can actually be taken; a function body is
reachable only if some application of it sits in reachable code.  The
checker verifies an annotation against the judgment rules and reports
the first violated premise in pre-order (rule "Shape" when a node's
annotated children do not match its term's subterms); the inference
computes the annotation the checker accepts, marking excluded branches
and unused function bodies false throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .syntax import (
    Annotated,
    App,
    Cond,
    Expr,
    Exp,
    Fun,
    Let,
    Term,
    eval_expr,
    term_children,
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


def shape_rejection(node: Annotated, path: tuple) -> Optional[Rejection]:
    """Reject a node whose child count does not match its term's."""
    want = len(term_children(node.term))
    if len(node.children) != want:
        return Rejection(path, "Shape", f"{len(node.children)} annotated children for a term with {want}")
    return None


def infer_reach(t: Term) -> Annotated:
    """Annotate t with reachability bits, root true.

    Function-body bits are the least fixed point of "applied from some
    reachable position", computed by re-sweeping until no new body is
    marked.  Scope keys are node paths, so shadowed names resolve to
    their most recent definition.
    """
    reachable: set[tuple] = set()

    def sweep(term: Term, bit: bool, scope: dict[str, tuple], path: tuple) -> bool:
        changed = False
        if isinstance(term, Let):
            return sweep(term.body, bit, scope, path + (0,))
        if isinstance(term, Cond):
            sb = static_branch(term.cond)
            changed |= sweep(term.then, bit if sb is not False else False, scope, path + (0,))
            changed |= sweep(term.orelse, bit if sb is not True else False, scope, path + (1,))
            return changed
        if isinstance(term, App):
            if bit:
                key = scope.get(term.fun)
                if key is not None and key not in reachable:
                    reachable.add(key)
                    return True
            return False
        if isinstance(term, Fun):
            inner = dict(scope)
            for g, d in enumerate(term.defs):
                inner[d.name] = path + (g,)
            for g, d in enumerate(term.defs):
                changed |= sweep(d.body, path + (g,) in reachable, inner, path + (g,))
            changed |= sweep(term.cont, bit, inner, path + (len(term.defs),))
            return changed
        return False

    while sweep(t, True, {}, ()):
        pass

    def build(term: Term, bit: bool, scope: dict[str, tuple], path: tuple) -> Annotated:
        if isinstance(term, Let):
            return Annotated(term, bit, (build(term.body, bit, scope, path + (0,)),))
        if isinstance(term, Cond):
            sb = static_branch(term.cond)
            kids = (
                build(term.then, bit if sb is not False else False, scope, path + (0,)),
                build(term.orelse, bit if sb is not True else False, scope, path + (1,)),
            )
            return Annotated(term, bit, kids)
        if isinstance(term, Fun):
            inner = dict(scope)
            for g, d in enumerate(term.defs):
                inner[d.name] = path + (g,)
            kids = tuple(
                build(d.body, path + (g,) in reachable, inner, path + (g,))
                for g, d in enumerate(term.defs)
            ) + (build(term.cont, bit, inner, path + (len(term.defs),)),)
            return Annotated(term, bit, kids)
        return Annotated(term, bit, ())

    return build(t, True, {}, ())


def check_reach(ctx: ReachCtx, at: Annotated) -> Optional[Rejection]:
    """Verify a reachability annotation; None means accepted."""

    def walk(node: Annotated, ctx: Mapping[str, bool], path: tuple) -> Optional[Rejection]:
        term = node.term
        bit = node.fact
        bad = shape_rejection(node, path)
        if bad is not None:
            return bad
        if isinstance(term, Let):
            child = node.children[0]
            if child.fact != bit:
                return Rejection(path, "Reach-Let", f"continuation bit {child.fact} differs from node bit {bit}")
            return walk(child, ctx, path + (0,))
        if isinstance(term, Exp):
            return None  # Live-Exp: expression leaves are always fine
        if isinstance(term, App):
            if bit and not ctx.get(term.fun, False):
                return Rejection(path, "Reach-App", f"reachable application of {term.fun!r} whose body is not marked reachable")
            return None
        if isinstance(term, Cond):
            sb = static_branch(term.cond)
            then, orelse = node.children
            if sb is not False and then.fact != bit:
                return Rejection(path, "Reach-Cond", f"then-branch bit {then.fact} differs from node bit {bit}")
            if sb is not True and orelse.fact != bit:
                return Rejection(path, "Reach-Cond", f"else-branch bit {orelse.fact} differs from node bit {bit}")
            bad = walk(then, ctx, path + (0,))
            if bad is not None:
                return bad
            return walk(orelse, ctx, path + (1,))
        assert isinstance(term, Fun)
        n = len(term.defs)
        cont = node.children[n]
        if cont.fact != bit:
            return Rejection(path, "Reach-Fun", f"continuation bit {cont.fact} differs from node bit {bit}")
        inner = dict(ctx)
        for d, body in zip(term.defs, node.children):
            inner[d.name] = body.fact
        for g, body in enumerate(node.children[:n]):
            bad = walk(body, inner, path + (g,))
            if bad is not None:
                return bad
        return walk(cont, inner, path + (n,))

    return walk(at, dict(ctx), ())
