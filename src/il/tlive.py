"""True liveness: per-node variable sets, inference, and checking.

The fact at a node is the set of variables whose values the rest of
the run may depend on (live before the node).  Truly live means the
analysis tracks use through calls: an argument is only live if the
corresponding parameter is live in the callee, which is what lets dead
parameters and their argument expressions disappear together.

infer_tlive runs a backward pass per node inside a round-based outer
fixed point on the per-function live sets (all sets start empty and
only grow, so the result is the least solution).  check_tlive verifies
an annotation against the judgment rules; a statically excluded branch
of a conditional needs no derivation at all and is skipped, while the
inference still annotates it with its own least solution, which
contributes nothing to the node's set.
"""
from __future__ import annotations

from typing import Mapping, Optional

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


def infer_tlive(t: Term) -> Annotated:
    """Annotate t with its least true-liveness solution."""
    estimates: dict[tuple, frozenset[str]] = {}

    def annotate(term: Term, path: tuple, zeta: dict, lam: dict) -> Annotated:
        if isinstance(term, Let):
            body = annotate(term.body, path + (0,), zeta, lam)
            after = body.fact
            if isinstance(term.value, SysCall):
                fact = (after - {term.var}) | free_vars_list(term.value.args)
            else:
                fact = after - {term.var}
                if term.var in after:
                    fact |= free_vars(term.value)
            return Annotated(term, fact, (body,))
        if isinstance(term, Cond):
            sb = static_branch(term.cond)
            then = annotate(term.then, path + (0,), zeta, lam)
            orelse = annotate(term.orelse, path + (1,), zeta, lam)
            fact = _EMPTY
            if sb is None:
                fact |= free_vars(term.cond)
            if sb is not False:
                fact |= then.fact
            if sb is not True:
                fact |= orelse.fact
            return Annotated(term, fact, (then, orelse))
        if isinstance(term, App):
            params = zeta.get(term.fun)
            live = lam.get(term.fun)
            fact = _EMPTY
            if params is not None and live is not None:
                for x, e in zip(params, term.args):
                    if x in live:
                        fact |= free_vars(e)
            # unknown callee: the judgment is underivable anyway, and the
            # least solution carries no requirement
            return Annotated(term, fact, ())
        if isinstance(term, Fun):
            names = [d.name for d in term.defs]
            zeta2 = dict(zeta)
            zeta2.update((d.name, d.params) for d in term.defs)
            lam2 = _group_live_context(
                lam, names, [estimates.get(path + (g,), _EMPTY) for g in range(len(names))]
            )
            bodies = []
            for g, d in enumerate(term.defs):
                body = annotate(d.body, path + (g,), zeta2, lam2)
                bodies.append(body)
                key = path + (g,)
                estimates[key] = estimates.get(key, _EMPTY) | body.fact
            cont = annotate(term.cont, path + (len(names),), zeta2, lam2)
            fact = cont.fact
            for d, body in zip(term.defs, bodies):
                fact |= body.fact - set(d.params)
            return Annotated(term, fact, tuple(bodies) + (cont,))
        assert isinstance(term, Exp)
        return Annotated(term, free_vars(term.expr), ())

    while True:
        before = dict(estimates)
        result = annotate(t, (), {}, {})
        if estimates == before:
            return result


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
