"""Random-program differential testing for the optimization passes.

Programs are generated from a seed (identical GenConfig, identical
program), analyzed, checked and transformed by transform.run_pass, and
then compared against the original with the bounded equivalence game.
One driver, difftest, runs both protocols.  The UCE protocol runs both
sides from one random initial environment and demands bisimulation;
the DVE protocol builds two environments that agree exactly on the
root live set and demands similarity with the original on the left.
Every trial records its own seed, so any reported trial replays
byte-for-byte; a distinguished trial is shrunk to a locally minimal
failing program before it is reported.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial
from hashlib import blake2b
from random import Random
from typing import Callable, Optional

from .equiv import Distinguished, EquivalentToDepth, Exhausted, check_bisim, check_sim, default_probes
from .reach import Rejection
from .semantics import Config
from .syntax import (
    App,
    Binop,
    Cond,
    Const,
    Exp,
    Expr,
    Fun,
    FunDef,
    Let,
    Nodes,
    SysCall,
    Term,
    Unop,
    Var,
    free_term_vars,
    print_program,
    term_size,
    wrap,
)
from .transform import run_pass


# The generator's vocabulary.  INPUT_NAMES are free variables the
# harness binds in initial environments; UNBOUND_NAMES are left unbound
# on purpose to exercise stuck executions.
EXTERN_PROB = 0.25
CONST_COND_PROB = 0.3
UNBOUND_PROB = 0.04
VAR_NAMES = ("x", "y", "z", "w")
FUN_NAMES = ("f", "g", "h")
INPUT_NAMES = ("a", "b", "c")
UNBOUND_NAMES = ("u0", "u1")
ACTION_NAMES = ("rd", "wr")
CONSTS = (0, 1, 2, 9)

SHRINK_STEPS = 200  # most greedy steps one shrink takes


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the program generator."""

    seed: int
    max_depth: int = 5
    max_group_size: int = 3


def derive_seed(seed: int, index: int) -> int:
    """Stable per-trial seed derivation."""
    h = blake2b(f"{seed}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(h, "big") >> 1


def _gen_expr(rng: Random, scope: tuple[str, ...], depth: int) -> Expr:
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        r = rng.random()
        if r < UNBOUND_PROB:
            return Var(rng.choice(UNBOUND_NAMES))
        if r < 0.45 and scope:
            return Var(rng.choice(scope))
        if r < 0.6:
            return Var(rng.choice(INPUT_NAMES))
        return Const(rng.choice(CONSTS))
    if roll < 0.65:
        return Unop(rng.choice(("neg", "not")), _gen_expr(rng, scope, depth - 1))
    op = rng.choice(("+", "-", "*", "/", "=", "<", "<="))
    return Binop(op, _gen_expr(rng, scope, depth - 1), _gen_expr(rng, scope, depth - 1))


def _gen_term(
    rng: Random,
    cfg: GenConfig,
    depth: int,
    scope: tuple[str, ...],
    funs: dict[str, int],
) -> Term:
    def expr() -> Expr:
        return _gen_expr(rng, scope, rng.randrange(1, 3))

    def leaf() -> Term:
        if funs and rng.random() < 0.5:
            name, arity = rng.choice(list(funs.items()))
            return App(name, tuple(expr() for _ in range(arity)))
        return Exp(expr())

    if depth <= 0:
        return leaf()
    roll = rng.random()
    if roll < 0.34:
        var = rng.choice(VAR_NAMES)
        if rng.random() < EXTERN_PROB:
            action = rng.choice(ACTION_NAMES)
            value: object = SysCall(action, tuple(expr() for _ in range(rng.randrange(0, 3))))
        else:
            value = expr()
        return Let(var, value, _gen_term(rng, cfg, depth - 1, scope + (var,), funs))
    if roll < 0.54:
        if rng.random() < CONST_COND_PROB:
            cond: Expr = Const(rng.choice(CONSTS))
        else:
            cond = expr()
        return Cond(
            cond,
            _gen_term(rng, cfg, depth - 1, scope, funs),
            _gen_term(rng, cfg, depth - 1, scope, funs),
        )
    if roll < 0.72:
        size = rng.randrange(1, cfg.max_group_size + 1)
        names = rng.sample(FUN_NAMES, min(size, len(FUN_NAMES)))
        defs = []
        inner = dict(funs)
        params_by_name = {}
        for name in names:
            params = tuple(rng.sample(VAR_NAMES, rng.randrange(4)))  # up to three
            params_by_name[name] = params
            inner[name] = len(params)
        for name in names:
            params = params_by_name[name]
            body = _gen_term(rng, cfg, depth - 1, scope + params, inner)
            defs.append(FunDef(name, params, body))
        return Fun(tuple(defs), _gen_term(rng, cfg, depth - 1, scope, inner))
    if roll < 0.86 and funs:
        name, arity = rng.choice(list(funs.items()))
        return App(name, tuple(expr() for _ in range(arity)))
    return Exp(expr())


def gen_program(cfg: GenConfig) -> Term:
    """Deterministic random program: well-scoped applications with
    matching arity, about CONST_COND_PROB of conditionals constant,
    occasional references to never-bound names.  Tiny root draws are
    redrawn a few times so trials mostly exercise structured terms."""
    rng = Random(cfg.seed)
    t = _gen_term(rng, cfg, cfg.max_depth, (), {})
    for _ in range(8):
        if term_size(t) >= 4 or cfg.max_depth == 0:
            break
        t = _gen_term(rng, cfg, cfg.max_depth, (), {})
    return t


def initial_env(t: Term, rng: Random) -> dict[str, int]:
    """Bind every free variable of t except the deliberately unbound
    pool to a small random value."""
    return {
        v: rng.randrange(-9, 10)
        for v in sorted(free_term_vars(t))
        if v not in UNBOUND_NAMES
    }


def perturbed_env(env: dict[str, int], keep: frozenset[str], rng: Random) -> dict[str, int]:
    """Copy env, agreeing exactly on keep: every other binding changes."""
    out = dict(env)
    for v in sorted(env):
        if v not in keep:
            out[v] = wrap(env[v] + 1 + rng.randrange(7))
    return out


# ---------------------------------------------------------------------------
# Differential testing


@dataclass(frozen=True)
class TrialRecord:
    index: int
    seed: int
    size: int
    accepted: bool
    verdict: Optional[str]  # 'equivalent' | 'distinguished' | 'exhausted:fuel' | None
    reason: str = ""
    shrunk: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "trial": self.index,
                "seed": self.seed,
                "size": self.size,
                "accepted": self.accepted,
                "applied": self.accepted,  # kept so records stay byte-stable
                "verdict": self.verdict,
                "reason": self.reason,
                "shrunk": self.shrunk,
            },
            sort_keys=True,
        )


@dataclass
class DiffReport:
    pass_name: str
    records: list[TrialRecord] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def accepted(self) -> int:
        return sum(1 for r in self.records if r.accepted)

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.records if not r.accepted)

    @property
    def distinguished(self) -> int:
        return sum(1 for r in self.records if r.verdict == "distinguished")

    @property
    def equivalent(self) -> int:
        return sum(1 for r in self.records if r.verdict == "equivalent")

    @property
    def exhausted(self) -> int:
        return sum(1 for r in self.records if r.verdict == "exhausted:fuel")

    def summary(self) -> str:
        return (
            f"SUMMARY pass={self.pass_name} trials={self.trials} accepted={self.accepted}"
            f" equivalent={self.equivalent} distinguished={self.distinguished}"
            f" exhausted={self.exhausted} rejected={self.rejected}"
        )


def _verdict_fields(verdict) -> tuple[str, str]:
    if isinstance(verdict, EquivalentToDepth):
        return "equivalent", ""
    if isinstance(verdict, Distinguished):
        return "distinguished", verdict.reason
    assert isinstance(verdict, Exhausted)
    return f"exhausted:{verdict.reason}", ""


def _replaced(nodes: Nodes, i: int, repl: Term) -> Term:
    """The whole term with node i replaced by repl, rebuilt along the
    parent links."""
    while i > 0:
        up = nodes.parent[i]
        pos = nodes.kids[up].index(i)
        node = nodes.terms[up]
        if isinstance(node, Let):
            repl = Let(node.var, node.value, repl)
        elif isinstance(node, Cond):
            repl = Cond(node.cond, repl, node.orelse) if pos == 0 else Cond(node.cond, node.then, repl)
        elif pos < len(node.defs):
            d = node.defs[pos]
            repl = Fun(node.defs[:pos] + (FunDef(d.name, d.params, repl),) + node.defs[pos + 1 :], node.cont)
        else:
            repl = Fun(node.defs, repl)
        i = up
    return repl


def shrink_term(t: Term, still_failing: Callable[[Term], bool]) -> Term:
    """Greedy shrink: replace a node by one of its subterms or drop a
    group member, as long as the failure reproduces. The result is
    locally minimal for these moves."""

    def candidates(term: Term):
        # whole-program candidates, smallest-first per node in pre-order
        nodes = Nodes(term)
        for i, node in enumerate(nodes.terms):
            for k in nodes.kids[i]:
                yield _replaced(nodes, i, nodes.terms[k])
            if isinstance(node, Fun) and len(node.defs) > 1:
                for g in range(len(node.defs)):
                    yield _replaced(nodes, i, Fun(node.defs[:g] + node.defs[g + 1 :], node.cont))

    current = t
    for _ in range(SHRINK_STEPS):
        size = term_size(current)
        for cand in candidates(current):
            if term_size(cand) < size and still_failing(cand):
                current = cand
                break
        else:
            return current
    return current


def difftest(
    pass_name: str,
    cfg: GenConfig,
    trials: int,
    depth: int = 8,
    fuel: int = 10_000,
    *,
    stop_early: bool = False,
) -> DiffReport:
    """Generate trials programs, run each through the checked pipeline
    of pass_name, and play the pass's game against the original.

    The two protocols differ only in the initial environments and the
    game.  uce: both sides start from one random environment (salt
    0x5EED) and must be bisimilar.  dve: the right side's environment is
    perturbed outside the root live set (salt 0xD1FF), and the original
    on the left must be simulated by the output on the right.  A
    distinguished trial is shrunk to a locally minimal witness."""
    report = DiffReport(pass_name)
    salt = 0x5EED if pass_name == "uce" else 0xD1FF

    def run_one(term: Term, seed: int):
        done = run_pass(pass_name, term)
        if isinstance(done, Rejection):
            return done
        ann, out = done
        rng = Random(seed ^ salt)
        env = initial_env(term, rng)
        pr = default_probes(term, out)
        left = Config((), env, term)
        if pass_name == "uce":
            return check_bisim(left, Config((), dict(env), out), depth, pr, fuel)
        return check_sim(left, Config((), perturbed_env(env, ann.facts[0], rng), out), depth, pr, fuel)

    for i in range(trials):
        seed = derive_seed(cfg.seed, i)
        t = gen_program(replace(cfg, seed=seed))
        verdict = run_one(t, seed)
        if isinstance(verdict, Rejection):
            record = TrialRecord(i, seed, term_size(t), False, None, str(verdict))
        else:
            kind, reason = _verdict_fields(verdict)
            shrunk = None
            if kind == "distinguished":
                witness = shrink_term(t, lambda cand: isinstance(run_one(cand, seed), Distinguished))
                shrunk = print_program(witness)
            record = TrialRecord(i, seed, term_size(t), True, kind, reason, shrunk)
        report.records.append(record)
        if stop_early and (record.verdict == "distinguished" or not record.accepted):
            break
    return report


difftest_uce = partial(difftest, "uce")
difftest_dve = partial(difftest, "dve")
