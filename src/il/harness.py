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

Outside its game a trial walks its program three times: run_pass
numbers it in one Nodes table, one term_reads walk gives the free
variables its initial environment binds and the constants among its
probes, and the record counts its nodes; a second term_reads walk
gives the output's constants.  gen_program's redraw check counts at
most four nodes of each draw.  None of these folds term_fact, so the
game folds facts only below the nodes it keys.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cache, partial
from hashlib import blake2b
from random import Random
from typing import Callable, Optional

from .equiv import Distinguished, EquivalentToDepth, Exhausted, check_bisim, check_sim
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
    print_program,
    term_children,
    term_reads,
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
UNOPS = ("neg", "not")
BINOPS = ("+", "-", "*", "/", "=", "<", "<=")

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


@cache
def _leaves() -> tuple[dict[str, Var], tuple[Const, ...]]:
    """The generator's leaves, made on its first draw: one variable per
    name and one constant per CONSTS entry."""
    names = (*VAR_NAMES, *INPUT_NAMES, *UNBOUND_NAMES)
    return {name: Var(name) for name in names}, tuple(map(Const, CONSTS))


def _generator(rng: Random, cfg: GenConfig) -> Callable[..., Term]:
    """The term drawer of one program: term(depth, scope, funs) draws a
    term of at most depth levels over the variables in scope and the
    functions in funs, as (name, arity) pairs in the order they were
    first bound.

    A draw from a constant tuple indexes it with rng._randbelow, which is
    what rng.choice and rng.randrange do on CPython 3.10-3.13 after their
    argument checks, so the values drawn, and the programs, are those of
    calling them.  The group size is drawn by rng.randrange itself, which
    rejects a max_group_size below 1.  Programs share their leaves, as a
    parsed program shares its leaves per token (_leaves)."""
    random, below, sample, randrange = rng.random, rng._randbelow, rng.sample, rng.randrange
    max_group_size = cfg.max_group_size
    var, consts = _leaves()

    def expr(scope: tuple[str, ...], depth: int) -> Expr:
        roll = random()
        if depth <= 0 or roll < 0.55:
            r = random()
            if r < UNBOUND_PROB:
                return var[UNBOUND_NAMES[below(len(UNBOUND_NAMES))]]
            if r < 0.45 and scope:
                return var[scope[below(len(scope))]]
            if r < 0.6:
                return var[INPUT_NAMES[below(len(INPUT_NAMES))]]
            return consts[below(len(consts))]
        if roll < 0.65:
            return Unop(UNOPS[below(len(UNOPS))], expr(scope, depth - 1))
        op = BINOPS[below(len(BINOPS))]
        return Binop(op, expr(scope, depth - 1), expr(scope, depth - 1))

    def app(scope: tuple[str, ...], funs: tuple[tuple[str, int], ...]) -> Term:
        name, arity = funs[below(len(funs))]
        return App(name, tuple([expr(scope, 1 + below(2)) for _ in range(arity)]))

    def term(depth: int, scope: tuple[str, ...], funs: tuple[tuple[str, int], ...]) -> Term:
        if depth <= 0:
            if funs and random() < 0.5:
                return app(scope, funs)
            return Exp(expr(scope, 1 + below(2)))
        roll = random()
        if roll < 0.34:
            name = VAR_NAMES[below(len(VAR_NAMES))]
            if random() < EXTERN_PROB:
                action = ACTION_NAMES[below(len(ACTION_NAMES))]
                value: object = SysCall(action, tuple([expr(scope, 1 + below(2)) for _ in range(below(3))]))
            else:
                value = expr(scope, 1 + below(2))
            return Let(name, value, term(depth - 1, scope + (name,), funs))
        if roll < 0.54:
            if random() < CONST_COND_PROB:
                cond: Expr = consts[below(len(consts))]
            else:
                cond = expr(scope, 1 + below(2))
            return Cond(cond, term(depth - 1, scope, funs), term(depth - 1, scope, funs))
        if roll < 0.72:
            size = randrange(1, max_group_size + 1)
            names = sample(FUN_NAMES, min(size, len(FUN_NAMES)))
            inner = dict(funs)
            params_by_name = {}
            for name in names:
                params = tuple(sample(VAR_NAMES, below(4)))  # up to three
                params_by_name[name] = params
                inner[name] = len(params)
            inner_funs = tuple(inner.items())
            defs = []
            for name in names:
                params = params_by_name[name]
                defs.append(FunDef(name, params, term(depth - 1, scope + params, inner_funs)))
            return Fun(tuple(defs), term(depth - 1, scope, inner_funs))
        if roll < 0.86 and funs:
            return app(scope, funs)
        return Exp(expr(scope, 1 + below(2)))

    return term


def gen_program(cfg: GenConfig) -> Term:
    """Deterministic random program: well-scoped applications with
    matching arity, about CONST_COND_PROB of conditionals constant,
    occasional references to never-bound names.  Tiny root draws are
    redrawn a few times so trials mostly exercise structured terms."""
    term = _generator(Random(cfg.seed), cfg)
    t = term(cfg.max_depth, (), ())
    for _ in range(8):
        # a draw is tiny below 4 nodes: count up to 4, no further
        n, stack = 0, [t]
        while stack and n < 4:
            n += 1
            stack += term_children(stack.pop())
        if n >= 4 or cfg.max_depth == 0:
            break
        t = term(cfg.max_depth, (), ())
    return t


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
        # small random values for term's free variables outside the unbound
        # pool, and default_probes(term, out), with one walk of term
        free, consts = term_reads(term)
        rng = Random(seed ^ salt)
        env = {v: rng.randrange(-9, 10) for v in sorted(free) if v not in UNBOUND_NAMES}
        pr = tuple(sorted({0, 1, *consts} | term_reads(out)[1]))
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
