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
from typing import Callable, Optional, Sequence

from .equiv import Distinguished, EquivalentToDepth, Exhausted, check_bisim, check_sim, default_probes
from .reach import Rejection, infer_reach
from .semantics import (
    Config,
    Cutoff,
    Diverged,
    Oracle,
    SeededOracle,
    Stepped,
    Terminal,
    apply_extern,
    run_trace,
    step_silent,
    trace_text,
)
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
    SysCall,
    Term,
    Unop,
    Var,
    ann_walk,
    eval_expr_list,
    free_term_vars,
    print_program,
    term_children,
    term_size,
    well_formed,
    wrap,
)
from .tlive import infer_tlive
from .transform import run_pass


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the program generator. input_names are free variables
    the harness binds in initial environments; unbound_names are left
    unbound on purpose to exercise stuck executions."""

    seed: int
    max_depth: int = 5
    max_group_size: int = 3
    extern_prob: float = 0.25
    const_cond_prob: float = 0.3
    unbound_prob: float = 0.04
    var_names: tuple[str, ...] = ("x", "y", "z", "w")
    fun_names: tuple[str, ...] = ("f", "g", "h")
    input_names: tuple[str, ...] = ("a", "b", "c")
    unbound_names: tuple[str, ...] = ("u0", "u1")
    action_names: tuple[str, ...] = ("rd", "wr")
    consts: tuple[int, ...] = (0, 1, 2, 9)


def derive_seed(seed: int, index: int) -> int:
    """Stable per-trial seed derivation."""
    h = blake2b(f"{seed}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(h, "big") >> 1


def _gen_expr(rng: Random, cfg: GenConfig, scope: tuple[str, ...], depth: int) -> Expr:
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        r = rng.random()
        if r < cfg.unbound_prob:
            return Var(rng.choice(cfg.unbound_names))
        if r < 0.45 and scope:
            return Var(rng.choice(scope))
        if r < 0.6:
            return Var(rng.choice(cfg.input_names))
        return Const(rng.choice(cfg.consts))
    if roll < 0.65:
        return Unop(rng.choice(("neg", "not")), _gen_expr(rng, cfg, scope, depth - 1))
    op = rng.choice(("+", "-", "*", "/", "=", "<", "<="))
    return Binop(op, _gen_expr(rng, cfg, scope, depth - 1), _gen_expr(rng, cfg, scope, depth - 1))


def _gen_term(
    rng: Random,
    cfg: GenConfig,
    depth: int,
    scope: tuple[str, ...],
    funs: dict[str, int],
) -> Term:
    def expr() -> Expr:
        return _gen_expr(rng, cfg, scope, rng.randrange(1, 3))

    def leaf() -> Term:
        if funs and rng.random() < 0.5:
            name, arity = rng.choice(list(funs.items()))
            return App(name, tuple(expr() for _ in range(arity)))
        return Exp(expr())

    if depth <= 0:
        return leaf()
    roll = rng.random()
    if roll < 0.34:
        var = rng.choice(cfg.var_names)
        if rng.random() < cfg.extern_prob:
            action = rng.choice(cfg.action_names)
            value: object = SysCall(action, tuple(expr() for _ in range(rng.randrange(0, 3))))
        else:
            value = expr()
        return Let(var, value, _gen_term(rng, cfg, depth - 1, scope + (var,), funs))
    if roll < 0.54:
        if rng.random() < cfg.const_cond_prob:
            cond: Expr = Const(rng.choice(cfg.consts))
        else:
            cond = expr()
        return Cond(
            cond,
            _gen_term(rng, cfg, depth - 1, scope, funs),
            _gen_term(rng, cfg, depth - 1, scope, funs),
        )
    if roll < 0.72:
        size = rng.randrange(1, cfg.max_group_size + 1)
        names = rng.sample(cfg.fun_names, min(size, len(cfg.fun_names)))
        defs = []
        inner = dict(funs)
        params_by_name = {}
        for name in names:
            params = tuple(rng.sample(cfg.var_names, rng.randrange(0, min(3, len(cfg.var_names)) + 1)))
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
    matching arity, about const_cond_prob of conditionals constant,
    occasional references to never-bound names.  Tiny root draws are
    redrawn a few times so trials mostly exercise structured terms."""
    rng = Random(cfg.seed)
    t = _gen_term(rng, cfg, cfg.max_depth, (), {})
    for _ in range(8):
        if term_size(t) >= 4 or cfg.max_depth == 0:
            break
        t = _gen_term(rng, cfg, cfg.max_depth, (), {})
    return t


def initial_env(t: Term, cfg: GenConfig, rng: Random) -> dict[str, int]:
    """Bind every free variable of t except the deliberately unbound
    pool to a small random value."""
    return {
        v: rng.randrange(-9, 10)
        for v in sorted(free_term_vars(t))
        if v not in cfg.unbound_names
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


def shrink_term(t: Term, still_failing: Callable[[Term], bool], max_steps: int = 200) -> Term:
    """Greedy shrink: replace a node by one of its subterms or drop a
    group member, as long as the failure reproduces. The result is
    locally minimal for these moves."""

    def candidates(term: Term):
        # whole-program candidates, smallest-first per node in pre-order
        def rebuild(node: Term, path: tuple, repl: Term) -> Term:
            if not path:
                return repl
            i = path[0]
            rest = path[1:]
            if isinstance(node, Let):
                return Let(node.var, node.value, rebuild(node.body, rest, repl))
            if isinstance(node, Cond):
                if i == 0:
                    return Cond(node.cond, rebuild(node.then, rest, repl), node.orelse)
                return Cond(node.cond, node.then, rebuild(node.orelse, rest, repl))
            assert isinstance(node, Fun)
            if i < len(node.defs):
                d = node.defs[i]
                defs = list(node.defs)
                defs[i] = FunDef(d.name, d.params, rebuild(d.body, rest, repl))
                return Fun(tuple(defs), node.cont)
            return Fun(node.defs, rebuild(node.cont, rest, repl))

        def walk(node: Term, path: tuple):
            for child in term_children(node):
                yield rebuild(term, path, child)
            if isinstance(node, Fun) and len(node.defs) > 1:
                for i in range(len(node.defs)):
                    defs = node.defs[:i] + node.defs[i + 1 :]
                    yield rebuild(term, path, Fun(defs, node.cont))
            for i, child in enumerate(term_children(node)):
                yield from walk(child, path + (i,))

        yield from walk(term, ())

    current = t
    for _ in range(max_steps):
        for cand in candidates(current):
            if term_size(cand) < term_size(current) and still_failing(cand):
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
    probes: Optional[Sequence[int]] = None,
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
        env = initial_env(term, cfg, rng)
        pr = tuple(probes) if probes is not None else default_probes(term, out)
        left = Config((), env, term)
        if pass_name == "uce":
            return check_bisim(left, Config((), dict(env), out), depth, pr, fuel)
        return check_sim(left, Config((), perturbed_env(env, ann.fact, rng), out), depth, pr, fuel)

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


# ---------------------------------------------------------------------------
# Semantic audits


def reach_audit(t: Term, env: dict[str, int], oracle: Oracle, fuel: int, max_events: int = 32) -> bool:
    """Run t and confirm execution only ever focuses nodes whose
    inferred reachability bit is true."""
    ann = infer_reach(t)
    bits: dict[int, bool] = {}
    for node in ann_walk(ann):
        # A shared subterm object is reachable when any occurrence is.
        k = id(node.term)
        bits[k] = bits.get(k, False) or bool(node.fact)
    config = Config((), env, t)
    events = 0
    steps = 0
    while steps < fuel:
        if not bits.get(id(config.term), True):
            return False
        step = step_silent(config)
        if isinstance(step, Terminal):
            return True
        if isinstance(step, Stepped):
            config = step.config
            steps += 1
            continue
        if events >= max_events:
            return True
        call = config.term.value
        args = eval_expr_list(call.args, config.env)
        value = wrap(oracle(events, call.action, args))
        _, config = apply_extern(config, value)
        events += 1
        steps += 1
    return True


def tlive_audit(t: Term, cfg: GenConfig, seed: int, fuel: int, max_events: int = 32) -> bool:
    """Perturb the initial environment outside the root live set and
    confirm the observable trace is byte-identical.  A dead variable
    can decide whether a silent loop repeats a configuration, so one
    side may end Diverged where the other is cut off by fuel; both
    mean no further event within the bounds, and they count as equal."""
    ann = infer_tlive(t)
    rng = Random(seed)
    env = initial_env(t, cfg, rng)
    env2 = perturbed_env(env, ann.fact, rng)
    oracle = SeededOracle(seed)
    left = run_trace(Config((), env, t), oracle, fuel, max_events)
    right = run_trace(Config((), env2, t), oracle, fuel, max_events)
    silent = (Cutoff, Diverged)
    if isinstance(left.outcome, silent) and isinstance(right.outcome, silent):
        return left.events == right.events
    return trace_text(left) == trace_text(right)


def generator_audit(t: Term, cfg: GenConfig) -> bool:
    """Well-formedness plus harness-level scoping: applications hit
    in-scope functions with the right arity, and every variable read is
    a binder, an input, or from the unbound pool."""
    if not well_formed(t):
        return False
    ok_free = set(cfg.var_names) | set(cfg.input_names) | set(cfg.unbound_names)

    def walk(term: Term, funs: dict[str, int]) -> bool:
        if isinstance(term, App):
            if funs.get(term.fun) != len(term.args):
                return False
        if isinstance(term, Fun):
            inner = dict(funs)
            inner.update((d.name, len(d.params)) for d in term.defs)
            return all(walk(d.body, inner) for d in term.defs) and walk(term.cont, inner)
        return all(walk(c, funs) for c in term_children(term))

    return walk(t, {}) and free_term_vars(t) <= ok_free
