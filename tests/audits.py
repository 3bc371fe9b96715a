"""Semantic audits of the analyses and the program generator, used by
the harness and acceptance tests."""

from random import Random

from il.harness import INPUT_NAMES, UNBOUND_NAMES, VAR_NAMES, initial_env, perturbed_env
from il.reach import infer_reach
from il.semantics import (
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
from il.syntax import App, Nodes, Term, eval_expr_list, free_term_vars, well_formed, wrap
from il.tlive import infer_tlive


def reach_audit(t: Term, env: dict[str, int], oracle: Oracle, fuel: int, max_events: int = 32) -> bool:
    """Run t and confirm execution only ever focuses nodes whose
    inferred reachability bit is true."""
    ann = infer_reach(t)
    bits: dict[int, bool] = {}
    for term, fact in zip(ann.nodes.terms, ann.facts):
        # A shared subterm object is reachable when any occurrence is.
        bits[id(term)] = bits.get(id(term), False) or bool(fact)
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


def tlive_audit(t: Term, seed: int, fuel: int, max_events: int = 32) -> bool:
    """Perturb the initial environment outside the root live set and
    confirm the observable trace is byte-identical.  A dead variable
    can decide whether a silent loop repeats a configuration, so one
    side may end Diverged where the other is cut off by fuel; both
    mean no further event within the bounds, and they count as equal."""
    ann = infer_tlive(t)
    rng = Random(seed)
    env = initial_env(t, rng)
    env2 = perturbed_env(env, ann.facts[0], rng)
    oracle = SeededOracle(seed)
    left = run_trace(Config((), env, t), oracle, fuel, max_events)
    right = run_trace(Config((), env2, t), oracle, fuel, max_events)
    silent = (Cutoff, Diverged)
    if isinstance(left.outcome, silent) and isinstance(right.outcome, silent):
        return left.events == right.events
    return trace_text(left) == trace_text(right)


def generator_audit(t: Term) -> bool:
    """Well-formedness plus harness-level scoping: applications hit
    in-scope functions with the right arity, and every variable read is
    a binder, an input, or from the unbound pool."""
    if not well_formed(t):
        return False
    nodes = Nodes(t)
    for term, hit in zip(nodes.terms, nodes.callee):
        if isinstance(term, App) and (hit is None or len(hit[1].params) != len(term.args)):
            return False
    return free_term_vars(t) <= {*VAR_NAMES, *INPUT_NAMES, *UNBOUND_NAMES}
