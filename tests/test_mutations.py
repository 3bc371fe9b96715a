"""Seeded-bug detection: each planted defect must be caught quickly."""

import pytest

import il.reach
import il.tlive
import il.transform
from audits import refereed
from il.equiv import Distinguished
from il.harness import GenConfig, derive_seed, difftest_dve, difftest_uce, gen_program
from il.reach import Rejection, check_reach, infer_reach
from il.syntax import Annotated, Cond, Fun, Nodes, group_live, parse_program, print_program, term_fact
from il.tlive import check_tlive

BUDGET = 500


def first_failure(report):
    for rec in report.records:
        if rec.verdict == "distinguished" or not rec.accepted:
            return rec
    return None


def test_dve_dropping_a_live_parameter_is_caught(monkeypatch):
    real = il.transform.filter_list

    def drop_one_kept(pred, xs):
        out = real(pred, xs)
        return out[1:] if out else out

    monkeypatch.setattr(il.transform, "filter_list", drop_one_kept)
    seen = refereed(monkeypatch)  # every game, shrinking included, matches the reference
    rep = difftest_dve(GenConfig(seed=0), trials=BUDGET, stop_early=True)
    rec = first_failure(rep)
    assert rec is not None
    assert rec.verdict == "distinguished"
    assert rec.shrunk  # a witness program was minimized
    assert any(isinstance(v, Distinguished) for v in seen)


def test_uce_folding_the_wrong_branch_is_caught(monkeypatch):
    real = il.transform.static_branch

    def inverted(e):
        sb = real(e)
        return None if sb is None else not sb

    monkeypatch.setattr(il.transform, "static_branch", inverted)
    seen = refereed(monkeypatch)  # every game, shrinking included, matches the reference
    rep = difftest_uce(GenConfig(seed=0), trials=BUDGET, stop_early=True)
    rec = first_failure(rep)
    assert rec is not None
    assert rec.verdict == "distinguished"
    assert any(isinstance(v, Distinguished) for v in seen)


def test_the_wrong_branch_mutant_leaves_the_read_sets_alone(monkeypatch):
    # term_fact decides a closed condition itself, so the planted
    # static_branch above moves no configuration key: fresh copies of 100
    # generated programs fold the same read sets under it
    def read_sets(t):
        copy = parse_program(print_program(t))
        term_fact(copy)
        return [n._fact and n._fact[1] for n in Nodes(copy).terms]

    programs = [gen_program(GenConfig(seed=derive_seed(75, n))) for n in range(100)]
    real = [read_sets(t) for t in programs]
    for module in (il.reach, il.transform):
        sb = module.static_branch
        monkeypatch.setattr(module, "static_branch", lambda e, sb=sb: None if sb(e) is None else not sb(e))
    assert [read_sets(t) for t in programs] == real
    # the mutant is live: it flips some program's closed condition
    assert any(il.reach.static_branch(n.cond) is not None for t in programs for n in Nodes(t).terms if isinstance(n, Cond))


def test_the_planted_mutants_leave_the_group_facts_alone(monkeypatch):
    # group_live folds its own liveness, so neither planted static_branch
    # nor the tlive._fact mutant below moves a fact that Brent's check
    # keys by: fresh copies of 100 generated programs fold the same facts
    # under all three
    def group_facts(t):
        return [group_live(n) for n in Nodes(parse_program(print_program(t))).terms if isinstance(n, Fun)]

    programs = [gen_program(GenConfig(seed=derive_seed(76, n))) for n in range(100)]
    real = [group_facts(t) for t in programs]
    for module in (il.reach, il.transform):
        sb = module.static_branch
        monkeypatch.setattr(module, "static_branch", lambda e, sb=sb: None if sb(e) is None else not sb(e))
    fact = il.tlive._fact
    monkeypatch.setattr(il.tlive, "_fact", lambda term, kids, callee: fact(term, kids, None))
    assert [group_facts(t) for t in programs] == real
    # some fact leaves a variable of its body's read set out
    assert any(
        live != term_fact(d.body)[1]
        for t in programs
        for n in Nodes(t).terms
        if isinstance(n, Fun)
        for d, live in zip(n.defs, group_live(n))
    )


def test_tlive_skipping_context_extension_is_caught(monkeypatch):
    # where infer_tlive reads a callee's live set, the mutant reads
    # nothing, as if the enclosing group had not extended the context
    real = il.tlive._fact

    def no_extension(term, kids, callee):
        return real(term, kids, None)

    monkeypatch.setattr(il.tlive, "_fact", no_extension)
    rep = difftest_dve(GenConfig(seed=0), trials=BUDGET, stop_early=True)
    rec = first_failure(rep)
    assert rec is not None
    # the planted analysis bug is already caught by the checker, before
    # any transformed program runs
    assert not rec.accepted
    assert "TLive" in rec.reason


def test_mutants_stop_within_budget():
    # unmutated pipelines use the whole budget without failures
    rep = difftest_uce(GenConfig(seed=0), trials=60, stop_early=True)
    assert rep.trials == 60
    assert first_failure(rep) is None


def test_corrupted_reach_bit_is_rejected():
    t = parse_program("fun f() = 1 in f()")
    at = infer_reach(t)
    assert isinstance(at.term, Fun)
    facts = list(at.facts)
    facts[1] = False  # the body of f, the first child
    assert check_reach({}, Annotated(at.nodes, tuple(facts))) is not None


@pytest.mark.parametrize("checker", ["reach", "tlive"])
@pytest.mark.parametrize(
    "src",
    ["let x = 1 in x", "fun f() = 1 in f()", "if a then 1 else 2"],
    ids=["let", "fun", "cond"],
)
def test_childless_annotation_is_rejected_not_raised(checker, src):
    # one fact for a term of two or more nodes
    nodes = Nodes(parse_program(src))
    if checker == "reach":
        rej = check_reach({}, Annotated(nodes, (True,)))
    else:
        rej = check_tlive({}, {}, Annotated(nodes, (frozenset({"a"}),)))
    assert isinstance(rej, Rejection)
    assert rej.rule == "Shape"
    assert rej.path == ()
