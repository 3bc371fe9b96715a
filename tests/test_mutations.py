"""Seeded-bug detection: each planted defect must be caught quickly."""

import pytest

import il.tlive
import il.transform
from il.harness import GenConfig, difftest_dve, difftest_uce
from il.reach import Rejection, check_reach, infer_reach
from il.syntax import Annotated, Fun, parse_program
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
    rep = difftest_dve(GenConfig(seed=0), trials=BUDGET, stop_early=True)
    rec = first_failure(rep)
    assert rec is not None
    assert rec.verdict == "distinguished"
    assert rec.shrunk  # a witness program was minimized


def test_uce_folding_the_wrong_branch_is_caught(monkeypatch):
    real = il.transform.static_branch

    def inverted(e):
        sb = real(e)
        return None if sb is None else not sb

    monkeypatch.setattr(il.transform, "static_branch", inverted)
    rep = difftest_uce(GenConfig(seed=0), trials=BUDGET, stop_early=True)
    rec = first_failure(rep)
    assert rec is not None
    assert rec.verdict == "distinguished"


def test_tlive_skipping_context_extension_is_caught(monkeypatch):
    def no_extension(lam, names, sets):
        return dict(lam)

    monkeypatch.setattr(il.tlive, "_group_live_context", no_extension)
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
    kids = list(at.children)
    kids[0] = Annotated(kids[0].term, False, kids[0].children)
    assert check_reach({}, Annotated(at.term, at.fact, tuple(kids))) is not None


@pytest.mark.parametrize("checker", ["reach", "tlive"])
@pytest.mark.parametrize(
    "src",
    ["let x = 1 in x", "fun f() = 1 in f()", "if a then 1 else 2"],
    ids=["let", "fun", "cond"],
)
def test_childless_annotation_is_rejected_not_raised(checker, src):
    t = parse_program(src)
    if checker == "reach":
        rej = check_reach({}, Annotated(t, True, ()))
    else:
        rej = check_tlive({}, {}, Annotated(t, frozenset({"a"}), ()))
    assert isinstance(rej, Rejection)
    assert rej.rule == "Shape"
    assert rej.path == ()
