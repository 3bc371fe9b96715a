"""Command-line interface: exit codes and byte-stable output."""

import json
from hashlib import blake2b

import pytest

from il.cli import main
from il.reach import infer_reach
from il.syntax import parse_program, print_program, sidecar_text
from il.tlive import infer_tlive
from il.transform import dve, uce

LEFT = "fun f(x, y) = if 9 < x then 1 else f(x + 1, y) in f(3, 2)"
RIGHT = "fun f(x) = if 9 < x then 1 else f(x + 1) in f(3)"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- parse


def test_parse_prints_canonical_form(files, capsys):
    path = files("p.il", "if  x\nthen 1 else   2")
    code, out, err = run_cli(capsys, "parse", path)
    assert code == 0
    assert out == "if x then 1 else 2\n"
    assert err == ""


def test_parse_error_exits_2_with_position(files, capsys):
    path = files("bad.il", "let x = f(")
    code, out, err = run_cli(capsys, "parse", path)
    assert code == 2
    assert out == ""
    assert "bad.il" in err
    assert "1:" in err


def test_missing_file_exits_66(capsys, tmp_path):
    code, out, err = run_cli(capsys, "parse", str(tmp_path / "absent.il"))
    assert code == 66
    assert "cannot read" in err


# -- run


def test_run_left_figure(files, capsys):
    path = files("l.il", LEFT)
    code, out, _ = run_cli(capsys, "run", path, "--fuel", "1000")
    assert code == 0
    assert out == "END TERM 1\n"


def test_run_prints_events(files, capsys):
    path = files("e.il", "let x = extern r() in let y = extern w(x, 2) in y")
    code, out, _ = run_cli(capsys, "run", path, "--oracle-seed", "0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("EVT r()=")
    assert lines[1].startswith("EVT w(")
    assert lines[2].startswith("END TERM ")


def test_run_env_flag(files, capsys):
    path = files("v.il", "a + b")
    code, out, _ = run_cli(capsys, "run", path, "--env", "a=3,b=-2")
    assert code == 0
    assert out == "END TERM 1\n"


def test_run_cutoff(files, capsys):
    path = files("d.il", "fun f(x) = f(x + 1) in f(0)")
    code, out, _ = run_cli(capsys, "run", path, "--fuel", "40")
    assert code == 0
    assert out == "END CUTOFF\n"


def test_run_silent_loop_ends_diverge(files, capsys):
    path = files("d.il", "fun f() = f() in f()")
    code, out, _ = run_cli(capsys, "run", path)
    assert code == 0
    assert out == "END DIVERGE\n"


def test_run_bad_env_exits_64(files, capsys):
    path = files("v.il", "a")
    code, _, err = run_cli(capsys, "run", path, "--env", "a=x")
    assert code == 64


# -- analyze


def test_analyze_reach_prints_sidecar(files, capsys):
    path = files("c.il", "if 0 then 1 else 2")
    code, out, _ = run_cli(capsys, "analyze", "--reach", path)
    assert code == 0
    assert out == "true\nfalse\ntrue\nACCEPTED\n"


def test_analyze_tlive_prints_sidecar(files, capsys):
    path = files("t.il", "let x = y in x")
    code, out, _ = run_cli(capsys, "analyze", "--tlive", path)
    assert code == 0
    assert out == "{y}\n{x}\nACCEPTED\n"


def test_analyze_matches_library_sidecar(files, capsys):
    path = files("l.il", LEFT)
    _, out, _ = run_cli(capsys, "analyze", "--tlive", path)
    expected = sidecar_text(infer_tlive(parse_program(LEFT))) + "ACCEPTED\n"
    assert out == expected


def test_analyze_requires_exactly_one_mode(files, capsys):
    path = files("x.il", "3")
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 64


# -- optimize


def test_optimize_uce(files, capsys):
    path = files("u.il", "if 1 then 3 else 4")
    code, out, _ = run_cli(capsys, "optimize", "--uce", path)
    assert code == 0
    assert out == "3\n"


def test_optimize_dve_left_figure(files, capsys):
    path = files("l.il", LEFT)
    code, out, _ = run_cli(capsys, "optimize", "--dve", path)
    assert code == 0
    assert out == print_program(parse_program(RIGHT)) + "\n"


def test_optimize_pipeline_matches_manual_composition(files, capsys):
    src = "fun f(x, y) = if 0 then f(x, y) else x in f(a, b)"
    path = files("p.il", src)
    code, out, _ = run_cli(capsys, "optimize", "--uce", "--dve", path)
    assert code == 0
    t = parse_program(src)
    manual = dve({}, {}, infer_tlive(uce(infer_reach(t))))
    assert out == print_program(manual) + "\n"


def test_optimize_dve_unbound_callee_rejected(files, capsys):
    path = files("u.il", "f(1)")
    code, out, err = run_cli(capsys, "optimize", "--dve", path)
    assert code == 1
    assert out == ""
    assert err.startswith("REJECTED ")
    assert "'f'" in err
    # uce checks its reachability annotation too, and runs first
    for flags in (("--uce",), ("--uce", "--dve")):
        code, out, err = run_cli(capsys, "optimize", *flags, path)
        assert code == 1
        assert out == ""
        assert err.startswith("REJECTED at <root>: Reach-App: ")
        assert "'f'" in err


def test_optimize_requires_a_pass(files, capsys):
    path = files("x.il", "3")
    code, _, err = run_cli(capsys, "optimize", path)
    assert code == 64


# -- check


def test_check_figures_equivalent(files, capsys):
    l, r = files("l.il", LEFT), files("r.il", RIGHT)
    code, out, _ = run_cli(capsys, "check", "--sim", l, r, "--depth", "16")
    assert code == 0
    assert out == "EQUIVALENT to depth 16\n"


def test_check_bisim_is_default(files, capsys):
    l, r = files("a.il", "3"), files("b.il", "3")
    code, out, _ = run_cli(capsys, "check", l, r)
    assert code == 0
    assert out == "EQUIVALENT to depth 8\n"


def test_check_distinguished_exits_1_with_witness(files, capsys):
    l = files("a.il", "let x = extern r() in if x then 1 else 5")
    r = files("b.il", "let x = extern r() in if x then 1 else 6")
    code, out, _ = run_cli(capsys, "check", l, r, "--probes", "1,0")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "EVT r()=0 [probe 0]"
    assert lines[-1].startswith("DISTINGUISHED ")


def test_check_env_applies_to_both_sides(files, capsys):
    l, r = files("a.il", "a + 1"), files("b.il", "2 * a - a + 1")
    code, out, _ = run_cli(capsys, "check", l, r, "--env", "a=4")
    assert code == 0


def test_check_exhausted_exits_2(files, capsys):
    l, r = files("a.il", "fun f(x) = f(x + 1) in f(0)"), files("b.il", "3")
    code, out, _ = run_cli(capsys, "check", l, r, "--fuel", "30")
    assert code == 2
    assert out == "EXHAUSTED fuel\n"


def test_check_both_diverging_equivalent(files, capsys):
    l, r = files("a.il", "fun f() = f() in f()"), files("b.il", "fun g(x) = g(1 - x) in g(0)")
    code, out, _ = run_cli(capsys, "check", l, r)
    assert code == 0
    assert out == "EQUIVALENT to depth 8\n"


def test_check_one_side_diverging_exits_1(files, capsys):
    l, r = files("a.il", "fun f() = f() in f()"), files("b.il", "3")
    code, out, _ = run_cli(capsys, "check", "--sim", l, r)
    assert code == 1
    assert out == "DISTINGUISHED left side diverges silently while the other does not\n"


# -- difftest


def test_difftest_uce_clean_run(capsys):
    code, out, _ = run_cli(capsys, "difftest", "--pass", "uce", "--trials", "20", "--seed", "0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 21
    for line in lines[:-1]:
        rec = json.loads(line)
        # divergent draws exhaust fuel; only divergence of behavior fails
        assert rec["verdict"] in ("equivalent", "exhausted:fuel")
    assert lines[-1].startswith("SUMMARY pass=uce trials=20 accepted=20")


def test_difftest_dve_clean_run(capsys):
    code, out, _ = run_cli(capsys, "difftest", "--pass", "dve", "--trials", "20", "--seed", "0")
    assert code == 0
    assert out.splitlines()[-1].startswith("SUMMARY pass=dve trials=20 accepted=20")


def test_difftest_output_is_byte_stable(capsys):
    _, a, _ = run_cli(capsys, "difftest", "--pass", "uce", "--trials", "10", "--seed", "3")
    _, b, _ = run_cli(capsys, "difftest", "--pass", "uce", "--trials", "10", "--seed", "3")
    assert a == b


@pytest.mark.parametrize(
    "pass_name, digest",
    [("uce", "331acd3951c0e0662a7ef30535ae93cc"), ("dve", "8b204bc725e0cae420672ff49a36b994")],
)
def test_difftest_output_digest_is_pinned(capsys, pass_name, digest):
    # pins both protocols' record bytes, recorded from the two separate drivers difftest replaced
    code, out, _ = run_cli(capsys, "difftest", "--pass", pass_name, "--trials", "200", "--seed", "0")
    assert code == 0
    assert blake2b(out.encode(), digest_size=16).hexdigest() == digest


def test_difftest_requires_pass(capsys):
    code, _, err = run_cli(capsys, "difftest", "--trials", "5")
    assert code == 64


# -- usage errors


def test_no_subcommand_exits_64(capsys):
    code, _, err = run_cli(capsys)
    assert code == 64


def test_unknown_subcommand_exits_64(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 64


def test_unknown_flag_exits_64(files, capsys):
    path = files("x.il", "3")
    code, _, _ = run_cli(capsys, "parse", "--frob", path)
    assert code == 64


def test_non_integer_depth_exits_64(files, capsys):
    l, r = files("a.il", "3"), files("b.il", "3")
    code, _, _ = run_cli(capsys, "check", l, r, "--depth", "many")
    assert code == 64


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--depth", "-1"),
        ("check", "--fuel", "-1"),
        ("check", "--probes", "a"),
        ("run", "--fuel", "-5"),
        ("run", "--max-events", "-1"),
        ("difftest", "--pass", "uce", "--trials", "-3"),
    ],
)
def test_bad_bound_exits_64_with_usage(files, capsys, argv):
    path = files("x.il", "fun f(x) = let y = extern r(x) in f(x) in f(0)")
    paths = {"check": (path, path), "run": (path,), "difftest": ()}[argv[0]]
    code, out, err = run_cli(capsys, *argv, *paths)
    assert code == 64
    assert out == ""
    assert err.startswith("usage: il ")


def test_outputs_are_deterministic_across_invocations(files, capsys):
    path = files("l.il", LEFT)
    _, a, _ = run_cli(capsys, "analyze", "--reach", path)
    _, b, _ = run_cli(capsys, "analyze", "--reach", path)
    assert a == b


# -- inputs deeper than the recursive walks allow


@pytest.mark.parametrize(
    "argv, text",
    [
        (("parse",), "(" * 200 + "1" + ")" * 200),
        (("optimize", "--uce", "--dve"), "".join(f"let x{i} = {i} in " for i in range(600)) + "x0"),
        (("check", "--probes", "0", "--depth", "3000"), "fun f() = let x = extern r() in f() in f()"),
    ],
    ids=["parse-parens", "optimize-lets", "check-deep-game"],
)
def test_too_deep_input_exits_2_without_traceback(files, capsys, argv, text):
    path = files("deep.il", text)
    paths = (path, path) if argv[0] == "check" else (path,)
    code, out, err = run_cli(capsys, *argv, *paths)
    assert code == 2
    assert out == ""
    assert err == "il: input nests too deeply for this implementation\n"
