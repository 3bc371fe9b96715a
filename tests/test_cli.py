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


@pytest.mark.parametrize(
    "argv",
    [("run",), ("parse",), ("analyze", "--tlive"), ("optimize", "--dve"), ("check",)],
    ids=["run", "parse", "analyze", "optimize", "check"],
)
def test_non_utf8_file_exits_66_without_traceback(capsys, tmp_path, argv):
    path = tmp_path / "bytes.il"
    path.write_bytes(b"\xff\xfe a")
    paths = (str(path), str(path)) if argv[0] == "check" else (str(path),)
    code, out, err = run_cli(capsys, *argv, *paths)
    assert code == 66
    assert out == ""
    assert err == f"cannot read {path}: not valid UTF-8 text\n"


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


@pytest.mark.parametrize("entry", ["=3", " =3", "1a=2", "let=2", "a b=1", "a+b=1"])
def test_run_env_name_must_be_a_variable(files, capsys, entry):
    path = files("v.il", "a")
    code, out, err = run_cli(capsys, "run", path, "--env", entry)
    assert code == 64
    assert out == ""
    assert err == f"bad --env entry: {entry.strip()!r}\n"


@pytest.mark.parametrize("entry", ["a=1_0", "a=٣", "a=+3"])
def test_run_env_value_must_be_a_literal(files, capsys, entry):
    # spellings int() accepts but the language's literals do not
    path = files("v.il", "a")
    code, out, err = run_cli(capsys, "run", path, "--env", entry)
    assert code == 64
    assert out == ""
    assert err == f"bad --env entry: {entry!r}\n"


def test_run_env_value_wraps_to_64_bits(files, capsys):
    path = files("v.il", "if b < 0 then a else 0")
    code, out, _ = run_cli(capsys, "run", path, "--env", f"a={2**64 + 5},b={2**63}")
    assert code == 0
    assert out == "END TERM 5\n"


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


@pytest.mark.parametrize("flags", [("--dve",), ("--uce", "--dve")])
def test_optimize_folds_excluded_branch_with_unbound_callee(files, capsys, flags):
    # check_tlive skips the excluded branch, so dve must not descend into it
    path = files("e.il", "if 0 then f(1) else 2")
    code, out, err = run_cli(capsys, "optimize", *flags, path)
    assert (code, out, err) == (0, "2\n", "")


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


def test_check_out_of_range_env_is_wrapped_like_a_literal(files, capsys):
    l, r = files("a.il", "a"), files("b.il", "let x = a in x + 0")
    code, out, _ = run_cli(capsys, "check", l, r, "--env", "a=99999999999999999999999")
    assert (code, out) == (0, "EQUIVALENT to depth 8\n")


def test_check_out_of_range_probe_is_wrapped(files, capsys):
    l, r = files("a.il", "let r = extern rd() in r"), files("b.il", "let r = extern rd() in r + 0")
    code, out, _ = run_cli(capsys, "check", l, r, "--probes", str(2**64 + 1))
    assert (code, out) == (0, "EQUIVALENT to depth 8\n")


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


PINNED_PROGRAMS = [
    LEFT,
    RIGHT,
    "f(1)",
    "if 0 then f(1) else 2",
    "fun f(x, y) = if 0 then f(x, y) else x in f(a, b)",
    "fun f(x) = let y = extern r(x) in f(x) in f(0)",
    "fun f() = let x = extern r() in f() in f()",
    "".join(f"let x{i} = {i} in " for i in range(600)) + "x0",
    "let x = 1 in",
]


def test_pass_output_digest_is_pinned(files, capsys):
    # pins stdout, stderr and exit code of the analyses and the passes on
    # 200 generated programs plus the inputs above; the digest is the one
    # the recursive front end gave at a raised recursion limit, where the
    # 600 nested lets no longer exit 2
    from il.harness import GenConfig, derive_seed, gen_program

    programs = PINNED_PROGRAMS + [print_program(gen_program(GenConfig(seed=derive_seed(0, i)))) for i in range(200)]
    h = blake2b(digest_size=16)
    for i, src in enumerate(programs):
        path = files(f"p{i}.il", src)
        for flags in (("analyze", "--reach"), ("analyze", "--tlive"), ("optimize", "--uce"),
                      ("optimize", "--dve"), ("optimize", "--uce", "--dve")):
            code, out, err = run_cli(capsys, *flags, path)
            h.update(f"{code}\0{out}\0{err.replace(path, '<file>')}\0".encode())
    assert h.hexdigest() == "5eee64f341c50eddbe672afb68104087"


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
        ("check", "--probes", "٣,1_0"),
        ("run", "--fuel", "-5"),
        ("run", "--max-events", "-1"),
        ("difftest", "--pass", "uce", "--trials", "-3"),
        # spellings int() accepts but a bound or a seed does not
        ("check", "--depth", "٣"),
        ("check", "--depth", "-0"),
        ("check", "--fuel", "+5"),
        ("run", "--max-events", "1_0"),
        ("run", "--oracle-seed", "+3"),
        ("run", "--oracle-seed", " 3"),
        ("difftest", "--pass", "uce", "--seed", "+3"),
        ("difftest", "--pass", "uce", "--seed", "٣"),
        ("difftest", "--pass", "uce", "--trials", " 2"),
        ("difftest", "--pass", "uce", "--trials", "2\n"),
        ("difftest", "--pass", "uce", "--seed", "-" + "1" * 5000),
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


# -- inputs deeper than the recursion limit: no walk recurses, and each
# expected output is the one the recursive front end printed for the
# same input at a raised recursion limit


@pytest.mark.parametrize(
    "argv, text, expected",
    [
        (("parse",), "(" * 1000 + "1" + ")" * 1000, "1\n"),
        (
            ("optimize", "--uce", "--dve"),
            "".join(f"let x{i} = {i} in " for i in range(600)) + "x0",
            "let x0 = 0 in\nx0\n",
        ),
        (("check",), "(" * 1000 + "1" + ")" * 1000, "EQUIVALENT to depth 8\n"),
        # flat: evaluation goes down the sum's left operands in a loop
        (("run",), " + ".join(["a"] * 2000), "END BOT\n"),
    ],
    ids=["parse-parens", "optimize-lets", "check-parens", "run-flat-sum"],
)
def test_deep_input_exits_0_with_the_expected_output(files, capsys, argv, text, expected):
    path = files("deep.il", text)
    paths = (path, path) if argv[0] == "check" else (path,)
    code, out, err = run_cli(capsys, *argv, *paths)
    assert (code, out, err) == (0, expected, "")


# -- the game and the oracle keep no Python frame per pending call

CALL_LOOP = "fun f() = let x = extern r() in f() in f()"


def test_deep_game_is_decided(files, capsys):
    path = files("deep.il", CALL_LOOP)
    code, out, err = run_cli(capsys, "check", "--probes", "0", "--depth", "100000", path, path)
    assert (code, out, err) == (0, "EQUIVALENT to depth 100000\n", "")


def test_deep_game_witness_has_one_line_per_call(files, capsys):
    left = files("l.il", CALL_LOOP)
    right = files("r.il", "fun f(n) = if n < 99999 then let x = extern r() in f(n+1) else 0 in f(0)")
    code, out, err = run_cli(capsys, "check", "--probes", "0", "--depth", "100000", left, right)
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert lines[:-1] == ["EVT r()=0 [probe 0]"] * 99_999
    assert lines[-1] == "DISTINGUISHED right side terminates while the other is at a system call"
