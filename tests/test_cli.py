"""Command-line interface: exit codes and byte-stable output."""

import json
import os
import random
import re
import subprocess
import sys
from hashlib import blake2b

import pytest

from il import cli, semantics
from il.cli import main
from audits import initial_env
from il.harness import GenConfig, derive_seed, gen_program
from il.reach import infer_reach
from il.syntax import is_var_name, parse_program, print_program, sidecar_text
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


def fresh_env():
    """The environment of a fresh interpreter that imports this il."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)), COLUMNS="80")


def run_fresh(*argv, program=("-m", "il.cli")):
    """Run il in a fresh interpreter; returns exit code, stdout, stderr."""
    done = subprocess.run([sys.executable, *program, *argv], capture_output=True, text=True, env=fresh_env(), timeout=300)
    return done.returncode, done.stdout, done.stderr


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
    path = files("d.il", "fun f(x) = if x < 0 then 0 else f(x + 1) in f(0)")
    code, out, _ = run_cli(capsys, "run", path, "--fuel", "40")
    assert code == 0
    assert out == "END CUTOFF\n"
    # a counter that only feeds itself repeats its key
    path = files("e.il", "fun f(x) = f(x + 1) in f(0)")
    code, out, _ = run_cli(capsys, "run", path, "--fuel", "40")
    assert code == 0
    assert out == "END DIVERGE\n"


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
    l, r = files("a.il", "fun f(x) = if x < 0 then 0 else f(x + 1) in f(0)"), files("b.il", "3")
    code, out, _ = run_cli(capsys, "check", l, r, "--fuel", "30")
    assert code == 2
    assert out == "EXHAUSTED fuel\n"
    # a counter that only feeds itself is decided: it diverges silently
    l = files("c.il", "fun f(x) = f(x + 1) in f(0)")
    code, out, _ = run_cli(capsys, "check", l, r, "--fuel", "30")
    assert (code, out) == (1, "DISTINGUISHED left side diverges silently while the other does not\n")


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
    "pass_name, trials, seed, digest",
    [
        pytest.param("uce", 200, 0, "331acd3951c0e0662a7ef30535ae93cc", id="uce-331acd3951c0e0662a7ef30535ae93cc"),
        pytest.param("dve", 200, 0, "8b204bc725e0cae420672ff49a36b994", id="dve-8b204bc725e0cae420672ff49a36b994"),
        ("uce", 500, 0, "4e7ea7388bea71d45820110bf4c3e472"),
        ("uce", 500, 7, "d21ccbcee01678218274ed5b15a9710f"),
        ("dve", 500, 0, "7c2021bf1965c28f8e6b47f25b3cd788"),
        ("dve", 500, 7, "7908918b9ea00be1e3710ad82cecca9a"),
    ],
)
def test_difftest_output_digest_is_pinned(capsys, pass_name, trials, seed, digest):
    # pins both protocols' record bytes: the 200-trial digests were recorded
    # from the two separate drivers difftest replaced, the 500-trial ones
    # before a trial stopped folding term facts over its whole program
    code, out, _ = run_cli(capsys, "difftest", "--pass", pass_name, "--trials", str(trials), "--seed", str(seed))
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


# the loop programs of tests/test_semantics.py: a counter, a repeat of
# period 3, an even/odd pair, extern_loop, the loops past calls, and
# two-member cycles that make system calls
LOOP_PROGRAMS = [
    "fun f(i) = if i < 1000 then f(i + 1) else i in f(0)",
    "fun f(i) = if i < 3 then f(i + 1) else f(0) in f(0)",
    "fun f(i) = if i < 1000 then g(i + 1) else i and g(j) = f(j) in f(0)",
    "fun loop(i, acc) = if i < 100 then let r = extern rd(i, acc) in let s = extern wr(r + i) in"
    " loop(i + 1, acc + r * s) else acc in loop(0, 0)",
    "fun f(i, acc) = if i < 45 then if i / 3 * 3 = i then f(i + 1, acc + i) else"
    " let r = extern rd(i, acc) in f(i + 1, acc + r) else acc in f(0, 0)",
    "fun f(i, acc) = if i < 45 then if i / 3 * 3 = i then let r = extern rd(i, acc) in"
    " f(i + 1, acc + r) else f(i + 1, acc + i) else acc in f(0, 0)",
    "fun f(i, k) = if i < 45 then if k < 1 then let r = extern rd(i) in f(i + 1, r + 9) else f(i, k - 1) else k in f(0, 0)",
    "fun f(i) = if i < 40 then let r = extern rd(i) in f(i + 1) else f(i) in f(0)",
    "fun f(i) = if i < 40 then let r = extern rd(i) in f(i + 1) else if i < 43 then f(i + 1) else f(40) in f(0)",
    "fun f(i, n) = if i < 40 then let r = extern rd(i) in f(i + 1, r) else f(i, n * 0) in f(0, 0)",
    "fun f(i) = if i < 40 then let r = extern rd(i) in let s = extern wr(r) in f(i + 1) else f(i + 1) in f(0)",
    "fun ev(i, acc) = if i < 400 then let r = extern rd(i, acc) in od(i + 1, acc + r) else acc"
    " and od(i, acc) = ev(i + 1, acc * 1) in ev(0, 0)",
    "fun ev(i, acc) = if i < 400 then od(i + 1, acc + 1) else acc"
    " and od(i, acc) = let r = extern rd(i, acc) in ev(i + 1, acc + r) in ev(0, 0)",
    "fun ev(i, acc) = if i < 200 then let r = extern rd(i) in od(i + 1, acc + r) else acc"
    " and od(i, acc) = let s = extern wr(acc) in ev(i + 1, acc * s) in ev(0, 0)",
    "fun ev(i, n) = if i < 40 then let r = extern rd(i) in od(i + 1, r) else od(i, n * 0)"
    " and od(i, n) = if i < 40 then ev(i + 1, n) else ev(i, n) in ev(0, 0)",
]


def test_run_output_digest_is_pinned(files, capsys, monkeypatch):
    # pins stdout and exit code of il run at several fuels and event caps
    # on the programs above and 200 generated programs, with segments
    # compiled at the default threshold and on their first entry; the
    # digest is the one the interpreter gave before every loop site made
    # Brent's save itself, except that where the loop programs' f(i, n)
    # reaches f(i, n * 0) at --fuel 3, its key now leaves out n, which
    # only feeds itself, so that run ends END DIVERGE, not END CUTOFF
    programs = PINNED_PROGRAMS + LOOP_PROGRAMS + [print_program(gen_program(GenConfig(seed=derive_seed(0, i)))) for i in range(200)]
    paths = [files(f"p{i}.il", src) for i, src in enumerate(programs)]
    flags = ((), ("--fuel", "0"), ("--fuel", "3"), ("--fuel", "40"), ("--max-events", "1"), ("--max-events", "5"))
    for hot in (semantics.HOT_ENTRIES, 1):
        monkeypatch.setattr(semantics, "HOT_ENTRIES", hot)
        h = blake2b(digest_size=16)
        for path in paths:
            for extra in flags:
                code, out, _ = run_cli(capsys, "run", path, *extra)
                h.update(f"{code}\0{out}\0".encode())
        assert h.hexdigest() == "1dcad25b8cf110482b0394777b66a147", hot


def _distinguished_pair(j):
    """Two programs that differ only after some system calls, so that
    their witness has EVT lines: in a result that depends on a probe, in
    the result after a loop of calls, in a pending call, or in silent
    divergence after a call."""
    k = j // 4
    if j % 4 == 0:
        left = f"let x = extern r({k}) in if x = {k % 3} then {k} else 0"
        return left, left.replace(f"then {k} ", f"then {k + 1} ")
    if j % 4 == 1:
        loop = f"fun f(n) = if n < {k % 3 + 1} then let x = extern r(n) in f(n + 1 + x * 0) else n in f(0)"
        return loop, loop.replace("else n in", f"else {k % 3 + 2} in")
    if j % 4 == 2:
        left = f"let x = extern rd({k}) in let y = extern rd(x) in let z = extern wr(y + {k}) in z"
        return left, left.replace(f"wr(y + {k})", f"wr(y + {k + 1})")
    left = f"let x = extern r({k}) in fun f() = f() in if x < {k % 3} then f() else x"
    return left, left.replace("then f()", "then x")


def test_check_output_digest_is_pinned(files, capsys):
    # pins stdout and exit code of il check in both modes, at depths 0, 1
    # and 8, with the default probes and with 0,1,2: on the inputs above
    # against themselves and their uce and dve outputs, on 100 generated
    # programs (inputs bound) against their uce and dve outputs, and on 24
    # pairs distinguished after some system calls; the digest is the one
    # the game gave before it built its records with _new
    pairs = []
    for i, src in enumerate(PINNED_PROGRAMS):
        path = files(f"p{i}.il", src)
        pairs.append((path, path, ()))
        for flag in ("--uce", "--dve"):
            code, out, _ = run_cli(capsys, "optimize", flag, path)
            if code == 0:
                pairs.append((path, files(f"p{i}{flag}.il", out), ()))
    for i in range(100):
        seed = derive_seed(0, i)
        t = gen_program(GenConfig(seed=seed))
        env = initial_env(t, random.Random(seed))
        bound = ("--env", ",".join(f"{v}={x}" for v, x in env.items())) if env else ()
        path = files(f"g{i}.il", print_program(t))
        for flag in ("--uce", "--dve"):
            code, out, _ = run_cli(capsys, "optimize", flag, path)
            assert code == 0
            pairs.append((path, files(f"g{i}{flag}.il", out), bound))
    for j in range(24):
        left, right = _distinguished_pair(j)
        pairs.append((files(f"d{j}l.il", left), files(f"d{j}r.il", right), ()))
    h = blake2b(digest_size=16)
    witnesses = 0
    for left, right, bound in pairs:
        for mode in ("--bisim", "--sim"):
            for depth in ("0", "1", "8"):
                for probes in ((), ("--probes", "0,1,2")):
                    code, out, _ = run_cli(capsys, "check", mode, "--depth", depth, *probes, *bound, left, right)
                    h.update(f"{code}\0{out}\0".encode())
                    witnesses += "[probe " in out
    assert witnesses >= 20
    assert h.hexdigest() == "7710293c6fe9f2eb3e6312389df20e6d"


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


# -- the parser is built once per process and keeps no state between calls


def test_reused_parser_matches_a_fresh_process(files, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # the width --help wraps to, as in run_fresh
    left = files("l.il", "fun f(x) = if 9 < x then 1 else let y = extern r(x) in f(x + y) in f(3)")
    right = files("r.il", "fun f(x) = if 9 < x then 2 else let y = extern r(x) in f(x + 1) in f(3)")
    sequence = [
        ("parse", "--frob", left),
        ("check", "--sim", "--bisim", left, right),
        ("--help",),
        ("check", "--help"),
        ("parse", str(tmp_path / "absent.il")),
        ("parse", left),
        ("run", left),
        ("analyze", "--reach", left),
        ("analyze", "--tlive", left),
        ("optimize", "--uce", "--dve", left),
        ("check", left, right),
        ("difftest", "--pass", "uce", "--trials", "3"),
    ]
    in_process = [run_cli(capsys, *argv) for argv in sequence]
    for argv, got in zip(sequence, in_process):
        assert got == run_fresh(*argv), argv
    assert cli._parser() is cli._parser()


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


@pytest.mark.parametrize("probes", ["0", "0,1,2"])
def test_dead_result_game_keeps_no_memo(files, probes):
    # the call loop never reads its result, so under any probe set its
    # game is a path: it keys no node and keeps no spent anchor, and
    # 10^5 open frames hold little more than their events
    path = files("deep.il", CALL_LOOP)
    report_rss = (
        "import resource, runpy\n"
        "try:\n"
        "    runpy.run_module('il.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    argv = ("check", "--probes", probes, "--depth", "100000", path, path)
    code, out, err = run_fresh(*argv, program=("-c", report_rss))
    verdict, rss = out.splitlines()
    assert (code, verdict, err) == (0, "EQUIVALENT to depth 100000", "")
    assert int(rss) / (1024 * 1024 if sys.platform == "darwin" else 1024) < 80  # MB


# -- output that cannot be written ends with EX_IOERR, in a fresh
# interpreter, whose flush of stdout at exit could fail too


def test_closed_output_pipe_exits_74_without_traceback(files):
    # the reader closes the pipe after one line of about 300 kB
    path = files("lets.il", "".join(f"let x{i} = {i} in " for i in range(20_000)) + "x0")
    argv = [sys.executable, "-m", "il.cli", "parse", path]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env()) as proc:
        assert proc.stdout.readline() == b"let x0 = 0 in\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == cli.EX_IOERR == 74
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_output_device_exits_74_without_traceback(files):
    path = files("p.il", "let x = 1 in x")
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "il.cli", "parse", path], stdout=full, stderr=subprocess.PIPE, env=fresh_env(), timeout=300)
    assert done.returncode == cli.EX_IOERR
    assert done.stderr == b"il: cannot write output: No space left on device\n"


# -- no input gives a traceback

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|[0-9]+|<=|\S")
_NAMES = ("x", "y", "f", "g", "h", "u1", "rd", "zz'")
_NUMBERS = ("0", "1", "7", "9223372036854775807", "9223372036854775808", "99999999999999999999999")
_OPERATORS = ("=", "<", "<=", "+", "-", "*", "/")
_OTHERS = ("let", "in", "if", "then", "else", "fun", "and", "extern", "!", "(", ")", ",", "#", "\u00e9")
_COMMANDS = (
    ("parse",),
    ("run",),
    ("analyze", "--reach"),
    ("analyze", "--tlive"),
    ("optimize", "--uce", "--dve"),
    ("check",),
    ("check", "--sim"),
)


def _own_class(token):
    """The tokens a name, number or operator may be swapped for."""
    if token.isdigit():
        return _NUMBERS
    if token in _OPERATORS:
        return _OPERATORS
    return _NAMES if is_var_name(token) else None


def _edited(text, rng):
    """text with one or two random token edits: a name, number or
    operator swapped for another of its class (which mostly keeps the
    program parsing, so later stages see edited programs too), or any
    token replaced by one of any class, deleted or duplicated."""
    tokens = _TOKEN.findall(text)
    for _ in range(rng.randint(1, 2)):
        edit = rng.randrange(7)
        if edit < 4:
            i = rng.choice([j for j, token in enumerate(tokens) if _own_class(token)])
            tokens[i] = rng.choice(_own_class(tokens[i]))
            continue
        i = rng.randrange(len(tokens))
        if edit == 4:
            tokens[i] = rng.choice(rng.choice((_NAMES, _NUMBERS, _OPERATORS, _OTHERS)))
        elif edit == 5:
            del tokens[i]
        else:
            tokens.insert(i, tokens[i])
    return " ".join(tokens)


@pytest.mark.parametrize("seed", range(8))
def test_no_edited_program_gives_a_traceback(files, capsys, seed):
    # generated programs, each with one or two token edits, through
    # every subcommand that reads a program: each ends with an exit
    # code from the documented set, never with an exception
    rng = random.Random(seed)
    for k in range(40):
        original = print_program(gen_program(GenConfig(seed=derive_seed(31, seed * 40 + k))))
        edited = _edited(original, rng)
        left, right = files("left.il", edited), files("right.il", original)
        for command in _COMMANDS:
            paths = (left, right) if command[0] == "check" else (left,)
            if command[-1] == "--sim":  # the game is asymmetric: the edited side goes right
                paths = paths[::-1]
            assert main([*command, *paths]) in (0, 1, 2, 64, 66), (command, edited)
            capsys.readouterr()
