"""Command line interface.

Subcommands: parse, run, analyze, optimize, check, difftest.

Exit codes: 0 success (for check: equivalent), 1 distinguished or
rejected, 2 parse error or exhausted check, 64 usage error, 66 file not
readable or not valid UTF-8.
Integer options are spelled in ASCII digits, seeds with an optional
leading "-".  Output is plain text, byte-stable for a fixed input and
seed.
"""
from __future__ import annotations

import argparse
import re
import sys
from typing import Optional, Sequence

from .equiv import Distinguished, EquivalentToDepth, Exhausted, check_bisim, check_sim, default_probes, make_probes
from .harness import DiffReport, GenConfig, difftest_dve, difftest_uce
from .reach import Rejection, check_reach, infer_reach
from .semantics import Config, SeededOracle, run_trace, trace_text
from .syntax import ParseError, Term, int_literal, is_var_name, parse_program, print_program, sidecar_text
from .tlive import check_tlive, infer_tlive
from .transform import run_pass
from .transform import dve, uce  # noqa: F401 - unused here; perfbench/workloads.py reads them off il.cli

EX_USAGE = 64
EX_NOINPUT = 66

_INTEGER_RE = re.compile("-?[0-9]+")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _integer(text: str) -> int:
    """argparse type for a seed: ASCII digits with an optional leading
    "-", not wrapped."""
    if not _INTEGER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _non_negative(text: str) -> int:
    """argparse type for a non-negative bound (depth, fuel, trials,
    events): ASCII digits."""
    n = _integer(text)
    if text.startswith("-"):
        raise argparse.ArgumentTypeError(f"must be non-negative: {text!r}")
    return n


def _probe_list(text: str) -> tuple[int, ...]:
    """argparse type for --probes: comma separated integers, each spelled
    like a literal, optionally negated."""
    probes = tuple(int_literal(x.strip()) for x in text.split(","))
    if None in probes:
        raise argparse.ArgumentTypeError(f"invalid probe list: {text!r}")
    return probes


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"cannot read {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(EX_NOINPUT)
    except UnicodeDecodeError:
        print(f"cannot read {path}: not valid UTF-8 text", file=sys.stderr)
        raise SystemExit(EX_NOINPUT)


def _parse_file(path: str) -> Term:
    try:
        return parse_program(_read(path))
    except ParseError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        raise SystemExit(2)


def _parse_env(spec: Optional[str]) -> dict[str, int]:
    env: dict[str, int] = {}
    if not spec:
        return env
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        number = int_literal(value.strip())
        if number is None or not is_var_name(name):
            print(f"bad --env entry: {item!r}", file=sys.stderr)
            raise SystemExit(EX_USAGE)
        env[name] = number  # 64-bit, as the parser reads literals
    return env


def _cmd_parse(args) -> int:
    t = _parse_file(args.file)
    print(print_program(t))
    return 0


def _cmd_run(args) -> int:
    t = _parse_file(args.file)
    env = _parse_env(args.env)
    oracle = SeededOracle(args.oracle_seed)
    trace = run_trace(Config((), env, t), oracle, args.fuel, args.max_events)
    print(trace_text(trace), end="")
    return 0


def _cmd_analyze(args) -> int:
    t = _parse_file(args.file)
    if args.reach:
        ann = infer_reach(t)
        rej = check_reach({}, ann)
    else:
        ann = infer_tlive(t)
        rej = check_tlive({}, {}, ann)
    print(sidecar_text(ann), end="")
    if rej is None:
        print("ACCEPTED")
        return 0
    print(f"REJECTED {rej}")
    return 1


def _cmd_optimize(args) -> int:
    t = _parse_file(args.file)
    if not args.uce and not args.dve:
        print("optimize: need --uce and/or --dve", file=sys.stderr)
        return EX_USAGE
    for name in ("uce", "dve"):
        if not getattr(args, name):
            continue
        done = run_pass(name, t)
        if isinstance(done, Rejection):
            print(f"REJECTED {done}", file=sys.stderr)
            return 1
        t = done[1]
    print(print_program(t))
    return 0


def _cmd_check(args) -> int:
    left = _parse_file(args.left)
    right = _parse_file(args.right)
    env = _parse_env(args.env)
    if args.probes:
        probes = make_probes(args.probes)
    else:
        probes = default_probes(left, right)
    game = check_sim if args.sim else check_bisim
    verdict = game(
        Config((), dict(env), left),
        Config((), dict(env), right),
        args.depth,
        probes,
        args.fuel,
    )
    if isinstance(verdict, EquivalentToDepth):
        print(f"EQUIVALENT to depth {verdict.depth}")
        return 0
    if isinstance(verdict, Distinguished):
        for ev, choice in zip(verdict.events, verdict.probes):
            print(f"EVT {ev.action}({','.join(map(str, ev.args))})={ev.result} [probe {choice}]")
        print(f"DISTINGUISHED {verdict.reason}")
        return 1
    assert isinstance(verdict, Exhausted)
    print(f"EXHAUSTED {verdict.reason}")
    return 2


def _cmd_difftest(args) -> int:
    cfg = GenConfig(seed=args.seed)
    run = difftest_uce if args.pass_name == "uce" else difftest_dve
    report: DiffReport = run(cfg, args.trials, depth=args.depth, fuel=args.fuel)
    for rec in report.records:
        print(rec.to_json())
    print(report.summary())
    return 1 if (report.distinguished or report.rejected) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _Parser(prog="il", description="mini compiler for the IL language")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and pretty print a program")
    p.add_argument("file")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("run", help="run a program with a seeded oracle")
    p.add_argument("file")
    p.add_argument("--fuel", type=_non_negative, default=10_000)
    p.add_argument("--oracle-seed", type=_integer, default=0)
    p.add_argument("--max-events", type=_non_negative, default=256)
    p.add_argument("--env", help="comma separated name=value bindings")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("analyze", help="infer and verify an analysis")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--reach", action="store_true")
    mode.add_argument("--tlive", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("optimize", help="apply optimization passes")
    p.add_argument("--uce", action="store_true")
    p.add_argument("--dve", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("check", help="bounded equivalence game on two programs")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--bisim", action="store_true", default=True)
    mode.add_argument("--sim", action="store_true")
    p.add_argument("--depth", type=_non_negative, default=8)
    p.add_argument("--fuel", type=_non_negative, default=10_000)
    p.add_argument("--probes", type=_probe_list, help="comma separated oracle results to branch on")
    p.add_argument("--env", help="comma separated name=value bindings shared by both sides")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("difftest", help="random differential testing of a pass")
    p.add_argument("--pass", dest="pass_name", choices=("uce", "dve"), required=True)
    p.add_argument("--trials", type=_non_negative, default=100)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--depth", type=_non_negative, default=8)
    p.add_argument("--fuel", type=_non_negative, default=10_000)
    p.set_defaults(func=_cmd_difftest)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse and file errors carry their code
        return exc.code if isinstance(exc.code, int) else EX_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
