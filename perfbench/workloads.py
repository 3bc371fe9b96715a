"""The four workloads: seeded inputs, one timed operation each, and a
reference check on every output.

The benchmark calls only il.cli.main and names that il.cli itself
imports, so that merging the difftest drivers or trimming il's
re-exports does not break it.  The one exception is
il.equiv.enumerate_traces, the trace-set oracle the game is
cross-validated against, which no command uses.

Each workload is a closed loop with one client: the gate, `il optimize`
and `il run` are each one caller waiting on one result.
"""
from __future__ import annotations

import contextlib
import io
import json
from functools import partial
from hashlib import blake2b
from random import Random

from il import cli
from il import equiv

import corpus

DEPTH = 8  # game depth of the acceptance gate
FUEL = 10_000  # per-segment fuel of the acceptance gate


class Mismatch(Exception):
    """An output disagrees with its reference."""


def derive(seed: int, *parts) -> int:
    """Stable 63-bit seed for one input, from the workload seed only."""
    key = "/".join(map(str, (seed,) + parts))
    return int.from_bytes(blake2b(key.encode(), digest_size=8).digest(), "big") >> 1


def pool_seed(pass_name: str, index: int) -> int:
    """The `il difftest --seed` of the pool's trial index for a pass."""
    return derive(0, "difftest-pool", pass_name, index)


def digest(text: str) -> str:
    return blake2b(text.encode(), digest_size=8).hexdigest()


class Item:
    """One corpus entry: its shape, the op's arguments, its reference
    and its input term nodes.  key and decided are filled in from the
    item's first output, which later rounds must reproduce."""

    def __init__(self, kind: str, args: tuple, expect=None, nodes: int = 0):
        self.kind = kind
        self.args = args
        self.expect = expect
        self.nodes = nodes
        self.key = None
        self.decided = None


class Workload:
    """items are run round-robin; warmup says whether an untimed round
    runs first (every op of difftest is a fresh trial, so it has none)."""

    name = ""
    warmup = True

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> bool:
        """Check an item's first output against its reference.  Raise
        Mismatch when it is wrong; return False when it is undecided and
        True when it is decided and right."""
        raise NotImplementedError

    def key(self, out):
        """What a later output of the same item must equal."""
        return out

    def after_warmup(self) -> None:
        """Checks over the whole corpus, once every item has an output."""


class Difftest(Workload):
    """ROADMAP item 2 (silent-loop detection) shows here; this is the
    bypass for item 3 (iterative walks), which should not move it.

    The acceptance gate's differential run, one trial per `il difftest`
    call at depth 8 and fuel 10 000, alternating uce and dve on
    independent programs.  About 5% of trials loop silently until their
    fuel runs out; those undecided verdicts are the defect item 2 fixes.

    A looping trial costs about a hundred ordinary ones, and looping
    trials differ in cost by a factor of ten, so a run's time would
    mostly tell which loopers its seed happened to draw.  The trials are
    therefore drawn per pass from a fixed pool whose looping members,
    with their fuel exhaustions, were recorded at the commit that added
    the benchmark (record.py): loopers in the pool's own proportion, one
    from each of equal-sized strata by exhaustions, among those with the
    stratum's median exhaustions, and the rest from the pool's other
    trials.
    """

    name = "difftest"
    warmup = False
    TRIALS = 2000

    def __init__(self, seed: int, pool: dict):
        rng = Random(derive(seed, "difftest"))
        per_pass = []
        for p in ("uce", "dve"):
            looping = sorted(pool["looping"][p], key=lambda entry: (entry[1], entry[0]))
            n_looping = round(self.TRIALS // 2 * len(looping) / pool["size"])
            picked = []
            for k in range(n_looping):
                stratum = looping[len(looping) * k // n_looping : len(looping) * (k + 1) // n_looping]
                typical = stratum[(len(stratum) - 1) // 2][1]
                picked.append(rng.choice([i for i, exhaustions in stratum if exhaustions == typical]))
            looping_set = {entry[0] for entry in looping}
            rest = [i for i in range(pool["size"]) if i not in looping_set]
            picked += rng.sample(rest, self.TRIALS // 2 - n_looping)
            rng.shuffle(picked)
            per_pass.append([Item(p, (p, pool_seed(p, i))) for i in picked])
        self.items = [item for pair in zip(*per_pass) for item in pair]

    def run(self, item: Item):
        pass_name, trial_seed = item.args
        argv = ["difftest", "--pass", pass_name, "--trials", "1", "--seed", str(trial_seed),
                "--depth", str(DEPTH), "--fuel", str(FUEL)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def check(self, item: Item, out) -> bool:
        rc, text = out
        lines = text.splitlines()
        if len(lines) != 2 or not lines[1].startswith("SUMMARY"):
            raise Mismatch(f"difftest printed {len(lines)} lines")
        rec = json.loads(lines[0])
        if rc != 0 or not rec["accepted"] or rec["verdict"] == "distinguished":
            raise Mismatch(f"difftest {item.args}: rc {rc}, record {lines[0]}")
        item.nodes = rec["size"]
        if rec["verdict"] == "equivalent":
            return True
        if rec["verdict"].startswith("exhausted"):
            return False
        raise Mismatch(f"difftest {item.args}: verdict {rec['verdict']}")


class Compile(Workload):
    """ROADMAP item 3 (iterative walks, worklist liveness) shows here;
    this is the bypass for item 2, which should not move it.

    `il optimize --uce --dve` plus both `il analyze` checks on a
    size-graded corpus: groups of random bodies as typical code, forward
    call chains (one liveness round per link), reverse call chains (one
    reachability sweep per link), long let chains and deeply
    parenthesised expressions.  The structured shapes are the same for
    every seed and each has its own recorded output digest; the typical
    groups are drawn from the seed, and their outputs have one digest
    per recorded seed.
    """

    name = "compile"
    TYPICAL = 320
    CHAINS = (10, 20, 40, 80, 160)
    LETS = (50, 100, 200, 300, 400)
    PARENS = (10, 20, 40, 80, 120)

    def __init__(self, seed: int, references: dict):
        rng = Random(derive(seed, "compile"))
        self.items = [Item("typical", (corpus.typical_group(rng, 2 + i % 7),)) for i in range(self.TYPICAL)]
        texts = [("forward_chain", corpus.forward_chain(k)) for k in self.CHAINS]
        texts += [("reverse_chain", corpus.reverse_chain(k)) for k in self.CHAINS]
        texts += [("let_chain", corpus.let_chain(n)) for n in self.LETS]
        texts += [("parens", corpus.paren_exprs(d)) for d in self.PARENS]
        structured = references["structured"]
        self.items += [Item(kind, (text,), structured.get(digest(text))) for kind, text in texts]
        self.typical_digest = references["typical"].get(str(seed))

    def run(self, item: Item):
        t = cli.parse_program(item.args[0])
        reach = cli.infer_reach(t)
        reach_rejection = cli.check_reach({}, reach)
        t = cli.uce(reach)
        live = cli.infer_tlive(t)
        live_rejection = cli.check_tlive({}, {}, live)
        t = cli.dve({}, {}, live)
        return reach_rejection, live_rejection, t, cli.print_program(t)

    def check(self, item: Item, out) -> bool:
        reach_rejection, live_rejection, t, text = out
        if reach_rejection is not None or live_rejection is not None:
            raise Mismatch(f"{item.kind}: checker rejected: {reach_rejection or live_rejection}")
        if cli.parse_program(text) != t:
            raise Mismatch(f"{item.kind}: printed output does not parse back to itself")
        if item.kind != "typical" and digest(text) != item.expect:
            raise Mismatch(f"{item.kind}: optimized text differs from the recorded output")
        item.nodes = corpus.term_nodes(cli.parse_program(item.args[0]))
        item.out_nodes = corpus.term_nodes(t)
        return True

    def key(self, out):
        return out[3]

    def typical_outputs_digest(self) -> str:
        return digest("\n\n".join(item.key for item in self.items if item.kind == "typical"))

    def after_warmup(self) -> None:
        if self.typical_digest is not None and self.typical_outputs_digest() != self.typical_digest:
            raise Mismatch("typical groups: optimized text differs from the output recorded for this seed")


class Run(Workload):
    """ROADMAP items 2 and 5 pay their per-step cost here (hashing,
    counters) while the silent-loop detector has nothing to catch: no
    execution repeats a configuration, so this is item 2's bypass.
    difftest shows what it saves.

    run_trace with a seeded oracle on counter loops of 10^4 to 10^5
    iterations, three-level nested groups with wide environments, and
    loops making two system calls per iteration.  Results are checked
    against plain-Python closed forms, system-call traces against the
    oracle's hash recomputed here.  Silent steps are counted in the
    untimed round.
    """

    name = "run"
    RUN_FUEL = 10**7
    MAX_EVENTS = 10**9
    COUNTERS = tuple(round(10_000 * 10 ** (i / 5)) for i in range(6))
    NESTED = tuple((5 + i % 5, 5 + i // 6, 30 + 5 * (i % 3), 8 + i) for i in range(30))
    EXTERNS = tuple(600 + 50 * i for i in range(30))

    def __init__(self, seed: int):
        rng = Random(derive(seed, "run"))
        self.items = []
        for n in self.COUNTERS:
            text, value = corpus.counter_loop(n, rng.randrange(1, 10), rng.randrange(-99, 100))
            self.items.append(Item("counter", self._config(text, {}, 0), f"END TERM {value}\n"))
        for n0, n1, n2, width in self.NESTED:
            a = rng.randrange(-9, 10)
            text, value = corpus.nested_groups(n0, n1, n2, width)
            self.items.append(Item("nested", self._config(text, {"a": a}, 0), f"END TERM {value}\n"))
        for n in self.EXTERNS:
            oracle_seed = rng.randrange(1 << 30)
            # the reference trace is computed when the output is checked,
            # so that setup_s times building the inputs only
            trace = partial(corpus.extern_loop_trace, n, oracle_seed)
            self.items.append(Item("extern_loop", self._config(corpus.extern_loop(n), {}, oracle_seed), trace))
        for item in self.items:
            item.nodes = corpus.term_nodes(item.args[0].term)

    @staticmethod
    def _config(text: str, env: dict, oracle_seed: int) -> tuple:
        t = cli.parse_program(text)
        return cli.Config((), env, t), oracle_seed

    def run(self, item: Item):
        config, oracle_seed = item.args
        return cli.run_trace(config, cli.SeededOracle(oracle_seed), self.RUN_FUEL, self.MAX_EVENTS)

    def check(self, item: Item, out) -> bool:
        text = cli.trace_text(out)
        if text.endswith("END CUTOFF\n"):
            return False
        expect = item.expect if isinstance(item.expect, str) else item.expect()
        if text != expect:
            raise Mismatch(f"{item.kind}: trace differs from the closed form")
        return True


class Game(Workload):
    """Changes to the game's own bookkeeping show here: memo keys over
    environments and function contexts (ROADMAP's content keys instead
    of id()), anchor comparison, probe branching, and item 5's game
    counters.  It is the bypass for item 2, which should move it only a
    little.

    check_bisim on (program, uce output) and check_sim on (program, dve
    output) for loop-free, system-call-dense programs, plus the
    cross-validation of enumerate_traces against the game on random
    pairs.  Silent loops are left out on purpose so that the game's own
    work dominates; the cost of silent loops is what difftest shows.
    """

    name = "game"
    PAIRS = 100  # per pass
    ORACLE = 50
    ENV = {"a": 1, "b": 2}
    PROBES = (0, 1, 2)  # fixed, so that a game's size depends on its call count alone

    def __init__(self, seed: int):
        rng = Random(derive(seed, "game"))
        self.items = []
        for i in range(2 * self.PAIRS):
            left = cli.parse_program(corpus.extern_tree(rng, 4 + i // 2 % 2))
            if i % 2 == 0:
                self.items.append(self._pair("bisim", left, cli.uce(cli.infer_reach(left))))
            else:
                self.items.append(self._pair("sim", left, cli.dve({}, {}, cli.infer_tlive(left))))
        for _ in range(self.ORACLE):
            left = cli.parse_program(corpus.extern_tree(rng, 4))
            self.items.append(self._pair("oracle", left, cli.parse_program(corpus.extern_tree(rng, 4))))

    @staticmethod
    def _pair(kind: str, left, right) -> Item:
        return Item(kind, (left, right), nodes=corpus.term_nodes(left) + corpus.term_nodes(right))

    def _configs(self, item: Item):
        left, right = item.args
        return cli.Config((), dict(self.ENV), left), cli.Config((), dict(self.ENV), right)

    def _same_traces(self, item: Item) -> bool:
        left, right = self._configs(item)
        return equiv.enumerate_traces(left, DEPTH, self.PROBES, FUEL) == equiv.enumerate_traces(
            right, DEPTH, self.PROBES, FUEL
        )

    def run(self, item: Item):
        if item.kind == "oracle":
            same = self._same_traces(item)
            return same, cli.check_bisim(*self._configs(item), DEPTH, self.PROBES, FUEL)
        game = cli.check_bisim if item.kind == "bisim" else cli.check_sim
        return None, game(*self._configs(item), DEPTH, self.PROBES, FUEL)

    def check(self, item: Item, out) -> bool:
        same, verdict = out
        if isinstance(verdict, cli.Exhausted):
            return False
        equivalent = isinstance(verdict, cli.EquivalentToDepth)
        if item.kind == "oracle":
            if same != equivalent:
                raise Mismatch(f"game verdict {verdict} disagrees with trace-set equality {same}")
            return True
        if not equivalent:
            raise Mismatch(f"{item.kind}: pass output not equivalent: {verdict}")
        # the programs never compute an undefined result, so similarity
        # and bisimilarity both mean equal trace sets
        if not self._same_traces(item):
            raise Mismatch(f"{item.kind}: equivalent verdict but trace sets differ")
        return True
