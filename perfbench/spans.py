"""Spans around calls into il's modules, recorded from outside.

Tracer.install() replaces each function named in SPANS, in every il
module namespace that binds it, by a wrapper that records a span, the
same way a test monkeypatches a module reference; uninstall() puts the
originals back.  Nothing under src/ changes.  Spans are folded into
per-name totals as they close (calls, inclusive time, self time), so
memory stays flat however many there are.  A span's self time is its
duration minus the time its child spans cover, so a module's self time
is the time spent in its own code and in the helpers it calls that are
not spans themselves.

step_silent is called once per interpreter step, so it only gets a
counting wrapper, not a span.  Per-call counts (nodes, bytes, events,
fuel exhaustion, game edges) are taken in the wrappers after the span
has closed, and the time they take is charged to the benchmark, not to
the module that was called.
"""
from __future__ import annotations

import sys
from time import perf_counter

from corpus import term_nodes

# module -> public functions that get a span
SPANS = {
    "il.syntax": ("parse_program", "print_program"),
    "il.semantics": ("run_trace", "run_to_anchor", "apply_extern"),
    "il.reach": ("infer_reach", "check_reach"),
    "il.tlive": ("infer_tlive", "check_tlive"),
    "il.transform": ("uce", "dve"),
    "il.equiv": ("check_bisim", "check_sim", "enumerate_traces"),
    "il.harness": ("gen_program", "shrink_term", "difftest_uce", "difftest_dve"),
    "il.cli": ("main",),
}
MODULES = tuple(m.split(".")[1] for m in SPANS)


def _patch(module_name: str, fn_name: str, wrapper) -> list:
    """Point every il namespace that binds the named function at wrapper;
    return what to restore."""
    orig = getattr(sys.modules[module_name], fn_name)
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "il" or name.startswith("il.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, orig))
    return undo


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []  # child time of each open span
        self._undo: list = []
        self._nodes: dict[int, tuple[object, int]] = {}
        self._game: str | None = None
        self._expect_right = False

    # -- counts taken after a span closes

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _nodes_of(self, term) -> int:
        hit = self._nodes.get(id(term))
        if hit is None or hit[0] is not term:
            if len(self._nodes) > 4096:
                self._nodes.clear()
            hit = (term, term_nodes(term))
            self._nodes[id(term)] = hit
        return hit[1]

    def _after(self, name: str, args: tuple, result) -> None:
        if name == "parse_program":
            self._count("parse_bytes", len(args[0].encode()))
            self._count("parse_nodes", self._nodes_of(result))
        elif name == "print_program":
            self._count("print_nodes", self._nodes_of(args[0]))
        elif name in ("infer_reach", "infer_tlive"):
            self._count(name + "_nodes", self._nodes_of(args[0]))
        elif name in ("check_reach", "check_tlive"):
            self._count(name + "_nodes", self._nodes_of(args[-1].term))
        elif name in ("uce", "dve"):
            self._count("nodes_in", self._nodes_of(args[-1].term))
            self._count("nodes_out", self._nodes_of(result))
        elif name == "gen_program":
            self._count("gen_nodes", self._nodes_of(result))
        elif name == "run_to_anchor":
            if type(result).__name__ == "OutOfFuel":
                self._count("out_of_fuel")
            if self._game is not None:
                self._anchor_in_game(result)
        elif name == "apply_extern":
            self._count("events")
            if self._game is not None:
                self._count("game_externs")

    def _anchor_in_game(self, anchor) -> None:
        """A game node that misses the memo runs its left side first and
        then, unless the similarity game stops on an undefined left
        result, its right side; a hit runs neither.  So the left runs
        count the misses."""
        self._count("anchor_runs")
        if self._expect_right:
            self._expect_right = False
            return
        self._count("game_misses")
        left_bot = type(anchor).__name__ == "Done" and anchor.result is None
        self._expect_right = not (self._game == "sim" and left_bot)

    # -- wrappers

    def _span(self, name: str, fn):
        stack = self._stack
        game = {"check_bisim": "bisim", "check_sim": "sim"}.get(name)
        active = [False]  # uce and dve call themselves: one span per outermost call

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            if game is not None:
                self._game, self._expect_right = game, False
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
                if game is not None:
                    self._game = None
                active[0] = False
            t1 = perf_counter()
            self._after(name, args, result)
            hook = perf_counter() - t1
            if stack:
                stack[-1] += dur + hook
            return result

        return wrapper

    def _step_counter(self, fn):
        counts = self.counts

        def step_silent(config):
            step = fn(config)
            if getattr(step, "config", None) is not None:
                counts["stepped"] = counts.get("stepped", 0) + 1
            return step

        return step_silent

    def install(self) -> None:
        for module, names in SPANS.items():
            for name in names:
                fn = getattr(sys.modules[module], name)
                self._undo += _patch(module, name, self._span(name, fn))
        fn = sys.modules["il.semantics"].step_silent
        self._undo += _patch("il.semantics", "step_silent", self._step_counter(fn))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo = []

    def silent_steps(self) -> int:
        return self.counts.get("stepped", 0) - self.counts.get("out_of_fuel", 0)

    # -- per-layer metrics

    def module_self_s(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for module, names in SPANS.items():
            short = module.split(".")[1]
            out[short] += sum(self.self_time.get(n, 0.0) for n in names)
        return out

    def layer_metrics(
        self, rounds: int, scale: float, traced_s: float, untraced_s: float
    ) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass over the corpus.  Span times are
        multiplied by scale, the factor that took the traced rounds'
        op times to the reference machine; traced_s and untraced_s are
        already scaled."""
        c = self.counts.get

        def tot(name: str, default: float) -> float:
            return self.total.get(name, default) * scale

        def slf(name: str, default: float) -> float:
            return self.self_time.get(name, default) * scale

        def per(x: float) -> float:
            return x / rounds

        def rate(n: float, s: float) -> float:
            return n / s if s > 0 else 0.0

        games = self.calls.get("check_bisim", 0) + self.calls.get("check_sim", 0)
        edges = c("game_externs", 0) // 2
        visits = games + edges
        m: dict[str, tuple[float, str]] = {
            "syntax.parse_s": (per(tot("parse_program", 0.0)), "s"),
            "syntax.parse_nodes_per_s": (rate(c("parse_nodes", 0), tot("parse_program", 0.0)), "nodes/s"),
            "syntax.parse_bytes_per_s": (rate(c("parse_bytes", 0), tot("parse_program", 0.0)), "B/s"),
            "syntax.print_s": (per(tot("print_program", 0.0)), "s"),
            "syntax.print_nodes_per_s": (rate(c("print_nodes", 0), tot("print_program", 0.0)), "nodes/s"),
            "semantics.run_to_anchor_s": (per(slf("run_to_anchor", 0.0)), "s"),
            "semantics.run_to_anchor_calls": (per(self.calls.get("run_to_anchor", 0)), "count"),
            "semantics.silent_steps": (per(self.silent_steps()), "count"),
            "semantics.steps_per_s": (rate(self.silent_steps(), tot("run_to_anchor", 0.0)), "1/s"),
            "semantics.out_of_fuel": (per(c("out_of_fuel", 0)), "count"),
            "semantics.events": (per(c("events", 0)), "count"),
            "semantics.apply_extern_s": (per(tot("apply_extern", 0.0)), "s"),
        }
        for mod in ("reach", "tlive"):
            for kind in ("infer", "check"):
                fn = f"{kind}_{mod}"
                m[f"{mod}.{kind}_s"] = (per(tot(fn, 0.0)), "s")
                m[f"{mod}.{kind}_nodes_per_s"] = (rate(c(fn + "_nodes", 0), tot(fn, 0.0)), "nodes/s")
        m.update(
            {
                "transform.uce_s": (per(tot("uce", 0.0)), "s"),
                "transform.dve_s": (per(tot("dve", 0.0)), "s"),
                "transform.nodes_in": (per(c("nodes_in", 0)), "count"),
                "transform.nodes_out": (per(c("nodes_out", 0)), "count"),
                "transform.size_ratio": (rate(c("nodes_out", 0), c("nodes_in", 0)), "ratio"),
                "equiv.game_s": (per(slf("check_bisim", 0.0) + slf("check_sim", 0.0)), "s"),
                "equiv.games": (per(games), "count"),
                "equiv.anchor_runs": (per(c("anchor_runs", 0)), "count"),
                "equiv.edges": (per(edges), "count"),
                "equiv.memo_hit_rate": (1.0 - rate(c("game_misses", 0), visits) if visits else 0.0, "share"),
                "equiv.enumerate_s": (per(slf("enumerate_traces", 0.0)), "s"),
                "harness.gen_s": (per(tot("gen_program", 0.0)), "s"),
                "harness.gen_nodes_per_s": (rate(c("gen_nodes", 0), tot("gen_program", 0.0)), "nodes/s"),
                "harness.shrink_s": (per(tot("shrink_term", 0.0)), "s"),
                "cli.main_s": (per(tot("main", 0.0)), "s"),
            }
        )
        self_s = {mod: s * scale for mod, s in self.module_self_s().items()}
        in_spans = sum(self_s.values())
        for mod, s in self_s.items():
            m[f"{mod}.self_s"] = (per(s), "s")
        m["bench.self_s"] = (per(traced_s - in_spans), "s")
        m["bench.trace_overhead_share"] = (traced_s / untraced_s - 1.0, "share")
        return m
