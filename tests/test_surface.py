"""The public surface: the README's Library example runs against the
package exports, and the names the benchmark reads off il's modules
still resolve."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import il
import il.cli

ROOT = Path(__file__).resolve().parents[1]


def _library_snippet() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_package_exports_only_the_library_names():
    assert sorted(il.__all__) == ["Config", "check_sim", "dve", "infer_tlive", "parse_program", "print_program"]
    assert all(hasattr(il, name) for name in il.__all__)
    assert il.__version__


def test_readme_library_snippet_prints_its_comments():
    code = _library_snippet()
    # each comment holds one expected output line, in order
    expected = "".join(line.split("# ", 1)[1] + "\n" for line in code.splitlines() if "# " in line)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == expected


def test_benchmark_names_resolve():
    workloads = (ROOT / "perfbench" / "workloads.py").read_text()
    cli_names = set(re.findall(r"\bcli\.(\w+)", workloads))
    assert {"main", "parse_program", "uce", "dve", "check_reach", "check_tlive"} <= cli_names
    assert [n for n in sorted(cli_names) if not hasattr(il.cli, n)] == []

    spans_src = (ROOT / "perfbench" / "spans.py").read_text()
    spans = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans_src).body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets)
    )
    missing = [
        f"{module}.{name}"
        for module, names in spans.items()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
    # Tracer.install() also wraps step_silent, outside SPANS
    assert "step_silent" in spans_src
    assert hasattr(importlib.import_module("il.semantics"), "step_silent")
