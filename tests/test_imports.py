"""Every module-level import in src/ and tests/ is used, every module-level
definition in src/ has a caller there, and every binding the benchmark tracer
wraps exists.

A name counts as used when the module reads it anywhere or lists it in
``__all__``; ``from __future__`` imports are compiler directives and are
skipped.  A function or class counts as called when src/ reads its name
outside its own body or lists it in ``__all__``: a helper whose last caller
went away is deleted with it.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    used.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_level_imports_are_used(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_scan_sees_unused_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import os, re\n"
        "import os.path as osp\n"
        "from math import gcd, lcm\n"
        "__all__ = ['lcm']\n"
        "print(os.sep, gcd)\n"
    )
    assert _unused_imports(source) == ["re (line 2)", "osp (line 3)"]


def _dead_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes no module reads outside their body."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined.append((module, own))
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_every_module_level_definition_in_src_has_a_caller():
    sources = {str(p.relative_to(ROOT)): p.read_text()
               for p in FILES if p.is_relative_to(ROOT / "src")}
    assert _dead_definitions(sources) == []


def test_dead_definition_scan_sees_uncalled_recursive_and_exported_names():
    sources = {
        "a.py": (
            "__all__ = ['Exported']\n"
            "class Exported: pass\n"
            "def helper(): return 1\n"
            "def lonely(n): return lonely(n - 1) if n else 0\n"
            "def orphan(): pass\n"
        ),
        "b.py": "import a\nfrom a import helper\nVALUE = helper() + a.Exported.x\n",
    }
    assert _dead_definitions(sources) == ["a.py.lonely", "a.py.orphan"]


def test_every_binding_the_benchmark_tracer_wraps_exists():
    # perfbench/tracer.py wraps each (owner, attribute) of SITES in place;
    # one that a refactor removed breaks the benchmark, not only its tests
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SITES
    missing = [(owner.__name__, attr) for owner, attr, _ in tracer.SITES
               if attr not in vars(owner)]
    assert missing == []
