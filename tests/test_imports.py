"""Every module-level import in src/ and tests/ is used, every module-level
definition in src/ has a caller there, every method of a src/ class has a
caller in src/ or perfbench/, and every binding the benchmark tracer wraps
exists.

A name counts as used when the module reads it anywhere or lists it in
``__all__``; ``from __future__`` imports are compiler directives and are
skipped.  A function or class counts as called when src/ reads its name
outside its own body or lists it in ``__all__``: a helper whose last caller
went away is deleted with it.  A method other than a dunder counts as called
when src/ or perfbench/ reads its name outside its own body, or when the
tracer's ``SITES`` names it as a string.
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


def _reads(node: ast.AST, own: set[str]) -> set[str]:
    """Names and attribute names read in ``node``, except those in ``own``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names - own


def _dead_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes no module reads outside their body."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = set()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {node.name}
                defined.append((module, node.name))
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
            used |= _reads(node, own)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def _sources(top: str) -> dict[str, str]:
    return {str(p.relative_to(ROOT)): p.read_text()
            for p in sorted((ROOT / top).rglob("*.py"))}


def test_every_module_level_definition_in_src_has_a_caller():
    assert _dead_definitions(_sources("src")) == []


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


def _dead_methods(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Methods (dunders aside) of the module-level classes of ``sources``
    whose name no module of ``sources`` or ``readers`` reads outside the
    method's own body; a string in a tuple assigned to ``SITES`` names one."""
    methods: list[tuple[str, str]] = []
    used: set[str] = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.ClassDef):
                used |= _reads(node, set())
                continue
            for item in node.body:
                own = {node.name}
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    methods.append((f"{module}.{node.name}.{item.name}", item.name))
                    own.add(item.name)
                used |= _reads(item, own)
    for source in readers.values():
        tree = ast.parse(source)
        used |= _reads(tree, set())
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SITES" for t in node.targets
            ):
                used.update(sub.value for sub in ast.walk(node.value)
                            if isinstance(sub, ast.Constant) and isinstance(sub.value, str))
    return [qualified for qualified, name in methods if name not in used]


def test_every_method_of_a_src_class_has_a_caller():
    assert _dead_methods(_sources("src"), _sources("perfbench")) == []


def test_dead_method_scan_sees_uncalled_recursive_and_traced_methods():
    sources = {
        "a.py": (
            "class K:\n"
            "    def __add__(self, o): return self.unused\n"
            "    def called(self): return 1\n"
            "    def lonely(self, n): return self.lonely(n - 1) if n else 0\n"
            "    def orphan(self): pass\n"
            "    def benched(self): pass\n"
            "    def traced(self): pass\n"
            "def f(k): return k.called()\n"
        ),
    }
    readers = {"bench.py": "import a\na.K().benched()\nSITES = ((a.K, 'traced', 'k'),)\n"}
    assert _dead_methods(sources, readers) == ["a.py.K.lonely", "a.py.K.orphan"]


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
