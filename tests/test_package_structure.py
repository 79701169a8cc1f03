"""Import structure of the package: module-level imports only, no cycles.

Also checks that the spans the benchmark reads by name still exist.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import comb_ranger

PACKAGE_DIR = Path(comb_ranger.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_imports(tree: ast.Module) -> set[str]:
    """Sibling modules imported anywhere in a module, by `from . import x` or `from .x import`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def test_no_import_below_module_level():
    nested = []
    for path in MODULES:
        tree = parse(path)
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
                nested.append(f"{path.name}:{node.lineno}")
    assert nested == []


def test_no_import_cycle():
    graph = {p.stem: package_imports(parse(p)) for p in MODULES if p.stem != "__init__"}
    assert "detection" not in graph["dispersion"]
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        assert name not in path, "import cycle: " + " -> ".join(path + (name,))
        if name in done:
            return
        for dep in sorted(graph.get(name, ())):
            visit(dep, path + (name,))
        done.add(name)

    for name in sorted(graph):
        visit(name, ())


def test_perfbench_span_names_resolve():
    # perfbench/tracing.py names a span "<module>.<function>" or
    # "<module>.<Class>.<method>" after the public callable it wraps, and
    # reads some spans back by key; a renamed callable would zero the metric.
    keys = set(re.findall(r'incl\["([^"]+)"\]', TRACING.read_text(encoding="utf-8")))
    assert keys, "no span keys found in perfbench/tracing.py"
    unresolved = []
    for key in sorted(keys):
        module_name, *path = key.split(".")
        module = importlib.import_module(f"comb_ranger.{module_name}")
        obj = module
        for attr in path:
            obj = None if obj is None or attr.startswith("_") else vars(obj).get(attr)
        if isinstance(obj, (classmethod, staticmethod)):
            obj = obj.__func__
        if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
            unresolved.append(key)
    assert unresolved == []
