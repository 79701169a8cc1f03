"""Import structure of the package: module-level imports only, no cycles.

Also checks that the spans the benchmark reads by name still exist, and that
the package ships no public definition, and no dataclass field, that only
the tests use.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import comb_ranger

PACKAGE_DIR = Path(comb_ranger.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
REPO = Path(__file__).resolve().parent.parent
TRACING = REPO / "perfbench" / "tracing.py"
README = REPO / "README.md"


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


def test_package_imports_itself_only_relatively():
    # scripts/bench_harness.py imports HEAD's package as comb_ranger_parent
    # beside the working tree's comb_ranger: an absolute self-import would load
    # the working tree's code into the parent, and every A/B ratio would read 1
    absolute = []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            absolute += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "comb_ranger"]
    assert absolute == []


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


def test_cli_import_loads_no_executor_or_queue():
    # the simulator's draw-ahead thread is a plain threading.Thread, which
    # numpy already imports; concurrent.futures would add its import (and
    # logging's) to every process
    code = (
        "import sys, comb_ranger.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'queue') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def identifiers(node: ast.AST) -> Counter:
    """Identifiers used in `node`: names, attribute names and import aliases."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rpartition(".")[2]] += 1
            if sub.asname:
                out[sub.asname] += 1
    return out


def readme_api_example() -> ast.Module:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return ast.parse(re.search(r"```python\n(.*?)```", section, re.S).group(1))


def test_every_public_definition_has_a_caller():
    # a public function or class must be used outside its own body by the
    # package (its re-exports in __init__ do not count), by a script, by the
    # benchmark, or by README's library example; what only the tests use
    # belongs in tests/reference.py
    modules = {p.stem: parse(p) for p in MODULES if p.stem != "__init__"}
    users = [parse(p) for d in ("scripts", "perfbench") for p in sorted((REPO / d).glob("*.py"))]
    used = sum(map(identifiers, [*modules.values(), *users, readme_api_example()]), Counter())
    unused = [
        f"{stem}.{node.name}"
        for stem, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and used[node.name] == identifiers(node)[node.name]
    ]
    assert unused == []


def dataclass_fields(tree: ast.Module):
    """(class, field) of every @dataclass in a module."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def test_every_dataclass_field_is_read():
    # a field of a package dataclass must be read as an attribute somewhere
    # in the package, a script, the benchmark or README's library example; a
    # field that is only computed and stored (or read only by the tests)
    # is dead weight on every construction
    trees = [parse(p) for p in MODULES]
    trees += [parse(p) for d in ("scripts", "perfbench") for p in sorted((REPO / d).glob("*.py"))]
    trees.append(readme_api_example())
    read = {
        sub.attr
        for tree in trees
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    unread = [
        f"{path.stem}.{cls}.{name}"
        for path in MODULES
        for cls, name in dataclass_fields(parse(path))
        if name not in read
    ]
    assert unread == []


def test_package_holds_only_the_ranging_family():
    from comb_ranger.dispersion import PerturbationVector, phase_gradient

    assert [f.name for f in dataclasses.fields(PerturbationVector)] == ["values"]
    with pytest.raises(comb_ranger.ValidationError, match="unknown parameter label 'phi'"):
        phase_gradient("phi", [2e15], comb_ranger.AirState.standard(), 1.0)
    source = "".join(p.read_text(encoding="utf-8") for p in MODULES)
    assert [n for n in ("TIME_LABELS", "time_delays", "DelayTriple") if n in source] == []
