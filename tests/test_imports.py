"""No module of the package imports a name it never reads, none defines a
name that nothing names, and the cost layer imports nothing above it.

No linter ships with the test dependencies, so this walks the syntax tree
of every ``src/costlens`` module except ``__init__.py``, whose imports are
the public API. A name counts as read when it appears as a loaded name
anywhere in the module, annotations included.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "costlens"

#: The cost path: it imports nothing from the modules above it, and ``archspec``,
#: which every module reads, imports no module of the package.
COST_PATH = ("archspec", "trace", "indicators", "latency", "footprint", "archlib")
ABOVE = {"analysis", "profiles", "cli"}

#: Imports kept though the module never reads them: (module, name) -> why.
KEPT = {
    ("cli", "validate"): "bench/test_bench.py::test_tracer_restores_every_binding "
                         "reads costlens.cli.validate",
}


def unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in imported if name not in read)


@pytest.mark.parametrize("path", sorted(p for p in SOURCE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_every_import_is_read(path):
    unused = unused_imports(ast.parse(path.read_text("utf-8")))
    assert [n for n in unused if (path.stem, n) not in KEPT] == []
    assert all(name in unused for module, name in KEPT if module == path.stem)


def test_every_definition_is_named_elsewhere():
    """A module-level function or class is named somewhere besides its own
    definition: in the package, a demo, the README or the file formats. The
    ``cmd_*`` handlers are exempt, as ``cli.main`` looks them up by name."""
    texts = {p: p.read_text("utf-8") for p in (
        *SOURCE.glob("*.py"), *(ROOT / "demos").glob("*.py"), ROOT / "README.md",
        ROOT / "docs" / "file-formats.md")}
    unnamed = []
    for path in sorted(SOURCE.glob("*.py")):
        lines = texts[path].splitlines(keepends=True)
        for node in ast.parse(texts[path]).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("cmd_")):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            elsewhere = [text for other, text in texts.items() if other != path]
            elsewhere.append("".join(lines[:first - 1] + lines[node.end_lineno:]))
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(map(word.search, elsewhere)):
                unnamed.append(f"{path.stem}.{node.name}")
    assert unnamed == []


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports by a relative import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module
                         else (a.name for a in node.names))
    return found


@pytest.mark.parametrize("module", COST_PATH)
def test_the_cost_path_imports_nothing_above_it(module):
    imported = package_imports(ast.parse((SOURCE / f"{module}.py").read_text("utf-8")))
    assert (imported if module == "archspec" else imported & ABOVE) == set()


def test_the_layering_guard_sees_what_it_forbids():
    imported = package_imports(ast.parse(
        "from .analysis import x\nfrom . import profiles\nfrom .trace import y"))
    assert imported == {"analysis", "profiles", "trace"}
