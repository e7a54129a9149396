"""No module of the package imports a name it never reads, none defines a
name that nothing names, the cost layer imports nothing above it, and each
argparse private that ``cli`` relies on has a stated reason.

No linter ships with the test dependencies, so this walks the syntax tree
of every ``src/costlens`` module except ``__init__.py``, whose imports are
the public API. A name counts as read when it appears as a loaded name
anywhere in the module, annotations included.
"""

import argparse
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


#: The argparse privates ``cli`` reads or overrides -> why. The CI runs
#: Python 3.10-3.13, and none of these names is a stable API.
ARGPARSE_PRIVATES = {
    "argparse._StoreAction": "cli._option_table takes only plain store actions, not "
                             "store_const, append or count, into a command's option table",
    "_actions": "cli._option_table and build_parser read a sub-parser's options, "
                "defaults and positional from its actions, which no public API lists",
    "_check_value": "cli._Parser overrides argparse's one check of a choice, to echo a "
                    "refused value cut short",
}


def argparse_privates(tree: ast.Module) -> set[str]:
    """The ``argparse._*`` names a module reads, the ``_``-prefixed attributes
    of a parser or an action it reads, and the argparse privates that its
    ``_Parser`` methods override."""
    parser, action = argparse.ArgumentParser(), argparse.Action(["-x"], "x")
    held = {name for name in {*dir(parser), *dir(action)}
            if name.startswith("_") and not name.startswith("__")}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if isinstance(node.value, ast.Name) and node.value.id == "argparse":
                found.add(f"argparse.{node.attr}")
            elif node.attr in held:
                found.add(node.attr)
        elif isinstance(node, ast.ClassDef) and node.name == "_Parser":
            found.update(f.name for f in node.body
                         if isinstance(f, ast.FunctionDef) and f.name in held)
    return found


def test_every_argparse_private_cli_reads_has_a_reason():
    assert argparse_privates(ast.parse((SOURCE / "cli.py").read_text("utf-8"))) \
        == set(ARGPARSE_PRIVATES)


def test_the_argparse_guard_sees_what_it_collects():
    found = argparse_privates(ast.parse(
        "argparse._SubParsersAction\nsub._option_string_actions\nreport._listings\n"
        "class _Parser:\n    def _get_values(self): pass\n    def __init__(self): pass\n"
        "    def _mine(self): pass\n"))
    assert found == {"argparse._SubParsersAction", "_option_string_actions", "_get_values"}


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
