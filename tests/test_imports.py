"""No module of the package imports a name it never reads.

No linter ships with the test dependencies, so this walks the syntax tree
of every ``src/costlens`` module except ``__init__.py``, whose imports are
the public API. A name counts as read when it appears as a loaded name
anywhere in the module, annotations included.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "costlens"

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
