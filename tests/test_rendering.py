"""One renderer for refused values, and recursion caught where it happens.

``archspec._echo`` renders every value a refusal quotes: it cuts a long
repr, and names by its type a value whose repr fails, so an error line
stays short and never turns into Python's own text. An f-string's ``!r``
would bypass it, so none is allowed in ``src/costlens``.

With rendering total, a ``RecursionError`` comes only from a walk that
recurses over its input: the JSON decoder and the architecture reader and
writer. Only the functions that run those walks, and ``_echo``, may catch
one; a handler elsewhere would hide a fault instead of naming it.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "costlens"
MODULES = sorted(SOURCE.glob("*.py"))

#: The functions allowed to catch RecursionError.
RECURSING = {"_load_json", "from_json", "spec_from_dict", "spec_to_dict", "_echo"}


def repr_conversions(tree: ast.Module) -> list[int]:
    """The line of each f-string field written with ``!r``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")]


def recursion_handlers(tree: ast.Module) -> list[str]:
    """The innermost function around each ``except`` that names RecursionError."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                isinstance(n, ast.Name) and n.id == "RecursionError"
                for n in ast.walk(node.type)):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_f_string_renders_with_repr(path):
    assert repr_conversions(ast.parse(path.read_text("utf-8"))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_recursion_is_caught_only_where_it_happens(path):
    assert set(recursion_handlers(ast.parse(path.read_text("utf-8")))) <= RECURSING


def test_the_guards_see_what_they_forbid():
    tree = ast.parse('def f(x):\n    try:\n        return f"{x!r}"\n'
                     '    except (ValueError, RecursionError):\n        pass\n')
    assert repr_conversions(tree) == [3]
    assert recursion_handlers(tree) == ["f"]
