"""The names the documents cite exist in the package, and the builder
table lists the builder arguments.

Every backticked dotted name in ``README.md`` and ``docs/file-formats.md``
that starts with ``costlens.`` or with a name ``costlens`` exports must
resolve: as a module, an attribute or a dataclass field. A name that
starts anywhere else (``arch.name``, ``spec_file.schema.json``) is not the
package's and is skipped, and so are fenced code blocks, which
``test_demos.py`` runs. A call's argument list is ignored.
"""

import dataclasses
import importlib
import json
import re
import types
from pathlib import Path

import pytest

import costlens
from costlens.archlib import BUILDER_ARGS, BUILDERS

ROOT = Path(__file__).resolve().parent.parent
DOCS = ["README.md", "docs/file-formats.md"]
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")


def cited_names(text: str) -> list[str]:
    """The package's dotted names in the inline code of ``text``."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)
    return [name for name in DOTTED.findall(prose)
            if name.split(".")[0] == "costlens" or hasattr(costlens, name.split(".")[0])]


def resolves(name: str) -> bool:
    """Whether each part of ``name`` is a module, an attribute or, last, a
    dataclass field of what the parts before it name."""
    head, *rest = name.split(".")
    obj = costlens if head == "costlens" else getattr(costlens, head)
    for i, part in enumerate(rest):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif isinstance(obj, types.ModuleType):
            try:
                obj = importlib.import_module(f"{obj.__name__}.{part}")
            except ModuleNotFoundError:
                return False
        else:
            return (i == len(rest) - 1 and dataclasses.is_dataclass(obj)
                    and part in {f.name for f in dataclasses.fields(obj)})
    return True


def test_a_deleted_name_is_caught():
    text = "Breakdowns (`ParamCount.by_layer`) and `costlens.trace.evaluate(spec)`."
    assert cited_names(text) == ["ParamCount.by_layer", "costlens.trace.evaluate"]
    assert [resolves(name) for name in cited_names(text)] == [False, True]
    assert resolves("CostProfile.params") and not resolves("costlens.nothing")


@pytest.mark.parametrize("doc", DOCS)
def test_cited_names_resolve(doc):
    names = cited_names((ROOT / doc).read_text("utf-8"))
    assert names, f"{doc} cites no name of the package"
    assert [name for name in names if not resolves(name)] == []


def test_builder_table_lists_each_config():
    """Each row of the "Builder families and arguments" table in
    ``docs/file-formats.md`` names the family's ``BUILDER_ARGS`` in order,
    each default written as its config's JSON value."""
    text = (ROOT / "docs/file-formats.md").read_text("utf-8")
    table = text.split("Builder families and arguments:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| `?([^`|]*)", table, flags=re.MULTILINE))
    expected = {}
    for family, (config, _) in BUILDERS.items():
        assert [f.name for f in dataclasses.fields(config)] == list(BUILDER_ARGS[family])
        expected[family] = ", ".join(
            f.name if f.default is dataclasses.MISSING
            else f"{f.name}={json.dumps(f.default, separators=(',', ':'))}"
            for f in dataclasses.fields(config))
    assert rows == expected
