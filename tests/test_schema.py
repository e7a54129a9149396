"""``docs/spec_file.schema.json`` against the code that reads spec files.

Each object definition of the schema lists exactly the fields of the
dataclass it describes and requires exactly the fields a document must
carry, so the documented format and the reader cannot drift apart.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from costlens import (
    ArchSpec, HardwareModel, Image, InputFileError, MoE, Parallel, Repeat, TokenSequence,
    read_spec_file,
)
from costlens.archlib import BUILDER_ARGS
from costlens.archspec import _LAYER_TAGS
from costlens.profiles import _SPEC_FILE_KEYS

from support import document_required_fields

SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "docs"
                     / "spec_file.schema.json").read_text(encoding="utf-8"))

#: Document keys that are not dataclass fields: the union tag and the
#: architecture document's own version.
NOT_FIELDS = {"kind", "schema_version"}


@pytest.mark.parametrize("definition, cls", [
    ("arch", ArchSpec), ("image", Image), ("token_sequence", TokenSequence),
    ("hardware", HardwareModel),
])
def test_definition_matches_dataclass(definition, cls):
    schema = SCHEMA["definitions"][definition]
    assert schema["additionalProperties"] is False
    assert set(schema["properties"]) - NOT_FIELDS \
        == {f.name for f in dataclasses.fields(cls)}
    assert set(schema["required"]) - NOT_FIELDS == document_required_fields(cls)


def test_layer_kinds_match_schema():
    assert SCHEMA["definitions"]["layer"]["properties"]["kind"]["enum"] \
        == list(_LAYER_TAGS.values())


@pytest.mark.parametrize("cls", [Repeat, Parallel, MoE], ids=["repeat", "parallel", "moe"])
def test_container_layer_matches_dataclass(cls):
    """Each container kind's branch of the layer definition lists exactly
    the fields of its dataclass and requires exactly those a document must carry."""
    branch, = [case["then"] for case in SCHEMA["definitions"]["layer"]["allOf"]
               if case["if"]["properties"]["kind"]["const"] == _LAYER_TAGS[cls]]
    assert set(branch["properties"]) == {f.name for f in dataclasses.fields(cls)}
    assert set(branch["required"]) == document_required_fields(cls)


def test_spec_file_keys_match_schema():
    assert SCHEMA["additionalProperties"] is False
    assert set(SCHEMA["properties"]) == _SPEC_FILE_KEYS


@pytest.mark.parametrize("key", sorted(_SPEC_FILE_KEYS))
def test_null_is_refused_under_every_spec_file_key(tmp_path, key):
    """No top-level key of the schema admits null, so a null is refused,
    never read as the key left out."""
    doc = {"schema_version": 1}
    if key not in ("arch", "builder"):
        doc["builder"] = {"family": "vit", "patch": 16, "depth": 1, "model_dim": 64,
                          "num_heads": 4, "ffn_dim": 128, "image": [32, 32, 3]}
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        read_spec_file(str(path))
    path = tmp_path / "null.json"
    path.write_text(json.dumps({**doc, key: None}), encoding="utf-8")
    with pytest.raises(InputFileError) as info:
        read_spec_file(str(path))
    assert info.value.detail == {"file": str(path)}


def test_builder_families_match_schema():
    assert SCHEMA["properties"]["builder"]["properties"]["family"]["enum"] \
        == list(BUILDER_ARGS)
