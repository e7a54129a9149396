"""``compute_profile`` returns the ``CostProfile`` dataclass's own object.

The profile is built in one step, not through the generated ``__init__``;
over a fixed corpus it must equal, hash, print and freeze like one built
the usual way, and its JSON must stay byte for byte what it was.
``tests/golden/profile_corpus.sha256`` holds the SHA-256 of the corpus'
``to_dict()`` JSON lines, and ``PYTHONPATH=src python tests/test_profiles.py``
rewrites it.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from costlens import (
    CostProfile,
    OptimizerKind,
    compute_profile,
    load_hardware,
    preset_names,
    read_spec_file,
    spec_from_dict,
)
from support import data_file

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGEST = GOLDEN / "profile_corpus.sha256"


def corpus():
    """The profiles of the 4 shipped specs and the builder golden's specs,
    with no hardware and each preset, at batch 1, 8 and 64, under each
    optimizer."""
    specs = []
    for name in ("vit_b8", "vit_b16", "vit_b32", "vit_b64"):
        with data_file(f"specs/{name}.json") as path:
            specs.append(read_spec_file(path)[0])
    builder_docs = json.loads((GOLDEN / "builder_specs.json").read_text(encoding="utf-8"))
    specs += [spec_from_dict(doc) for doc in builder_docs.values()]
    hardware = [None, *(load_hardware(name) for name in preset_names())]
    return [compute_profile(spec, batch, hw, optimizer)
            for spec in specs for hw in hardware for batch in (1, 8, 64)
            for optimizer in OptimizerKind]


def corpus_digest(profiles) -> str:
    lines = "".join(json.dumps(p.to_dict()) + "\n" for p in profiles)
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def profiles():
    return corpus()


def test_profile_is_the_dataclass_own_object(profiles):
    for p in profiles:
        built = CostProfile(**vars(p))
        assert type(p) is CostProfile
        assert p == built and vars(p) == vars(built)
        assert repr(p) == repr(built) and hash(p) == hash(built)
        assert list(vars(p)) == [f.name for f in dataclasses.fields(CostProfile)]


def test_profile_is_frozen_and_replaceable(profiles):
    for p in profiles:
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.params = 0
        assert dataclasses.replace(p, latency_sec=None).latency_sec is None


def test_to_dict_bytes_are_the_golden(profiles):
    assert corpus_digest(profiles) == DIGEST.read_text(encoding="utf-8").strip()


def test_cost_profile_has_no_post_init_and_no_slots():
    """The one-step build skips ``__post_init__`` and fills only a
    ``__dict__``, so either would break it."""
    assert not hasattr(CostProfile, "__post_init__")
    assert "__slots__" not in vars(CostProfile)


if __name__ == "__main__":
    DIGEST.write_text(corpus_digest(corpus()) + "\n", encoding="utf-8")
