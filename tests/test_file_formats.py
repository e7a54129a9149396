"""``docs/file-formats.md`` against the indicator table of the code.

The canonical-id list of "Records CSV" is ``INDICATOR_IDS`` and the
id -> field table of "Profile output" is ``PROFILE_FIELDS``, both in
order, so the documented formats and the reader cannot drift apart.
Every example block is read by its own reader.
"""

import dataclasses
import json
import re
from pathlib import Path

from costlens import (EnergyProfile, HardwareModel, PricingProfile, load_hardware,
                      read_records, read_spec_file)
from costlens.analysis import INDICATOR_IDS, PROFILE_FIELDS
from costlens.archspec import from_document

DOC = (Path(__file__).resolve().parent.parent / "docs"
       / "file-formats.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The text under the ``## <title>`` heading, up to the next one."""
    return re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", DOC,
                     re.MULTILINE | re.DOTALL).group(1)


def test_records_csv_canonical_ids_match_the_code():
    ids = re.search(r"Canonical ids with defined\s+orientation: `([^`]*)`",
                    section("Records CSV")).group(1)
    assert tuple(re.split(r",\s+", ids)) == INDICATOR_IDS


def test_profile_output_table_matches_the_code():
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|$", section("Profile output (JSON)"),
                      re.MULTILINE)
    assert rows == list(PROFILE_FIELDS.items())


def test_every_example_block_is_read(tmp_path):
    spec_file, records_csv, hardware, energy, pricing = re.findall(
        r"^```(?:json|csv)\n(.*?)^```$", DOC, re.MULTILINE | re.DOTALL)
    preset = load_hardware("tpu_like")
    (tmp_path / "spec.json").write_text(spec_file, encoding="utf-8")
    spec, hw, batch = read_spec_file(str(tmp_path / "spec.json"))
    assert (spec.name, hw, batch) == ("vit_b16", preset, 256)
    (tmp_path / "records.csv").write_text(records_csv, encoding="utf-8")
    assert [(r.name, r.quality, r.indicators) for r in read_records(
        str(tmp_path / "records.csv"))] == [
        ("D48", 61.8, {"params": 93.42, "flops": 4.43, "latency": 0.64}),
        ("W3072", 58.3, {"params": 101.52, "flops": 4.44, "latency": 0.35})]
    documented = from_document(HardwareModel, json.loads(hardware))
    assert dataclasses.replace(documented, notes=preset.notes) == preset
    assert from_document(EnergyProfile, json.loads(energy)) == EnergyProfile(
        100.0, 0.001, 1e6, 0.4)
    assert from_document(PricingProfile, json.loads(pricing)) == PricingProfile(100, 64, 2.0)
