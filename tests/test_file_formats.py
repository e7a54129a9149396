"""``docs/file-formats.md`` against the indicator table of the code.

The canonical-id list of "Records CSV" is ``INDICATOR_IDS`` and the
id -> field table of "Profile output" is ``PROFILE_FIELDS``, both in
order, so the documented formats and the reader cannot drift apart.
"""

import re
from pathlib import Path

from costlens.analysis import INDICATOR_IDS, PROFILE_FIELDS

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
