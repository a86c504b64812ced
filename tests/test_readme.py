"""README's scenario-key table states the keys and defaults of the parser."""

import re
from pathlib import Path

from shlab.scenario import _SCHEMA

README = Path(__file__).resolve().parents[1] / "README.md"

# how the table writes a default that is not a value
WORDS = {"required": "REQUIRED", "unset": None, "searched": None}


def readme_key_table() -> dict[str, str]:
    """{key: default cell} of the README table headed `| key | default | meaning |`,
    one entry per key of a row that lists several."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |") + 2  # past the rule line
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        keys, default = (cell.strip() for cell in line.strip("|").split("|")[:2])
        for key in re.findall(r"`([^`]+)`", keys):
            assert key not in table, f"README lists {key} twice"
            table[key] = default
    return table


def test_readme_key_table_matches_the_schema():
    table = readme_key_table()
    assert sorted(table) == sorted(_SCHEMA)
    for key, cell in table.items():
        typ, default = _SCHEMA[key]
        stated = WORDS[cell] if cell in WORDS else typ(cell.strip("`"))
        assert stated == default, f"README gives {key} the default {cell}, the parser {default!r}"
