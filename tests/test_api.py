"""The package's public names are exactly the ones README documents."""

from __future__ import annotations

import re
from pathlib import Path

import distnull

README = Path(__file__).resolve().parent.parent / "README.md"


def documented_names() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    listing = section.split("\n\n")[1]  # the bullet list after the intro line
    return re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", listing)


def test_all_matches_readme():
    names = documented_names()
    assert len(names) == len(set(names))
    assert sorted(distnull.__all__) == sorted(names)


def test_every_name_resolves():
    for name in distnull.__all__:
        assert getattr(distnull, name) is not None
