"""The package's public names and exit codes are the ones README documents."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import distnull
from distnull import errors

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


def documented_exit_codes() -> dict[str, int]:
    """Error class name -> exit code, from README's exit-code table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    codes = {}
    for code, kind in re.findall(r"^\| (\d) \| ([^|]*)\|", section, re.MULTILINE):
        for name in re.findall(r"`([A-Za-z]+)`", kind):
            codes[name] = int(code)
    return codes


def test_exit_codes_match_readme():
    documented = documented_exit_codes()
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, errors.DistnullError)]
    assert set(documented) <= {c.__name__ for c in classes}
    for cls in classes:
        # the nearest documented class in the MRO decides the code
        name = next(c.__name__ for c in cls.__mro__ if c.__name__ in documented)
        assert cls.exit_code == documented[name], cls.__name__
