"""The package's public names and exit codes are the ones README documents."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import distnull
from conftest import run_cli
from distnull import cli, errors

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_every_submodule_export_resolves():
    # a deleted function must not leave its name in a module's __all__
    for info in pkgutil.iter_modules(distnull.__path__, "distnull."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"


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


def load_spans():
    """The benchmark's span tracer, read from its file."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_layers_resolve():
    # The benchmark's span tracer patches these (module, function) bindings
    # by name; a renamed or deleted one would otherwise fail only its own
    # self-test, which this suite does not run.
    spans = load_spans()
    for module, function in spans.LAYERS:
        target = getattr(importlib.import_module(f"distnull.{module}"), function, None)
        assert callable(target), f"distnull.{module}.{function}"


def test_traced_counts_are_the_work_done(summary_file):
    # The benchmark's work counts are read at these boundaries: load_sites
    # returns the shape and a table with one entry per site, and calibrate
    # forecasts every ordered site pair in one task_pair_records call.
    tracer = load_spans().Tracer()
    restore = tracer.install()
    try:
        assert run_cli(["estimate", "--input", summary_file])[0] == 0
        assert run_cli(["calibrate", "--input", summary_file, "--variant", "integral",
                        "--alphas", "0.05"])[0] == 0
    finally:
        restore()
    layers = tracer.layers()
    # two tasks of 3 and 2 sites, one row each, read once per command
    assert (layers["cli.load_sites.sites"], layers["cli.load_sites.rows"]) == (10, 10)
    assert layers["oracle.task_pair_records.calls"] == 1
    assert layers["oracle.task_pair_records.records"] == 3 * 2 + 2 * 1
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
