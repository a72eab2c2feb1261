"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Checks that every metric BENCHMARK.json names is printed with its unit,
that a corrupted output cell is caught as a failure, and that the
benchmark refuses to report without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    proc = bench("--workload", "all", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    expected = {f"{w}.{m['name']}" for w in workloads.SIZES for m in wanted}
    assert set(result["metrics"]) == expected
    for w in workloads.SIZES:
        for m in wanted:
            entry = result["metrics"][f"{w}.{m['name']}"]
            assert entry["unit"] == m["unit"]
            assert isinstance(entry["value"], (int, float))
    report = lines[:-1]
    names = run.layer_units() if trace else {**run.END_TO_END_UNITS, **run.REPORT_ONLY_UNITS}
    for name, unit in names.items():
        unit = unit[0] if trace else unit
        printed = [ln.split() for ln in report if ln.split()[:1] == [name]]
        assert printed and all(p[2] == unit for p in printed), name
        if not trace:
            assert all("n=" in p[-1] for p in printed), name


def test_single_workload_reports_exactly_the_gated_metrics():
    proc = bench("--workload", "integral_forecast", "--seed", "4", "--seconds", "1",
                 "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One clean pass of every workload at tiny size, verified."""
    passes = {}
    for name in workloads.SIZES:
        plan = workloads.plan(name, 5, tmp_path_factory.mktemp(name), "tiny")
        verifier = run.Verifier(plan, 5)
        for c in plan.commands:
            code, _, _ = run.run_child([sys.executable, "-m", "distnull", *c.argv],
                                       c.output.with_suffix(".err"))
            assert verifier.verify(c, code, "pass 1"), verifier.problems
        passes[name] = (plan, verifier)
    return passes


def _corrupt(path: Path, column_name: str, row: int = 0) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(column_name)
    cells[i] = repr(float(cells[i]) * (1 + 1e-4) + 1e-6)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload,command,column_name", [
    ("raw_pipeline", "estimate", "b_hat"),
    ("raw_pipeline", "power", "power_ceiling"),
    ("summary_wide", "test", "p_sig"),
    ("summary_wide", "predict", "p_rep"),
    ("summary_wide", "bmax", "z_max"),
    ("summary_wide", "calibrate", "mean_forecast"),
    ("integral_forecast", "test", "p_sig"),
])
def test_corrupted_cell_is_a_failure(outputs, tmp_path, workload, command, column_name):
    plan, verifier = outputs[workload]
    c = next(c for c in plan.commands if c.name == command)
    copy = tmp_path / c.output.name
    shutil.copy(c.output, copy)
    rng = np.random.default_rng(0)
    assert checks.check_output(command, copy, verifier.ref, plan, rng) == []
    # integral rows are sampled, so corrupt every row there
    rows = len(copy.read_text().splitlines()) - 1
    for row in range(rows if plan.variant == "integral" else 1):
        _corrupt(copy, column_name, row)
    assert checks.check_output(command, copy, verifier.ref, plan, rng)
    # a later pass whose bytes differ from the first is a failure too
    shutil.copy(copy, c.output)
    assert not verifier.verify(c, 0, "pass 2")


def test_refuses_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = bench("--workload", "raw_pipeline", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
