"""distnull benchmark: CLI workloads timed end to end, or traced per layer.

    python3 perfbench/run.py --workload raw_pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. With `--trace 0` every command of the workload runs as a fresh
`python -m distnull` subprocess, one at a time, in passes repeated until
`--seconds` have elapsed (at least MIN_PASSES). With `--trace 1` the same
commands run in-process through `distnull.cli.main`, alternating untraced
and traced passes, and the layer metrics come from the traced ones. The
last line of stdout is the JSON result; the lines before it are the
human-readable report. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
MIN_PASSES = 2
# No new pass starts past this many seconds, so a run ends well within 180 s.
PASS_DEADLINE_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sites_per_s": "sites/s",
    "peak_rss_mb": "MB",
}
# Printed by name with their sample counts but not gated: a single
# command's time, from two or three samples a run, spreads more between
# runs on a shared machine than any bound of at most 25% holds; not every
# workload runs every command; and error_rate is 0 when the program is right.
REPORT_ONLY_UNITS = {
    **{f"{c}_s": "s" for c in
       ("simulate", "estimate", "test", "predict", "bmax", "calibrate", "power")},
    "error_rate": "fraction",
}


def layer_units() -> dict[str, tuple[str, str]]:
    """Per-layer metric -> (unit, better), in report order."""
    units = {f"import.{k}": ("s", "lower")
             for k in ("total_s", "scipy_integrate_s", "distnull_own_s")}
    for layer in spans.LAYER_NAMES:
        units[f"{layer}.calls"] = ("count", "lower")
        units[f"{layer}.busy_s"] = ("s", "lower")
    for key in spans.COUNTS:
        units[key] = ("count", "lower" if key.startswith("distributions.") else "higher")
    units["oracle.forecast_reuse"] = ("fraction", "higher")
    units["trace.overhead_s"] = ("s", "lower")
    return units


class ProgramMissing(RuntimeError):
    """The checkout holds no importable distnull package."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_program() -> None:
    if not (SRC / "distnull" / "cli.py").is_file():
        raise ProgramMissing(f"no package source under {SRC}")
    probe = subprocess.run(
        [sys.executable, "-c", "import distnull.cli, sys; sys.stdout.write(distnull.cli.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0 or Path(probe.stdout).resolve() != (SRC / "distnull" / "cli.py").resolve():
        raise ProgramMissing(f"cannot import distnull.cli from {SRC}: {probe.stderr.strip()}")


def run_child(argv: list[str], stderr_path: Path) -> tuple[int, float, float]:
    """Run one subprocess; returns (exit code, wall seconds, max RSS in MB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class Verifier:
    """Checks each command's first output and requires later ones byte-identical."""

    def __init__(self, plan: workloads.Plan, seed: int) -> None:
        self.plan = plan
        self.ref = checks.Reference(plan)
        self.rng = np.random.default_rng([seed, 99])
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []

    def verify(self, command: workloads.Command, code: int, label: str) -> bool:
        if code != 0:
            err = command.output.with_suffix(".err")
            detail = err.read_text(errors="replace").strip()[-300:] if err.exists() else ""
            self.problems.append(f"{label} {command.name}: exit {code} {detail}")
            return False
        digest = sha256(command.output)
        if command.name in self.digests:
            if digest != self.digests[command.name]:
                self.problems.append(f"{label} {command.name}: output differs from the first pass")
                return False
            return True
        self.digests[command.name] = digest
        found = checks.check_output(command.name, command.output, self.ref, self.plan, self.rng)
        self.problems.extend(f"{label} {command.name}: {p}" for p in found)
        return not found


def median(values: list[float]) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# untraced: subprocess passes


def measure_setup() -> list[float]:
    """Fresh-interpreter `import distnull.cli` times (check_program warmed the caches)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        code, wall, _ = run_child([sys.executable, "-c", "import distnull.cli"], WORK / "setup.err")
        if code != 0:
            raise ProgramMissing("import distnull.cli failed")
        samples.append(wall)
    return samples


def run_untraced(plan: workloads.Plan, seed: int, seconds: float) -> dict:
    verifier = Verifier(plan, seed)
    setup = measure_setup()
    per_command: dict[str, list[float]] = {c.name: [] for c in plan.commands}
    walls, rates, rss = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        label = f"pass {len(walls) + 1}"
        pass_start = time.perf_counter()
        analysis_s = peak = 0.0
        codes = []
        for c in plan.commands:
            c.output.unlink(missing_ok=True)
            code, wall, mb = run_child([sys.executable, "-m", "distnull", *c.argv],
                                       c.output.with_suffix(".err"))
            codes.append(code)
            per_command[c.name].append(wall)
            peak = max(peak, mb)
            if c.analysis:
                analysis_s += wall
        walls.append(time.perf_counter() - pass_start)
        rss.append(peak)
        n_analysis = sum(c.analysis for c in plan.commands)
        rates.append(plan.sites * n_analysis / analysis_s)
        for c, code in zip(plan.commands, codes):
            attempted += 1
            failed += not verifier.verify(c, code, label)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and (elapsed >= seconds or elapsed + walls[-1] > PASS_DEADLINE_S):
            break
    values = {
        "setup_s": (median(setup), len(setup)),
        "wall_s": (median(walls), len(walls)),
        "sites_per_s": (median(rates), len(rates)),
        "peak_rss_mb": (median(rss), len(rss)),
    }
    for name, samples in per_command.items():
        values[f"{name}_s"] = (median(samples), len(samples))
    values["error_rate"] = (failed / attempted, attempted)
    samples = {"setup_s": setup, "wall_s": walls, **{f"{k}_s": v for k, v in per_command.items()}}
    return {"values": values, "samples": samples, "attempted": attempted, "failed": failed,
            "problems": verifier.problems, "digests": verifier.digests}


# ---------------------------------------------------------------------------
# traced: in-process passes


def import_times() -> dict[str, float]:
    """Import-layer metrics from `python -X importtime`, median of IMPORT_SAMPLES."""
    samples: dict[str, list[float]] = {"total_s": [], "scipy_integrate_s": [], "distnull_own_s": []}
    row = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)$")
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import distnull.cli"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise ProgramMissing("import distnull.cli failed")
        lines = [(int(m[1]), int(m[2]), len(m[3]) // 2, m[4])
                 for m in map(row.match, proc.stderr.splitlines()) if m]
        total = sum(line[0] for line in lines)
        own = sum(line[0] for line in lines if line[3].split(".")[0] == "distnull")
        # Children print before their parent: scipy.integrate's cost is the
        # cumulative time of its submodules whose parent lies outside it
        # (the package itself prints no line when scipy imports it lazily).
        integ, parent_at = 0, {}
        for self_us, cumulative_us, depth, module in reversed(lines):
            parent = parent_at.get(depth - 1, "")
            if _in_integrate(module) and not _in_integrate(parent):
                integ += cumulative_us
            parent_at[depth] = module
        samples["total_s"].append(total / 1e6)
        samples["distnull_own_s"].append(own / 1e6)
        samples["scipy_integrate_s"].append(integ / 1e6)
    return {f"import.{k}": median(v) for k, v in samples.items()}


def _in_integrate(module: str) -> bool:
    return module == "scipy.integrate" or module.startswith("scipy.integrate.")


def clear_caches() -> None:
    """Drop the package's lru caches so each in-process command starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "distnull" or name.startswith("distnull."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def in_process(plan: workloads.Plan, verifier: Verifier, label: str) -> tuple[float, int]:
    import distnull.cli

    wall = 0.0
    failed = 0
    for c in plan.commands:
        c.output.unlink(missing_ok=True)
        clear_caches()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = distnull.cli.main(list(c.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is this command's failure, not the run's
                traceback.print_exc()
                code = 1
            wall += time.perf_counter() - start
        c.output.with_suffix(".err").write_text(err.getvalue())
        failed += not verifier.verify(c, code, label)
    return wall, failed


def run_traced(plan: workloads.Plan, seed: int, seconds: float) -> dict:
    imports = import_times()
    sys.path.insert(0, str(SRC))
    verifier = Verifier(plan, seed)
    plain, traced, layer_runs = [], [], []
    attempted = failed = 0
    tracer = None
    start = time.perf_counter()
    while True:
        wall, bad = in_process(plan, verifier, f"untraced pass {len(plain) + 1}")
        plain.append(wall)
        failed += bad
        tracer = spans.Tracer()
        restore = tracer.install()
        try:
            wall, bad = in_process(plan, verifier, f"traced pass {len(traced) + 1}")
        finally:
            restore()
        traced.append(wall)
        failed += bad
        attempted += 2 * len(plan.commands)
        layer_runs.append(tracer.layers())
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + plain[-1] + traced[-1] > PASS_DEADLINE_S:
            break
    tracer.save(WORK / "spans.npz")
    counts = [{k: v for k, v in run.items() if not k.endswith("_s")} for run in layer_runs]
    if any(c != counts[0] for c in counts):
        verifier.problems.append("layer counts differ between traced passes")
        failed += 1
    values = dict(imports)
    for key in layer_runs[0]:
        samples = [run[key] for run in layer_runs]
        values[key] = median(samples) if key.endswith("_s") else samples[0]
    values["trace.overhead_s"] = median(traced) - median(plain)
    return {"values": values, "passes": len(traced), "attempted": attempted, "failed": failed,
            "problems": verifier.problems, "digests": verifier.digests}


def dominant_layers(values: dict[str, float], commands: int, top: int = 4) -> list[tuple[str, float]]:
    """Layers ranked by self time per pass; imports count once per command."""
    busy = {k[: -len(".busy_s")]: v for k, v in values.items() if k.endswith(".busy_s")}
    busy["import (x commands)"] = values["import.total_s"] * commands
    return sorted(busy.items(), key=lambda kv: -kv[1])[:top]


# ---------------------------------------------------------------------------
# entry point


def run_workload(name: str, seed: int, seconds: float, trace_on: bool, size: str) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.plan(name, seed, work, size)
    result = (run_traced if trace_on else run_untraced)(plan, seed, seconds)
    result["plan"] = plan
    return result


def report(name: str, result: dict, trace_on: bool) -> dict[str, dict]:
    plan = result["plan"]
    print(f"== {name}: {plan.rows} rows, {plan.sites} sites, "
          f"{len(plan.commands)} commands per pass ({', '.join(c.name for c in plan.commands)})")
    metrics = {}
    if trace_on:
        units = layer_units()
        print(f"   traced passes: {result['passes']}")
        for key, (unit, _) in units.items():
            value = result["values"][key]
            print(f"   {key:45s} {value:14.6g} {unit}")
            metrics[key] = {"value": value, "unit": unit}
        ranked = dominant_layers(result["values"], len(plan.commands))
        print("   dominant self time: " + "; ".join(f"{k} {v:.3f} s" for k, v in ranked))
    else:
        for key, (value, n) in result["values"].items():
            unit = END_TO_END_UNITS.get(key) or REPORT_ONLY_UNITS[key]
            print(f"   {key:14s} {value:14.6g} {unit:8s} median of n={n}")
            if key in END_TO_END_UNITS:
                metrics[key] = {"value": value, "unit": unit}
    for command, digest in result["digests"].items():
        print(f"   sha256 {command:10s} {digest}")
    for problem in result["problems"]:
        print(f"   FAILED {problem}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.SIZES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    names = list(workloads.SIZES) if args.workload == "all" else [args.workload]

    try:
        check_program()
        WORK.mkdir(parents=True, exist_ok=True)
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.size)
                   for n in names}
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics, attempted, failed = {}, 0, 0
    for name, result in results.items():
        for key, value in report(name, result, bool(args.trace)).items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = value
        attempted += result["attempted"]
        failed += result["failed"]
    (WORK / "results.json").write_text(json.dumps(
        {n: {"values": r["values"], "samples": r.get("samples"), "digests": r["digests"],
             "problems": r["problems"]}
         for n, r in results.items()}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
