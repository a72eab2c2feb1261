"""Seeded inputs and command sequences for the three benchmark workloads.

Every input file is drawn here with numpy from the run's seed; the program
under test only ever reads these files (and the estimate file it writes
itself earlier in the same pass).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ANALYSIS_COMMANDS = ("estimate", "test", "predict", "bmax", "calibrate")


@dataclass(frozen=True)
class Command:
    """One `python -m distnull` invocation of a pass."""

    name: str
    argv: tuple[str, ...]
    output: Path

    @property
    def analysis(self) -> bool:
        """True for commands that read the workload's input file."""
        return self.name in ANALYSIS_COMMANDS


@dataclass(frozen=True)
class Plan:
    """A workload made concrete for one seed: its files and its pass."""

    shape: str  # "one_sample" or "summary"
    data: Path
    sites: int
    rows: int
    commands: tuple[Command, ...]
    variant: str
    facts: dict


# Sizes of each workload: the full size used by the benchmark, and a tiny
# one used by the self-test. raw_pipeline is ingest-bound (the ROADMAP
# baseline file), integral_forecast is quadrature-bound, and summary_wide is
# bound by per-site scalar kernels with mixed n, so calibrate's forecast
# cache almost never hits there while it nearly always hits on raw_pipeline.
SIZES = {
    "raw_pipeline": {
        "full": {"tasks": 40, "sites": 25, "n": 190},
        "tiny": {"tasks": 3, "sites": 5, "n": 12},
    },
    "integral_forecast": {
        "full": {"tasks": 6, "sites": 8, "n": 40},
        "tiny": {"tasks": 1, "sites": 4, "n": 10},
    },
    "summary_wide": {
        "full": {"tasks": 400, "sites": 25, "n_low": 20, "n_high": 400},
        "tiny": {"tasks": 4, "sites": 5, "n_low": 20, "n_high": 40},
    },
}


def _effects(rng: np.random.Generator, tasks: int, sites: int) -> np.ndarray:
    """Per-site latent effects from the hierarchical model, shape (tasks, sites)."""
    mu = rng.uniform(-0.2, 0.5, size=(tasks, 1))
    sigma0 = rng.uniform(0.1, 0.3, size=(tasks, 1))
    return mu + sigma0 * rng.standard_normal((tasks, sites))


def _stratified_effects(rng: np.random.Generator, tasks: int, sites: int) -> np.ndarray:
    """Effects at normal quantiles, shuffled and slightly jittered per seed.

    Adaptive quadrature's work depends on each site's t and b-hat, so with
    few sites, freely drawn effects make one seed's pass much dearer than
    another's. Fixing the set of effects keeps every seed's work alike.
    """
    quantiles = [statistics.NormalDist().inv_cdf((i + 0.5) / sites) for i in range(sites)]
    z = np.array([rng.permutation(quantiles) for _ in range(tasks)])
    mu = rng.permutation(np.linspace(-0.2, 0.5, tasks))[:, None]
    return mu + 0.2 * (z + 0.02 * rng.standard_normal((tasks, sites)))


def _ids(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i:04d}" for i in range(count)]


def write_raw(path: Path, rng: np.random.Generator, tasks: int, sites: int, n: int,
              stratified: bool = False) -> int:
    """One-sample raw file `task,site,value`; returns the row count.

    ``stratified`` draws effects with `_stratified_effects` and rescales
    each site's noise to mean 0 and variance 1, so the per-site summaries
    barely move between seeds.
    """
    effects = (_stratified_effects if stratified else _effects)(rng, tasks, sites)
    noise = rng.standard_normal((tasks, sites, n))
    if stratified:
        noise = (noise - noise.mean(axis=2, keepdims=True)) / noise.std(axis=2, ddof=1, keepdims=True)
    values = effects[:, :, None] + noise
    lines = ["task,site,value"]
    for t, task in enumerate(_ids("task", tasks)):
        for s, site in enumerate(_ids("site", sites)):
            prefix = f"{task},{site},"
            lines.extend(prefix + repr(v) for v in values[t, s].tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tasks * sites * n


def write_summary(
    path: Path, rng: np.random.Generator, tasks: int, sites: int, n_low: int, n_high: int
) -> int:
    """Summary file `task,site,n,mean,variance,df` with n drawn from [n_low, n_high)."""
    n = rng.integers(n_low, n_high, size=(tasks, sites))
    df = n - 1
    variance = rng.chisquare(df) / df
    mean = _effects(rng, tasks, sites) + rng.standard_normal((tasks, sites)) * np.sqrt(
        variance / n
    )
    n, mean, variance, df = (a.tolist() for a in (n, mean, variance, df))
    lines = ["task,site,n,mean,variance,df"]
    for t, task in enumerate(_ids("task", tasks)):
        for s, site in enumerate(_ids("site", sites)):
            lines.append(
                f"{task},{site},{n[t][s]},{mean[t][s]!r},{variance[t][s]!r},{df[t][s]}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tasks * sites


def _cmd(workdir: Path, name: str, *argv: str) -> Command:
    out = workdir / f"{name}.csv"
    return Command(name, (name, *argv, "--output", str(out)), out)


def plan(workload: str, seed: int, workdir: Path, size: str = "full") -> Plan:
    """Generate the workload's inputs under ``workdir`` and return its pass."""
    sizes = SIZES[workload][size]
    rng = np.random.default_rng([seed, list(SIZES).index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    data = workdir / "input.csv"
    est = str(workdir / "estimate.csv")
    closed = ("--variant", "closed", "--b-from", est)

    if workload == "raw_pipeline":
        tasks, sites, n = sizes["tasks"], sizes["sites"], sizes["n"]
        rows = write_raw(data, rng, tasks, sites, n)
        sim = {
            "mu0": round(float(rng.uniform(-0.2, 0.5)), 6),
            "sigma0": round(float(rng.uniform(0.1, 0.3)), 6),
            "sigma": 1.0,
            "n_per_experiment": n,
            "k_experiments": sites,
            "n_tasks": tasks,
        }
        config = workdir / "simulate.json"
        config.write_text(json.dumps(sim), encoding="utf-8")
        power = {
            "effect": round(float(rng.uniform(2.6, 3.4)), 6),
            "n": float(n),
            "b": round(float(rng.uniform(0.02, 0.1)), 6),
            "target_power": 0.5,
        }
        inp = ("--input", str(data))
        commands = (
            _cmd(workdir, "simulate", "--config", str(config), "--seed", str(seed)),
            _cmd(workdir, "estimate", *inp),
            _cmd(workdir, "test", *inp, *closed),
            _cmd(workdir, "predict", *inp, *closed, "--nr", str(n)),
            _cmd(workdir, "bmax", *inp),
            _cmd(workdir, "calibrate", *inp, "--variant", "closed"),
            _cmd(
                workdir, "power",
                "--effect", repr(power["effect"]), "--n", repr(power["n"]),
                "--b", repr(power["b"]), "--target-power", repr(power["target_power"]),
            ),
        )
        facts = {"config": sim, "power": power, "nr": n}
        return Plan("one_sample", data, tasks * sites, rows, commands,
                    "closed", facts)

    if workload == "integral_forecast":
        tasks, sites, n = sizes["tasks"], sizes["sites"], sizes["n"]
        rows = write_raw(data, rng, tasks, sites, n, stratified=True)
        inp = ("--input", str(data))
        integral = ("--variant", "integral", "--b-from", est)
        commands = (
            _cmd(workdir, "estimate", *inp),
            _cmd(workdir, "test", *inp, *integral),
            _cmd(workdir, "predict", *inp, *integral, "--nr", str(n)),
            _cmd(workdir, "calibrate", *inp, "--variant", "integral", "--alphas", "0.05"),
        )
        return Plan("one_sample", data, tasks * sites, rows, commands,
                    "integral", {"nr": n})

    if workload == "summary_wide":
        tasks, sites = sizes["tasks"], sizes["sites"]
        rows = write_summary(data, rng, tasks, sites, sizes["n_low"], sizes["n_high"])
        inp = ("--input", str(data))
        commands = (
            _cmd(workdir, "estimate", *inp),
            _cmd(workdir, "test", *inp, *closed),
            _cmd(workdir, "predict", *inp, *closed, "--nr", "100"),
            _cmd(workdir, "bmax", *inp),
            _cmd(workdir, "calibrate", *inp, "--variant", "closed", "--alphas", "0.05"),
        )
        return Plan("summary", data, tasks * sites, rows, commands,
                    "closed", {"nr": 100})

    raise ValueError(f"unknown workload {workload!r}")
