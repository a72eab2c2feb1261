"""Output checks: every command's CSV is recomputed or cross-checked here.

The checks read only the workload's input file and the printed columns,
and recompute with scipy directly rather than through the package, so a
defect in the package's kernels cannot hide itself. Each check returns a
list of problems; an empty list means the output is correct.

Tolerances. Printed reals carry 12 significant digits, so closed-form
values recomputed from printed columns agree to a relative 1e-7 (with an
absolute floor of 1e-12). Integral variants are compared with a
benchmark-side `scipy.integrate.quad` reference to |got - ref| <=
INTEGRAL_ATOL + INTEGRAL_RTOL * ref; the program integrates at epsabs 1e-9
and epsrel 1e-7, so this bound holds with a wide margin when it is right.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy import integrate, special

from workloads import Plan

RTOL = 1e-7
ATOL = 1e-12
INTEGRAL_RTOL = 1e-5
INTEGRAL_ATOL = 1e-7
INTEGRAL_SAMPLES = {"test": 3, "predict": 2}


def read_table(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        return list(reader.fieldnames or []), list(reader)


def column(rows: list[dict[str, str]], name: str) -> np.ndarray:
    """A numeric column; "<1e-320" and "<-320" read as the floor values."""
    out = np.empty(len(rows))
    for i, r in enumerate(rows):
        text = r[name]
        out[i] = 0.0 if text == "<1e-320" else -320.0 if text == "<-320" else float(text)
    return out


def _close(problems: list[str], what: str, got, want, rtol=RTOL, atol=ATOL) -> None:
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(want, dtype=float))
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        problems.append(
            f"{what}: {int(bad.sum())} cell(s) off, first at row {i + 2}: "
            f"got {got.flat[i]!r}, expected {want.flat[i]!r}"
        )


def _equal(problems: list[str], what: str, got, want) -> None:
    got, want = list(got), list(want)
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if len(got) != len(want):
        problems.append(f"{what}: {len(got)} values, expected {len(want)}")
    elif bad:
        problems.append(
            f"{what}: {len(bad)} cell(s) differ, first at row {bad[0] + 2}: "
            f"got {got[bad[0]]!r}, expected {want[bad[0]]!r}"
        )


def _t_crit(alpha, df):
    return special.stdtrit(df, 1.0 - np.asarray(alpha) / 2.0)


# ---------------------------------------------------------------------------
# reference state computed once per run from the input file


class Reference:
    """Per-site summaries of the workload's input, sorted by (task, site)."""

    def __init__(self, plan: Plan) -> None:
        _, rows = read_table(plan.data)
        if plan.shape == "summary":
            self.keys = [(r["task"], r["site"]) for r in rows]
            self.n = column(rows, "n")
            self.mean = column(rows, "mean")
            self.var = column(rows, "variance")
            self.df = column(rows, "df")
        else:
            groups: dict[tuple[str, str], list[float]] = defaultdict(list)
            for r in rows:
                groups[(r["task"], r["site"])].append(float(r["value"]))
            self.keys = sorted(groups)
            self.n = np.array([len(groups[k]) for k in self.keys], dtype=float)
            self.mean = np.array([np.mean(groups[k]) for k in self.keys])
            self.var = np.array([np.var(groups[k], ddof=1) for k in self.keys])
            self.df = self.n - 1.0
        order = sorted(range(len(self.keys)), key=self.keys.__getitem__)
        self.keys = [self.keys[i] for i in order]
        for name in ("n", "mean", "var", "df"):
            setattr(self, name, getattr(self, name)[order])
        self.t = self.mean / np.sqrt(self.var / self.n)
        # as-published between-experiment variance per task (README: the
        # raw spread of site means plus the expected squared-error term)
        tasks = np.array([k[0] for k in self.keys])
        self.task_index = {task: np.flatnonzero(tasks == task) for task in dict.fromkeys(tasks)}
        self.k = np.empty(len(self.keys))
        self.grand_mean = np.empty(len(self.keys))
        self.s0_sq = np.empty(len(self.keys))
        for idx in self.task_index.values():
            m = self.mean[idx]
            correction = np.mean(self.df[idx] * self.var[idx] / (self.n[idx] * (self.df[idx] - 2.0)))
            self.k[idx] = len(idx)
            self.grand_mean[idx] = m.mean()
            self.s0_sq[idx] = np.sum((m - m.mean()) ** 2) / (len(idx) - 1) + correction
        self.b_hat = self.s0_sq / self.var


# ---------------------------------------------------------------------------
# closed forms, recomputed from printed columns


def p_sig_closed(t, n, b, nu0):
    t0 = t / np.sqrt(b * n)
    return t0, 2.0 * special.stdtr(nu0, -np.abs(t0))


def p_rep_closed(t, n, n_r, df_r, alpha, b, nu0):
    bn = b * n
    arg = np.sqrt(bn * n_r / (n + n_r)) * (
        np.abs(t) / np.sqrt(bn) - _t_crit(alpha, df_r) * np.sqrt(1.0 / bn + nu0 / (nu0 - 2.0))
    )
    return np.clip(special.stdtr(df_r, arg), 0.0, 1.0)


def quintic(z, tau):
    """z^5 + 3z^4 + 3z^3 + (1 - 9tau^2/4)z^2 - 3tau^2 z - tau^2."""
    tau_sq = tau * tau
    return ((((z + 3) * z + 3) * z + (1 - 2.25 * tau_sq)) * z - 3 * tau_sq) * z - tau_sq


def _check_bmax_columns(problems, rows, alpha) -> None:
    t, n, df = column(rows, "t"), column(rows, "n"), column(rows, "df")
    tau, z = column(rows, "tau"), column(rows, "z_max")
    _close(problems, "tau", tau, np.abs(t) / _t_crit(alpha, df))
    _close(problems, "b_max", column(rows, "b_max"), z / n)
    # The quintic must change sign across the printed root, widened by the
    # printing (1e-9 relative) and by the root finder's bisection width,
    # which is absolute (1e-15) for roots below 1.
    width = 1e-9 * z + 2e-15
    straddles = quintic(z - width, tau) * quintic(z + width, tau) <= 0
    if not np.all(straddles):
        i = int(np.flatnonzero(~straddles)[0])
        problems.append(f"z_max at row {i + 2} is not a root of the b_max quintic: {z[i]!r}")
    if np.any(z <= 0) or np.any(z > tau * (1 + 1e-9)):
        problems.append("z_max outside (0, tau]")


# ---------------------------------------------------------------------------
# integral references


def _f_pdf(x, d1, d2):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        log_pdf = (
            (d1 / 2) * math.log(d1 / d2) + (d1 / 2 - 1) * np.log(x)
            - ((d1 + d2) / 2) * np.log1p(d1 * x / d2) - special.betaln(d1 / 2, d2 / 2)
        )
    return np.where(x > 0, np.exp(log_pdf), 0.0)


def _quad(f) -> float:
    return integrate.quad(f, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10, limit=400)[0]


def p_sig_integral_ref(t, n, df, b_hat, nu0) -> float:
    return _quad(lambda b: 2.0 * special.stdtr(df, -abs(t) / math.sqrt(1 + b * b_hat * n))
                 * _f_pdf(b, df, nu0))


def p_rep_integral_ref(t, n, df, n_r, df_r, alpha, b_hat, nu0) -> float:
    t_crit = float(_t_crit(alpha, df_r))

    def inner(c, bb):
        one_plus_bn = 1.0 + bb * n
        arg = (abs(t) * bb * math.sqrt(n * n_r) / one_plus_bn
               - t_crit * math.sqrt(c * (1.0 + bb * n_r))) / math.sqrt(c + bb * n_r / one_plus_bn)
        return special.stdtr(df_r, arg) * _f_pdf(c, df, df_r)

    return _quad(lambda b: _quad(lambda c: inner(c, b * b_hat)) * _f_pdf(b, df, nu0))


# ---------------------------------------------------------------------------
# per-command checks


def _check_keys(problems, rows, ref) -> None:
    _equal(problems, "(task, site) rows", [(r["task"], r["site"]) for r in rows], ref.keys)


def check_estimate(rows, ref, plan, rng) -> list[str]:
    p: list[str] = []
    _check_keys(p, rows, ref)
    if p:
        return p
    for name, want in (("n", ref.n), ("mean", ref.mean), ("variance", ref.var),
                       ("df", ref.df), ("k", ref.k), ("grand_mean", ref.grand_mean),
                       ("s0_sq", ref.s0_sq), ("b_hat", ref.b_hat)):
        _close(p, name, column(rows, name), want, rtol=1e-9)
    _close(p, "nu0", column(rows, "nu0"), ref.k - 1)
    _close(p, "z", column(rows, "z"), (ref.mean - ref.grand_mean) / np.sqrt(ref.s0_sq),
           rtol=1e-8, atol=1e-10)
    return p


def _check_statistic(p, rows, ref) -> None:
    _check_keys(p, rows, ref)
    if p:
        return
    _close(p, "n", column(rows, "n"), ref.n)
    _close(p, "df", column(rows, "df"), ref.df)
    _close(p, "t", column(rows, "t"), ref.t, rtol=1e-9)


def _check_b_used(p, rows, ref) -> None:
    _close(p, "b_used", column(rows, "b_used"), ref.b_hat, rtol=1e-9)
    _close(p, "nu0_used", column(rows, "nu0_used"), ref.k - 1)


def _sample(rng, count, total) -> list[int]:
    return sorted(rng.choice(total, size=min(count, total), replace=False).tolist())


def check_test(rows, ref, plan, rng) -> list[str]:
    p: list[str] = []
    _check_statistic(p, rows, ref)
    if p:
        return p
    _check_b_used(p, rows, ref)
    t, n, df = column(rows, "t"), column(rows, "n"), column(rows, "df")
    alpha, b, nu0 = column(rows, "alpha"), column(rows, "b_used"), column(rows, "nu0_used")
    _close(p, "effect", column(rows, "effect"), t / np.sqrt(n))
    _close(p, "p_point", column(rows, "p_point"), 2.0 * special.stdtr(df, -np.abs(t)))
    t0, closed = p_sig_closed(t, n, b, nu0)
    _close(p, "t0", column(rows, "t0"), t0)
    p_sig = column(rows, "p_sig")
    if plan.variant == "closed":
        _close(p, "p_sig (closed)", p_sig, closed)
    else:
        for i in _sample(rng, INTEGRAL_SAMPLES["test"], len(rows)):
            want = p_sig_integral_ref(t[i], n[i], df[i], b[i], nu0[i])
            _close(p, f"p_sig (integral) row {i + 2}", p_sig[i], want,
                   rtol=INTEGRAL_RTOL, atol=INTEGRAL_ATOL)
    _equal(p, "direction", [r["direction"] for r in rows],
           ["negative" if x < 0 else "positive" for x in t])
    _equal(p, "significant", [r["significant"] for r in rows],
           ["true" if x <= a else "false" for x, a in zip(p_sig, alpha)])
    return p


def check_predict(rows, ref, plan, rng) -> list[str]:
    p: list[str] = []
    _check_statistic(p, rows, ref)
    if p:
        return p
    _check_b_used(p, rows, ref)
    t, n, df = column(rows, "t"), column(rows, "n"), column(rows, "df")
    n_r, df_r, alpha = column(rows, "n_r"), column(rows, "df_r"), column(rows, "alpha")
    b, nu0, p_rep = column(rows, "b_used"), column(rows, "nu0_used"), column(rows, "p_rep")
    _close(p, "n_r", n_r, plan.facts["nr"])
    _close(p, "df_r", df_r, plan.facts["nr"] - 1)
    if plan.variant == "closed":
        _close(p, "p_rep (closed)", p_rep, p_rep_closed(t, n, n_r, df_r, alpha, b, nu0))
    else:
        for i in _sample(rng, INTEGRAL_SAMPLES["predict"], len(rows)):
            want = p_rep_integral_ref(t[i], n[i], df[i], n_r[i], df_r[i], alpha[i], b[i], nu0[i])
            _close(p, f"p_rep (integral) row {i + 2}", p_rep[i], want,
                   rtol=INTEGRAL_RTOL, atol=INTEGRAL_ATOL)
    _check_bmax_columns(p, rows, alpha)
    return p


def check_bmax(rows, ref, plan, rng) -> list[str]:
    p: list[str] = []
    _check_statistic(p, rows, ref)
    if not p:
        _check_bmax_columns(p, rows, column(rows, "alpha"))
    return p


def _alphas(plan: Plan) -> list[float]:
    for c in plan.commands:
        if c.name == "calibrate" and "--alphas" in c.argv:
            return [float(a) for a in c.argv[c.argv.index("--alphas") + 1].split(",")]
    return [0.1, 0.05, 0.01, 0.005, 0.001]


def calibration_bins(ref: Reference, alphas: list[float]) -> np.ndarray:
    """Closed-variant pair table recomputed from the input.

    Returns rows (pairs, forecast sum, successes) indexed by
    predictor_significant * 40 + forecast bin.
    """
    table = np.zeros((3, 80))
    for idx in ref.task_index.values():
        t, n, df = ref.t[idx], ref.n[idx], ref.df[idx]
        b_hat, nu0 = ref.b_hat[idx], ref.k[idx] - 1
        sign = np.where(t < 0, -1, 1)
        off = ~np.eye(len(idx), dtype=bool)
        for alpha in alphas:
            sig = p_sig_closed(t, n, b_hat, nu0)[1] <= alpha
            f = p_rep_closed(t[:, None], n[:, None], n[None, :], df[None, :], alpha,
                             b_hat[:, None], nu0[:, None])
            hit = sig[None, :] & (sign[None, :] == sign[:, None])
            key = np.minimum((f * 40).astype(int), 39) + 40 * sig[:, None]
            for row, weights in enumerate((None, f, hit)):
                table[row] += np.bincount(
                    key[off], None if weights is None else weights[off], minlength=80
                )
    return table


def check_calibrate(rows, ref, plan, rng) -> list[str]:
    p: list[str] = []
    alphas = _alphas(plan)
    pairs = column(rows, "pairs")
    lower, upper = column(rows, "lower"), column(rows, "upper")
    mean_f, rate = column(rows, "mean_forecast"), column(rows, "observed_rate")
    expected_pairs = sum(len(i) * (len(i) - 1) for i in ref.task_index.values()) * len(alphas)
    _close(p, "total pairs", pairs.sum(), expected_pairs)
    _close(p, "bin width", upper - lower, 1 / 40)
    if np.any(mean_f < lower - 1e-12) or np.any(mean_f > upper + 1e-12):
        p.append("mean_forecast outside its bin")
    if np.any(rate < 0) or np.any(rate > 1):
        p.append("observed_rate outside [0, 1]")
    _equal(p, "included", [r["included"] for r in rows],
           ["true" if x >= 40 else "false" for x in pairs])
    inc = pairs >= 40
    gap = np.sum(pairs[inc] * (rate[inc] - mean_f[inc]))
    want = ("underestimation" if gap > 0 else "overestimation" if gap < 0 else "balanced") \
        if inc.any() else ""
    _equal(p, "direction", {r["direction"] for r in rows}, {want})
    if plan.variant == "closed" and not p:
        table = calibration_bins(ref, alphas)
        keys = [(r["predictor_significant"] == "true") * 40 + round(float(r["lower"]) * 40)
                for r in rows]
        _equal(p, "bins", keys, np.flatnonzero(table[0]).tolist())
        if not p:
            count, total, hits = table[:, keys]
            _close(p, "pairs per bin", pairs, count)
            _close(p, "mean_forecast", mean_f, total / count, rtol=1e-9)
            _close(p, "observed_rate", rate, hits / count)
    return p


def check_simulate(rows, ref, plan, rng) -> list[str]:
    p: list[str] = []
    config = plan.facts["config"]
    tasks, sites, n = config["n_tasks"], config["k_experiments"], config["n_per_experiment"]
    _equal(p, "(task, site) ids",
           [(r["task"], r["site"]) for r in rows[::n]],
           [(f"task{t:04d}", f"site{s:04d}") for t in range(tasks) for s in range(sites)])
    if p or len(rows) != tasks * sites * n:
        return p + [f"{len(rows)} rows, expected {tasks * sites * n}"]
    values = column(rows, "value").reshape(tasks * sites, n)
    if not np.all(np.isfinite(values)):
        return ["non-finite value"]
    # Site means scatter by sqrt(sigma0^2 + sigma^2/n) around mu0; site
    # variances by sqrt(2/(n-1)) around sigma^2. Allow six standard errors.
    spread = math.sqrt(config["sigma0"] ** 2 + 1.0 / n)
    if abs(values.mean() - config["mu0"]) > 6 * spread / math.sqrt(tasks * sites):
        p.append(f"grand mean {values.mean()!r} far from mu0 {config['mu0']!r}")
    within = values.var(axis=1, ddof=1).mean()
    if abs(within - 1.0) > 6 * math.sqrt(2 / (n - 1) / (tasks * sites)):
        p.append(f"mean site variance {within!r} far from sigma^2 = 1")
    return p


def nct_cdf(x, nu, theta) -> float:
    """Noncentral t CDF; where scipy's series gives NaN, the chi-square mixture."""
    value = float(special.nctdtr(nu, theta, x))
    if math.isfinite(value):
        return value
    return _quad(lambda v: special.ndtr(x * math.sqrt(v / nu) - theta)
                 * math.exp(special.xlogy(nu / 2 - 1, v) - v / 2 - (nu / 2) * math.log(2)
                            - special.gammaln(nu / 2)))


def check_power(rows, ref, plan, rng) -> list[str]:
    p: list[str] = []
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    row, q = rows[0], plan.facts["power"]
    d, n, b, alpha = q["effect"], q["n"], q["b"], 0.05
    df = n - 1
    tc = float(_t_crit(alpha, df))

    def power(theta, dof=df, crit=tc):
        return 1.0 - (nct_cdf(crit, dof, theta) - nct_cdf(-crit, dof, theta))

    ceiling = power(abs(d))
    _close(p, "power_point", float(row["power_point"]), power(abs(d) * math.sqrt(n)))
    _close(p, "power_distributional", float(row["power_distributional"]),
           power(abs(d) / math.sqrt(1 + 1 / (b * n))))
    _close(p, "power_ceiling", float(row["power_ceiling"]), ceiling)
    feasible = q["target_power"] <= ceiling
    _equal(p, "feasible", [row["feasible"]], ["true" if feasible else "false"])
    if feasible and not p:
        m = int(float(row["required_n"]))

        def point_power(size):
            return power(abs(d) * math.sqrt(size), size - 1, float(_t_crit(alpha, size - 1)))

        if point_power(m) < q["target_power"] or (m > 2 and point_power(m - 1) >= q["target_power"]):
            p.append(f"required_n {m} is not the smallest size reaching the target")
    return p


CHECKS = {
    "estimate": check_estimate,
    "test": check_test,
    "predict": check_predict,
    "bmax": check_bmax,
    "calibrate": check_calibrate,
    "simulate": check_simulate,
    "power": check_power,
}


def check_output(name: str, path: Path, ref: Reference, plan: Plan,
                 rng: np.random.Generator) -> list[str]:
    """Problems with one command's output file; empty when it is correct."""
    try:
        _, rows = read_table(path)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        return [f"unreadable output: {exc}"]
    if not rows:
        return ["output has no rows"]
    try:
        return CHECKS[name](rows, ref, plan, rng)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
