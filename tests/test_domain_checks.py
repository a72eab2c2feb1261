"""Every scalar entry point states its domain rules through the shared
checkers in ``distributions``: one error class and one message per rule.
Every column kernel and reducer marks faulty exactly the rows whose scalar
call raises, with that call's error, because both read the same predicates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from distnull import cli, replication, significance
from distnull.distributions import (
    _check_b_hat, _check_df, _check_nu0, _critical, _Faults, _stationary_roots, _t_tail,
    find_positive_root, t_cdf,
)
from distnull.errors import DistnullError, DomainError, ParseError
from distnull.estimators import (
    BetweenVariance, ExperimentSummary, TaskSet, _summary_valid, between_variance,
)
from distnull.oracle import SimConfig, task_pair_records
from distnull.power import PowerQuery, power_ceiling, required_sample_size
from distnull.replication import (
    BmaxResult, ReplicationQuery, _b_max, _p_rep_column, _p_rep_given_b, b_max, killeen_p_rep,
    p_rep_bound, p_rep_closed, p_rep_given_b, p_rep_integral,
)
from distnull.significance import (
    TestStatistic, _p_sig_column, _p_sig_given_b, p_sig_bound, p_sig_closed, p_sig_given_b,
    p_sig_integral,
)

STAT = TestStatistic.from_t(3.0, 20.0, 19.0)
TASK = TaskSet("a", tuple(ExperimentSummary(20.0, m, 1.0, 19.0) for m in (0.5, 0.1, 0.9, 0.3)))

# Each entry point with valid keyword arguments, and the rule of each field
# it checks: "finite", "alpha" (in (0, 1)), or the bound (low, strict) of
# "finite and > low" or "finite and >= low".
POSITIVE, NONNEGATIVE = (0.0, True), (0.0, False)
ENTRY_POINTS = {
    "ExperimentSummary": (
        ExperimentSummary, dict(n=20.0, mean=0.5, sample_variance=1.0, df=19.0),
        {"n": POSITIVE, "mean": "finite", "sample_variance": NONNEGATIVE, "df": POSITIVE},
    ),
    "BetweenVariance": (
        BetweenVariance, dict(s0_sq=0.1, nu0=4.0, grand_mean=0.2, mode="as_published"),
        {"s0_sq": NONNEGATIVE, "nu0": (1.0, False), "grand_mean": "finite"},
    ),
    "TestStatistic": (
        TestStatistic, dict(t=2.0, n=4.0, df=3.0, effect=1.0),
        {"t": "finite", "n": POSITIVE, "df": POSITIVE, "effect": "finite"},
    ),
    "TestStatistic.from_t": (TestStatistic.from_t, dict(t=2.0, n=4.0, df=3.0), {"n": POSITIVE}),
    "ReplicationQuery": (
        ReplicationQuery, dict(stat=STAT, n_r=20.0, df_r=19.0, alpha=0.05, c=1.0),
        {"n_r": POSITIVE, "df_r": POSITIVE, "alpha": "alpha", "c": POSITIVE},
    ),
    "BmaxResult": (
        BmaxResult, dict(tau=2.0, z_max=1.0, b_max=0.05),
        {"tau": POSITIVE, "z_max": POSITIVE, "b_max": POSITIVE},
    ),
    "killeen_p_rep": (killeen_p_rep, dict(effect=0.5, n=20.0), {"effect": "finite", "n": POSITIVE}),
    "PowerQuery": (
        PowerQuery, dict(effect=0.5, n=20.0, df=19.0, alpha=0.05, b=0.1),
        {"effect": "finite", "n": (2.0, False), "df": POSITIVE, "alpha": "alpha", "b": POSITIVE},
    ),
    "power_ceiling": (
        power_ceiling, dict(effect=0.5, df=19.0, alpha=0.05),
        {"effect": "finite", "df": POSITIVE, "alpha": "alpha"},
    ),
    "required_sample_size": (
        required_sample_size, dict(effect=0.5, alpha=0.05, target_power=0.8),
        {"effect": "finite", "alpha": "alpha", "target_power": "alpha"},
    ),
    "SimConfig": (
        SimConfig, {},
        {"mu0": "finite", "sigma0": NONNEGATIVE, "sigma": POSITIVE, "variance_scale_e": POSITIVE},
    ),
    "task_pair_records": (
        task_pair_records, dict(tasks=TASK, alphas=(0.05,)), {"scale_e": POSITIVE},
    ),
    "find_positive_root": (find_positive_root, dict(tau=2.0), {"tau": POSITIVE}),
}


def _cases():
    for entry, (_, _, rules) in ENTRY_POINTS.items():
        for field, rule in rules.items():
            outside = {"finite": [], "alpha": [0.0, 1.0]}.get(rule)
            if outside is None:
                low, strict = rule
                outside = [low if strict else math.nextafter(low, -math.inf)]
            for value in [math.nan, math.inf, -math.inf, *outside]:
                yield pytest.param(entry, field, rule, value, id=f"{entry}-{field}-{value!r}")


def _message(field: str, rule, value: float) -> str:
    if rule == "finite":
        return f"{field} must be finite, got {value!r}"
    if rule == "alpha":
        return f"{field} must lie in (0, 1), got {value!r}"
    low, strict = rule
    return f"{field} must be finite and {'>' if strict else '>='} {low:g}, got {value!r}"


@pytest.mark.parametrize("entry, field, rule, value", _cases())
def test_each_checked_field_raises_its_rule(entry, field, rule, value):
    call, valid, _ = ENTRY_POINTS[entry]
    with pytest.raises(DomainError) as caught:
        call(**{**valid, field: value})
    assert type(caught.value) is DomainError
    assert str(caught.value) == _message(field, rule, value)


def test_valid_arguments_pass():
    for call, valid, _ in ENTRY_POINTS.values():
        call(**valid)


def test_the_estimator_mode_rule():
    for call in (lambda: BetweenVariance(0.1, 4.0, 0.2, "median"),
                 lambda: between_variance(TASK, "median")):
        with pytest.raises(DomainError, match=r"^unknown mode 'median'$"):
            call()


def test_a_statistic_must_be_a_number():
    with pytest.raises(DomainError, match=r"^t must be finite, got '1\.5'$"):
        TestStatistic(t="1.5", n=4.0, df=3.0, effect=1.0)


QUERY = ReplicationQuery(STAT, 20.0, 19.0, 0.05)
# the values every column below holds, then those inside each bound
EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324]
INSIDE = [1.0, 5.0]
BELOW_ZERO, BELOW_ONE = math.nextafter(0.0, -math.inf), math.nextafter(1.0, -math.inf)


def outcome(function, *args):
    """The scalar call's value, or the class and message of its error."""
    try:
        return function(*args)
    except DistnullError as exc:
        return type(exc), str(exc)


def outcomes(values, faults) -> list:
    """A column kernel's rows: the value, or the class and message of the
    row's fault, where the value must be NaN."""
    assert all(math.isnan(values[i]) for i in faults)
    return [(type(faults[i]), str(faults[i])) if i in faults else v
            for i, v in enumerate(np.asarray(values).tolist())]


def _sig(variant, b, nu0):
    return _p_sig_column(variant, STAT.t, STAT.n, STAT.df, b, nu0)


def _rep(variant, b, nu0):
    return _p_rep_column(variant, STAT.t, STAT.n, STAT.df, b, nu0, QUERY.alpha, QUERY.n_r,
                         QUERY.df_r)


# Each column kernel over one checked field: the scalar call a row stands
# for, the check that states the field's rule (the other fields are valid),
# and the values just outside that rule's bound beyond EDGES.
GIVEN_B, REP_GIVEN_B = significance._check_given_b, replication._check_given_b
COLUMN_KERNELS = {
    "p_sig_given_b-b": (lambda b: _p_sig_given_b(STAT.t, STAT.n, STAT.df, b),
                        lambda b: p_sig_given_b(STAT, b), lambda b: GIVEN_B(b, 0.5),
                        [BELOW_ZERO]),
    "p_sig_bound-bound": (lambda b: _sig("bound", b, math.nan), lambda b: p_sig_bound(STAT, b),
                          lambda b: _check_df(b, "bound"), []),
    "p_sig_closed-b_hat": (lambda b: _sig("closed", b, 5.0), lambda b: p_sig_closed(STAT, b, 5.0),
                           _check_b_hat, []),
    "p_sig_closed-nu0": (lambda v: _sig("closed", 0.1, v), lambda v: p_sig_closed(STAT, 0.1, v),
                         _check_nu0, [BELOW_ONE]),
    "p_sig_integral-b_hat": (lambda b: _sig("integral", b, 5.0),
                             lambda b: p_sig_integral(STAT, b, 5.0), _check_b_hat, []),
    "p_sig_integral-nu0": (lambda v: _sig("integral", 0.1, v),
                           lambda v: p_sig_integral(STAT, 0.1, v), _check_nu0, [BELOW_ONE]),
    "p_rep_given_b-b": (lambda b: _p_rep_given_b(STAT.t, STAT.n, b, QUERY.alpha, QUERY.n_r,
                                                 QUERY.df_r),
                        lambda b: p_rep_given_b(QUERY, b), lambda b: REP_GIVEN_B(b, 0.0, 1.0), []),
    "p_rep_bound-bound": (lambda b: _rep("bound", b, math.nan), lambda b: p_rep_bound(QUERY, b),
                          lambda b: _check_df(b, "bound"), []),
    "p_rep_closed-b_hat": (lambda b: _rep("closed", b, 5.0), lambda b: p_rep_closed(QUERY, b, 5.0),
                           _check_b_hat, []),
    "p_rep_closed-nu0": (lambda v: _rep("closed", 0.1, v), lambda v: p_rep_closed(QUERY, 0.1, v),
                         lambda v: replication._check_closed(v, 0.1, 0.0, 1.0), [BELOW_ONE, 2.0]),
    "p_rep_integral-b_hat": (lambda b: _rep("integral", b, 5.0),
                             lambda b: p_rep_integral(QUERY, b, 5.0), _check_b_hat, []),
    "p_rep_integral-nu0": (lambda v: _rep("integral", 0.1, v),
                           lambda v: p_rep_integral(QUERY, 0.1, v), _check_nu0, [BELOW_ONE]),
}


@pytest.mark.parametrize("kernel", COLUMN_KERNELS)
def test_each_column_kernel_faults_where_its_scalar_call_raises(kernel):
    # the public function is a one-row call of the kernel, so the rows are
    # also held to the field's own check: where it raises, the row has its
    # error; elsewhere a fault of the mask would fail to build (_Faults)
    column, scalar, check, outside = COLUMN_KERNELS[kernel]
    values = EDGES + outside + INSIDE
    got = outcomes(*column(np.array(values)))
    assert got == [outcome(scalar, v) for v in values]
    checked = [outcome(check, v) for v in values]
    assert [o for o, c in zip(got, checked) if isinstance(c, tuple)] == [
        c for c in checked if isinstance(c, tuple)]


# Column functions without faults, and the scalar call each row stands for.
NAN_KERNELS = {
    "t_tail-nu-column": (lambda nu: _t_tail(1.5, nu)[0], lambda nu: t_cdf(-1.5, nu)),
    "t_tail-nu-float": (lambda nu: np.array([_t_tail(1.5, v)[0] for v in nu.tolist()]),
                        lambda nu: t_cdf(-1.5, nu)),
    "stationary_roots-tau": (_stationary_roots, find_positive_root),
}


@pytest.mark.parametrize("kernel", NAN_KERNELS)
def test_each_column_kernel_is_nan_where_its_scalar_call_raises(kernel):
    column, scalar = NAN_KERNELS[kernel]
    values = np.array(EDGES + INSIDE)
    expected = [math.nan if isinstance(o, tuple) else o
                for o in (outcome(scalar, v) for v in values.tolist())]
    np.testing.assert_array_equal(column(values), expected)


def test_b_max_faults_where_b_max_raises():
    # b_max = z_max / N underflows to 0 at t = 5e-324 and at (1e-100, 1e250),
    # and overflows at (2.2e138, 5e-324); at t = 0 it is undefined but no fault
    rows = [(t, 20.0) for t in EDGES] + [(3.0, 20.0), (1e-100, 1e250), (2.2e138, 5e-324)]
    t, n = (np.array(c) for c in zip(*rows))
    columns, faults = _b_max(t, n, 29.0, 0.05)
    expected = []
    for t_row, n_row in rows:
        if t_row == 0.0:
            expected.append(math.nan)
        elif math.isfinite(t_row):
            stat = TestStatistic.from_t(t_row, n_row, 29.0)
            expected.append(outcome(lambda: b_max(stat, 0.05).b_max))
        else:  # no statistic holds this t: the fault is BmaxResult's on the row's tau
            expected.append(outcome(BmaxResult, abs(t_row) / _critical(0.05, 29.0), math.nan,
                                    math.nan))
    # NaN, which != itself, as a marker that compares equal
    assert [o if o == o else "nan" for o in outcomes(columns[2], faults)] == [
        o if o == o else "nan" for o in expected]


@pytest.mark.parametrize("field, outside", [
    ("n", []), ("mean", []), ("variance", [BELOW_ZERO]), ("df", []),
])
def test_summary_mask_is_experiment_summary(field, outside):
    valid = dict(n=20.0, mean=0.5, variance=1.0, df=19.0)
    values = EDGES + outside + INSIDE
    columns = {**valid, field: np.array(values)}
    mask = _summary_valid(*columns.values())
    faults = _Faults(~mask, ExperimentSummary, *columns.values())
    expected = [outcome(ExperimentSummary, *{**valid, field: v}.values()) for v in values]
    assert outcomes(np.where(mask, 0.0, math.nan), faults) == [
        o if isinstance(o, tuple) else 0.0 for o in expected]


@pytest.mark.parametrize("field, check, outside", [
    ("b_hat", _check_b_hat, []), ("nu0", _check_nu0, [BELOW_ONE]),
])
def test_b_from_rejects_the_rows_the_scalar_checks_reject(tmp_path, field, check, outside):
    # line 3 is faulty: the error is line 2's where the check rejects its value
    path = tmp_path / "estimates.csv"
    for v in EDGES + outside + INSIDE:
        cells = {"b_hat": 0.1, "nu0": 2.0, field: v}
        path.write_text(f"task,site,b_hat,nu0\na,l1,{cells['b_hat']!r},{cells['nu0']!r}\n"
                        "a,l2,0,2\n")
        with pytest.raises(ParseError) as caught:
            cli._load_b_from(str(path))
        line = 2 if isinstance(outcome(check, v), tuple) else 3
        assert str(caught.value).startswith(f"line {line}: ")


@pytest.mark.parametrize("variant", ["closed", "integral"])
def test_nu0_is_checked_before_b_hat(variant):
    # at b_hat = 0 and nu0 = 0.5 both are out of their domain; nu0's error wins
    error = (DomainError, "nu0 must be finite and >= 1, got 0.5")
    assert outcome({"closed": p_sig_closed, "integral": p_sig_integral}[variant],
                   STAT, 0.0, 0.5) == error
    assert outcome({"closed": p_rep_closed, "integral": p_rep_integral}[variant],
                   QUERY, 0.0, 0.5) == error
    assert outcomes(*_sig(variant, np.array([0.0]), np.array([0.5]))) == [error]
    assert outcomes(*_rep(variant, np.array([0.0]), np.array([0.5]))) == [error]
