"""Every scalar entry point states its domain rules through the shared
checkers in ``distributions``: one error class and one message per rule."""

from __future__ import annotations

import math

import pytest

from distnull.distributions import find_positive_root
from distnull.errors import DomainError
from distnull.estimators import BetweenVariance, ExperimentSummary, TaskSet, between_variance
from distnull.oracle import SimConfig, task_pair_records
from distnull.power import PowerQuery, power_ceiling, required_sample_size
from distnull.replication import BmaxResult, ReplicationQuery, killeen_p_rep
from distnull.significance import TestStatistic

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
