"""Automation-threshold classification, and sweeps of weighted money over a threshold grid.

A role spending at least the threshold share of its time on high-exposure
tasks is treated as fully displaceable (cost reduction = full salary);
below the threshold the high-exposure share of salary is a productivity
gain, with a medium-exposure upper bound. Roles with no high-exposure
tasks see no impact. Totals use representative weights and compensated
summation so reduction order cannot change results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import UsageError
from .exposure import HOURS_PER_WEEK, decay_weights, time_shares


class RoleClass(str, Enum):
    COST_REDUCTION = "CostReduction"
    PRODUCTIVITY_GAIN = "ProductivityGain"
    NO_IMPACT = "NoImpact"


@dataclass(frozen=True, slots=True)
class RoleInput:
    """The raw material savings needs: ordered scores, salary, weight.

    Keeping raw exposures (not precomputed shares) lets the decay rate be
    swept without re-running extraction.
    """

    role_key: str
    exposures: tuple[float, ...]
    salary: float | None
    weight: float = 1.0


# the class of each code that ``class_codes`` gives a share
CLASS_BY_CODE = (RoleClass.NO_IMPACT, RoleClass.COST_REDUCTION, RoleClass.PRODUCTIVITY_GAIN)


def _share_in_range(high_share):
    """Whether a share (or each share of an array) lies in [0, 1], give or take rounding."""
    return (0.0 <= high_share) & (high_share <= 1.0 + 1e-12)


def class_codes(high_share, theta: float):
    """The rule, for one share or for a numpy array of shares at once, as codes into
    ``CLASS_BY_CODE``: NoImpact when no high-exposure time, CostReduction at or above
    theta, ProductivityGain below it. ``classify_role`` checks the ranges."""
    return (high_share != 0.0) * (1 + (high_share < theta))


def classify_role(high_share: float, theta: float) -> RoleClass:
    """NoImpact when no high-exposure time; CostReduction at or above theta."""
    if not _share_in_range(high_share):
        raise UsageError(f"high-exposure share {high_share} outside [0, 1]")
    if not 0.0 <= theta <= 1.0:
        raise UsageError(f"threshold {theta} outside [0, 1]")
    return CLASS_BY_CODE[class_codes(high_share, theta)]


def classify_roles(high_shares: np.ndarray, theta: float) -> np.ndarray:
    """``classify_role`` of every share at once, as codes into ``CLASS_BY_CODE``.

    It raises what ``classify_role`` raises for the first share outside
    [0, 1], or else for the first share; an empty array raises nothing.
    """
    outside = ~_share_in_range(high_shares)
    for share in (high_shares[outside] if outside.any() else high_shares)[:1].tolist():
        classify_role(share, theta)
    return class_codes(high_shares, theta)


def exposure_shares(exposures: Sequence[float], delta: float) -> tuple[float, float]:
    """(high, medium) time shares of an ordered score list under decay."""
    return time_shares(exposures, decay_weights(len(exposures), delta))


class SweepCurve(NamedTuple):
    """Weighted totals and class counts across the threshold grid."""

    thetas: tuple[float, ...]
    cost_reduction: tuple[float, ...]
    productivity_gain: tuple[float, ...]
    productivity_upper: tuple[float, ...]
    freed_hours: tuple[float, ...]
    ratio: tuple[float, ...]
    n_cost: tuple[int, ...]
    n_productivity: tuple[int, ...]
    n_no_impact: tuple[int, ...]
    n_missing_salary: int

    def to_rows(self) -> list[dict]:
        return [
            {
                "theta": self.thetas[i],
                "cost_reduction": self.cost_reduction[i],
                "productivity_gain": self.productivity_gain[i],
                "productivity_upper": self.productivity_upper[i],
                "ratio": self.ratio[i],
                "n_cost": self.n_cost[i],
                "n_productivity": self.n_productivity[i],
                "n_no_impact": self.n_no_impact[i],
            }
            for i in range(len(self.thetas))
        ]


def sweep(
    roles: Sequence[RoleInput],
    theta_grid: Sequence[float],
    delta: float,
) -> SweepCurve:
    """Classify and total every role at every threshold on the grid.

    A role's high and medium shares come from its exposures at decay rate
    ``delta``. At each threshold a CostReduction role adds ``w * salary`` to
    the cost total, and a ProductivityGain role adds ``w * high * salary``
    to the gain, ``w * (high + medium) * salary`` to its upper bound and
    ``w * high * HOURS_PER_WEEK`` to the freed hours; a role without a
    salary adds no money. Only a role's class depends on the threshold, so
    each weighted amount is computed once, and each threshold sums the
    terms of the roles in the amount's class. ``math.fsum`` rounds the
    exact sum once, so neither the zero terms of roles outside the class
    (or without a salary) nor the order of the terms can change a total.
    """
    thetas = tuple(theta_grid)
    # decay_weights is cached, so roles with equal task counts share one tuple
    shares = [exposure_shares(role.exposures, delta) for role in roles]
    missing_salary = sum(1 for role in roles if role.salary is None)
    highs = [high for high, _ in shares]
    # a role's class depends on its high share alone, so classify_roles
    # classes the distinct shares, all at once for each threshold
    distinct_highs, share_of_role = np.unique(highs, return_inverse=True)

    # a role without a salary adds a zero term to every money total
    def money_terms(amount: Callable[[float, float, float], float]) -> np.ndarray:
        return np.array(
            [
                r.weight * amount(r.salary, h, m) if r.salary is not None else 0.0
                for r, (h, m) in zip(roles, shares)
            ],
            dtype=float,
        )

    cost_terms = money_terms(lambda salary, high, medium: salary)
    gain_terms = money_terms(lambda salary, high, medium: high * salary)
    upper_terms = money_terms(lambda salary, high, medium: (high + medium) * salary)
    freed_terms = np.array([r.weight * (h * HOURS_PER_WEEK) for r, h in zip(roles, highs)])

    def total(in_class: np.ndarray, terms: np.ndarray) -> float:
        return math.fsum(terms[in_class].tolist())

    costs, gains, uppers, freed, ratios = [], [], [], [], []
    n_cost, n_gain, n_none = [], [], []
    for theta in thetas:
        codes = classify_roles(distinct_highs, theta)[share_of_role]
        in_class = {role_class: codes == code for code, role_class in enumerate(CLASS_BY_CODE)}
        is_cost = in_class[RoleClass.COST_REDUCTION]
        is_gain = in_class[RoleClass.PRODUCTIVITY_GAIN]
        cost_total = total(is_cost, cost_terms)
        gain_total = total(is_gain, gain_terms)
        costs.append(cost_total)
        gains.append(gain_total)
        uppers.append(total(is_gain, upper_terms))
        freed.append(total(is_gain, freed_terms))
        ratios.append(gain_total / cost_total if cost_total > 0 else math.inf)
        n_cost.append(int(np.count_nonzero(is_cost)))
        n_gain.append(int(np.count_nonzero(is_gain)))
        n_none.append(int(np.count_nonzero(in_class[RoleClass.NO_IMPACT])))

    return SweepCurve(
        thetas=thetas,
        cost_reduction=tuple(costs),
        productivity_gain=tuple(gains),
        productivity_upper=tuple(uppers),
        freed_hours=tuple(freed),
        ratio=tuple(ratios),
        n_cost=tuple(n_cost),
        n_productivity=tuple(n_gain),
        n_no_impact=tuple(n_none),
        n_missing_salary=missing_salary,
    )
