"""Automation-threshold classification, per-role money, and grid sweeps.

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
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_THETA_GRID
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


@dataclass(frozen=True)
class RoleSavings:
    role_key: str
    high_share: float
    role_class: RoleClass
    cost_reduction: float | None
    productivity_gain: float | None
    productivity_upper: float | None
    freed_hours: float


def classify_role(high_share: float, theta: float) -> RoleClass:
    """NoImpact when no high-exposure time; CostReduction at or above theta."""
    if not 0.0 <= high_share <= 1.0 + 1e-12:
        raise UsageError(f"high-exposure share {high_share} outside [0, 1]")
    if not 0.0 <= theta <= 1.0:
        raise UsageError(f"threshold {theta} outside [0, 1]")
    if high_share == 0.0:
        return RoleClass.NO_IMPACT
    if high_share >= theta:
        return RoleClass.COST_REDUCTION
    return RoleClass.PRODUCTIVITY_GAIN


def savings_from_shares(
    role_key: str,
    high_share: float,
    medium_share: float,
    salary: float | None,
    theta: float,
) -> RoleSavings:
    """Per-role amounts from precomputed time shares.

    Missing salary keeps the classification and freed hours but leaves
    every monetary field absent.
    """
    role_class = classify_role(high_share, theta)
    is_cost = role_class is RoleClass.COST_REDUCTION
    is_gain = role_class is RoleClass.PRODUCTIVITY_GAIN
    if salary is None:
        cost = gain = upper = None
    else:
        cost = salary if is_cost else 0.0
        gain = high_share * salary if is_gain else 0.0
        upper = (high_share + medium_share) * salary if is_gain else 0.0
    freed = high_share * HOURS_PER_WEEK if is_gain else 0.0
    return RoleSavings(
        role_key=role_key,
        high_share=high_share,
        role_class=role_class,
        cost_reduction=cost,
        productivity_gain=gain,
        productivity_upper=upper,
        freed_hours=freed,
    )


def exposure_shares(exposures: Sequence[float], delta: float) -> tuple[float, float]:
    """(high, medium) time shares of an ordered score list under decay."""
    return time_shares(exposures, decay_weights(len(exposures), delta).normalized)


@dataclass(frozen=True)
class SweepCurve:
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
    theta_grid: Sequence[float] | None = None,
    delta: float = 0.75,
) -> SweepCurve:
    """Classify and total every role at every threshold on the grid.

    Totals are those of summing ``w * amount`` over each role's
    ``savings_from_shares`` entry, bit for bit. Only a role's class depends
    on the threshold, so each weighted amount is computed once, with the
    same float operations, and each threshold sums the terms of the roles
    in the amount's class. ``math.fsum`` rounds the exact sum once, so
    neither the zero terms of roles outside the class (or without a
    salary) nor the order of the terms can change a total.
    """
    thetas = tuple(theta_grid) if theta_grid is not None else DEFAULT_THETA_GRID
    # decay_weights is cached, so roles with equal task counts share one instance
    shares = [exposure_shares(role.exposures, delta) for role in roles]
    missing_salary = sum(1 for role in roles if role.salary is None)
    highs = [high for high, _ in shares]
    # a role's class depends on its high share alone, so classify_role
    # classes each distinct share once per threshold
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
        by_share = [classify_role(high, theta) for high in distinct_highs.tolist()]
        in_class = {
            role_class: np.array([c is role_class for c in by_share], dtype=bool)[share_of_role]
            for role_class in RoleClass
        }
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


def decay_sensitivity(
    roles: Sequence[RoleInput],
    deltas: Sequence[float] = (0.5, 0.75, 1.0),
    theta_grid: Sequence[float] | None = None,
) -> dict[float, SweepCurve]:
    """Re-run the sweep with shares recomputed under each decay rate."""
    return {delta: sweep(roles, theta_grid=theta_grid, delta=delta) for delta in deltas}
