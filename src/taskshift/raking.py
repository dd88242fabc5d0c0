"""Single-stage iterative proportional fitting of sample weights.

Weights start at 1 and are multiplied, once per dimension per iteration
in the fixed order department, grade, profession, by the ratio of target
share to current weighted share (shares refresh after each dimension
pass). A synthetic OTHER_DEPTS category absorbs population mass from
departments outside the sample; final weights are scaled to the
population total.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import OTHER_DEPTS, GradeBucket, ReferenceTables, department_fte
from .errors import DataError, UsageError

log = logging.getLogger(__name__)

DIMENSIONS = ("department", "grade", "profession")


class SampleRow(NamedTuple):
    role_key: str
    department: str
    grade: str
    profession: str


class Raked(NamedTuple):
    """Raked weights, one per row, with the residual history of the run."""

    weights: np.ndarray
    history: list[float]
    converged: bool
    iterations: int


@dataclass(frozen=True)
class MarginalSet:
    """Target population proportions per dimension plus the total FTE."""

    targets: dict[str, dict[str, float]]
    population_total: float

    def __post_init__(self):
        if set(self.targets) != set(DIMENSIONS):
            raise UsageError(f"marginals must cover exactly {DIMENSIONS}")
        for dimension, categories in self.targets.items():
            if any(share < 0 for share in categories.values()):
                raise DataError(f"negative target share in {dimension}")
            total = math.fsum(categories.values())
            if abs(total - 1.0) > 1e-9:
                raise DataError(f"{dimension} targets sum to {total}, not 1")
        if self.population_total <= 0:
            raise DataError("population total must be positive")


def build_marginals(ref: ReferenceTables) -> MarginalSet:
    """Marginal targets from reference tables, with an OTHER_DEPTS remainder.

    Each dimension is normalized over its own published totals; the
    department dimension gets the uncovered share of the population as
    OTHER_DEPTS mass.
    """
    total = ref.population_total
    covered = department_fte(ref)
    covered_sum = sum(covered.values())
    if covered_sum > total:
        raise DataError(
            f"covered department FTE {covered_sum} exceeds population total {total}"
        )
    departments = {name: fte / total for name, fte in sorted(covered.items())}
    departments[OTHER_DEPTS] = (total - covered_sum) / total

    valid_buckets = {bucket.value for bucket in GradeBucket} - {GradeBucket.UNMAPPED.value}
    grade_totals = {g: v for g, v in ref.grade_totals.items() if g in valid_buckets}
    dropped = set(ref.grade_totals) - set(grade_totals)
    if dropped:
        log.info("grade totals outside the bucket scheme ignored: %s", sorted(dropped))
    grade_sum = sum(grade_totals.values())
    if grade_sum <= 0:
        raise DataError("no usable grade totals")
    grades = {name: fte / grade_sum for name, fte in sorted(grade_totals.items())}

    profession_sum = sum(ref.profession_totals.values())
    if profession_sum <= 0:
        raise DataError("no usable profession totals")
    professions = {
        name: fte / profession_sum for name, fte in sorted(ref.profession_totals.items())
    }

    return MarginalSet(
        targets={"department": departments, "grade": grades, "profession": professions},
        population_total=float(total),
    )


def collapse_unsampled(
    marginals: MarginalSet, rows: list[SampleRow], dimension: str, sink: str
) -> MarginalSet:
    """Fold target mass of categories absent from the sample into ``sink``.

    Raking treats a positive target with zero sample mass as fatal; this
    is the supported way to merge such categories beforehand.
    """
    present = {getattr(row, dimension) for row in rows} | {sink}
    targets = {dim: dict(categories) for dim, categories in marginals.targets.items()}
    moved = 0.0
    for category in list(targets[dimension]):
        if category not in present:
            moved += targets[dimension].pop(category)
    targets[dimension][sink] = targets[dimension].get(sink, 0.0) + moved
    if moved:
        log.info("moved %.4f target mass into %s %r", moved, dimension, sink)
    return MarginalSet(targets=targets, population_total=marginals.population_total)


def append_other_depts(rows: list[SampleRow], marginals: MarginalSet) -> list[SampleRow]:
    """Append one OTHER_DEPTS row per (grade, profession) combination.

    Idempotent: combinations that already have a synthetic row are left
    alone. Requires the department targets to carry an OTHER_DEPTS entry.
    """
    if OTHER_DEPTS not in marginals.targets["department"]:
        raise UsageError("department marginals lack an OTHER_DEPTS share")
    existing = {(row.grade, row.profession) for row in rows if row.department == OTHER_DEPTS}
    combos = sorted({(row.grade, row.profession) for row in rows if row.department != OTHER_DEPTS})
    new_rows = [
        SampleRow(
            role_key=f"synthetic:{OTHER_DEPTS}:{grade}:{profession}",
            department=OTHER_DEPTS,
            grade=grade,
            profession=profession,
        )
        for grade, profession in combos
        if (grade, profession) not in existing
    ]
    return rows + new_rows


def _category_indexes(rows: list[SampleRow], dimension: str) -> dict[str, np.ndarray]:
    buckets: dict[str, list[int]] = {}
    for index, row in enumerate(rows):
        buckets.setdefault(getattr(row, dimension), []).append(index)
    return {key: np.asarray(indexes) for key, indexes in sorted(buckets.items())}


def rake(
    rows: list[SampleRow], marginals: MarginalSet, tol: float = 1e-6, max_iter: int = 30
) -> Raked:
    """IPF from unit weights until max relative weight change < tol.

    Hitting the iteration cap is a warning, not an error; the result
    records the residual history, iteration count and whether the run
    converged.
    """
    if not rows:
        raise UsageError("cannot rake an empty sample")
    index_maps = {dimension: _category_indexes(rows, dimension) for dimension in DIMENSIONS}
    for dimension in DIMENSIONS:
        targets = marginals.targets[dimension]
        sampled = index_maps[dimension]
        missing = sorted(set(sampled) - set(targets))
        if missing:
            raise DataError(f"sample {dimension} categories missing from marginals: {missing}")
        empty = sorted(c for c, share in targets.items() if share > 0 and c not in sampled)
        if empty:
            raise DataError(
                f"positive {dimension} target(s) with zero sample mass: {empty}; "
                "merge these categories before raking"
            )

    weights = np.ones(len(rows))
    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        before = weights.copy()
        for dimension in DIMENSIONS:
            total = weights.sum()
            if total <= 0:
                raise DataError("all weights collapsed to zero during raking")
            for category, indexes in index_maps[dimension].items():
                target = marginals.targets[dimension][category]
                mass = weights[indexes].sum()
                if mass == 0.0:
                    if target > 0:
                        raise DataError(
                            f"{dimension} category {category!r} lost all weight mid-run"
                        )
                    continue
                weights[indexes] *= target / (mass / total)
        with np.errstate(invalid="ignore", divide="ignore"):
            relative = np.abs(weights - before) / before
        relative[before == 0.0] = 0.0
        change = float(relative.max())
        history.append(change)
        if change < tol:
            converged = True
            break
    if not converged:
        log.warning(
            "raking stopped at %d iterations with residual %.3e", iterations, history[-1]
        )
    return Raked(weights, history, converged, iterations)


def scale_to_population(weights: np.ndarray, total: float) -> np.ndarray:
    """Scale weights so they sum to the population total, preserving ratios."""
    mass = float(weights.sum())
    if mass <= 0:
        raise DataError("cannot scale all-zero weights")
    return weights * (total / mass)
