"""Task extraction orchestration, exposure banding and role aggregation.

Scores live in [0, 1] and are banded at fixed cutpoints; the High band
sets the per-task automation indicator. Time allocation uses geometric
position weights: earlier-listed tasks are assumed to absorb more of the
contracted 37-hour week, with the decay rate controlling how quickly the
shares fall off (1.0 reproduces equal weighting).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .errors import DataError, UsageError
from .gateway import BatchManager, BatchReport, StructuredResponse
from .prompts import task_extraction_request

if TYPE_CHECKING:
    from .corpus import Vacancy

log = logging.getLogger(__name__)

HOURS_PER_WEEK = 37.0
HIGH_CUTOFF = 0.7
MEDIUM_CUTOFF = 0.5
LOW_CUTOFF = 0.3
MIN_TASKS_PER_ROLE = 2


class Band(str, Enum):
    VERY_LOW = "VeryLow"
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"


# a band by its stored value, without the enum's call machinery
_BAND_OF = {band.value: band for band in Band}


def classify_exposure(score: float) -> tuple[Band, int]:
    """Band a score and return the high-exposure indicator (0/1)."""
    if not 0.0 <= score <= 1.0:
        raise DataError(f"exposure score {score} outside [0, 1]")
    if score >= HIGH_CUTOFF:
        return Band.HIGH, 1
    if score >= MEDIUM_CUTOFF:
        return Band.MEDIUM, 0
    if score >= LOW_CUTOFF:
        return Band.LOW, 0
    return Band.VERY_LOW, 0


class TaskRecord(NamedTuple):
    """One extracted task at its 1-based position in the role."""

    task_number: int
    task_details: str
    exposure: float
    band: Band
    high: int


def task_record(task_number: int, task_details: str, exposure: float) -> TaskRecord:
    band, high = classify_exposure(exposure)
    return TaskRecord(task_number, task_details, exposure, band, high)


# task counts stay small, so a few hundred entries cover every (count, delta)
# a run asks for
@lru_cache(maxsize=256)
def decay_weights(task_count: int, delta: float) -> tuple[float, ...]:
    """Geometric position weights d_t = delta^(t-1), normalized to sum 1.

    Calls with the same arguments share one tuple, so profiles with
    equal task counts share their weights.
    """
    if task_count < 1:
        raise UsageError(f"task count must be >= 1 (got {task_count})")
    if not 0.0 < delta <= 1.0:
        raise UsageError(f"decay rate must be in (0, 1] (got {delta})")
    raw = tuple(delta ** (position - 1) for position in range(1, task_count + 1))
    total = math.fsum(raw)
    return tuple(value / total for value in raw)


class RoleExposure(NamedTuple):
    """Weighted role-level aggregates over one task list."""

    mean: float
    std: float
    high_share: float
    medium_share: float


def weighted_mean_std(scores: Sequence[float], weights: Sequence[float]) -> tuple[float, float]:
    """Weighted mean and weighted population standard deviation."""
    if len(scores) != len(weights):
        raise UsageError(f"{len(scores)} scores vs {len(weights)} weights")
    mean = math.fsum(w * s for w, s in zip(weights, scores))
    variance = math.fsum(w * (s - mean) ** 2 for w, s in zip(weights, scores))
    return mean, math.sqrt(max(variance, 0.0))


def time_shares(scores: Sequence[float], shares: Sequence[float]) -> tuple[float, float]:
    """(High, Medium) time shares: the position shares of the scores in each band."""
    high = math.fsum(w for w, s in zip(shares, scores) if s >= HIGH_CUTOFF)
    medium = math.fsum(w for w, s in zip(shares, scores) if MEDIUM_CUTOFF <= s < HIGH_CUTOFF)
    return high, medium


def role_exposure(tasks: Sequence[TaskRecord], weights: Sequence[float]) -> RoleExposure:
    """Aggregate task records under position weights."""
    if len(tasks) != len(weights):
        raise UsageError(f"{len(tasks)} tasks vs {len(weights)} weights")
    scores = [t.exposure for t in tasks]
    mean, std = weighted_mean_std(scores, weights)
    high_share, medium_share = time_shares(scores, weights)
    return RoleExposure(mean=mean, std=std, high_share=high_share, medium_share=medium_share)


@dataclass(slots=True)
class RoleProfile:
    """A vacancy joined with its extracted tasks and aggregates."""

    vacancy_id: str
    title: str
    department: str
    grade: str
    profession: str
    salary: float | None
    delta: float
    tasks: list[TaskRecord]
    weights: tuple[float, ...]
    aggregates: RoleExposure

    @property
    def job_context(self) -> str:
        return f"{self.title} ({self.grade}, {self.department}, {self.profession})"

    def to_rows(self) -> tuple[dict, list[dict]]:
        """Weight's ``roles.jsonl`` row and ``task_weights.jsonl`` rows; inverse of
        :meth:`from_rows`. A task's ``hours`` and ``value`` split the 37-hour week
        and the salary (absent when it is) by the task's weight."""
        aggregates = self.aggregates
        role = {
            "vacancy_id": self.vacancy_id,
            "title": self.title,
            "department": self.department,
            "grade": self.grade,
            "profession": self.profession,
            "salary": self.salary,
            "delta": self.delta,
            "exposure_mean": aggregates.mean,
            "exposure_std": aggregates.std,
            "high_share": aggregates.high_share,
            "medium_share": aggregates.medium_share,
            "task_count": len(self.tasks),
        }
        tasks = [
            {
                "vacancy_id": self.vacancy_id,
                "task_number": task.task_number,
                "task_details": task.task_details,
                "exposure_score": task.exposure,
                "band": task.band.value,
                "high": task.high,
                "weight": weight,
                "hours": HOURS_PER_WEEK * weight,
                "value": None if self.salary is None else self.salary * weight,
            }
            for task, weight in zip(self.tasks, self.weights)
        ]
        return role, tasks

    @classmethod
    def from_rows(cls, role: Mapping, rows: Sequence[Mapping]) -> "RoleProfile":
        """The profile that :meth:`to_rows` wrote as ``role`` and ``rows``, from the
        stored numbers: no band or aggregate is computed again.

        JSON keeps each float's exact value, so this equals the ``build_profile``
        result that was written. The weights are the cached
        ``decay_weights(task_count, delta)`` tuple that ``build_profile`` used;
        the ``hours`` and ``value`` columns are not read.
        """
        return cls(
            vacancy_id=role["vacancy_id"],
            title=role["title"],
            department=role["department"],
            grade=role["grade"],
            profession=role["profession"],
            salary=role["salary"],
            delta=role["delta"],
            tasks=[
                TaskRecord(
                    row["task_number"],
                    row["task_details"],
                    row["exposure_score"],
                    _BAND_OF[row["band"]],
                    row["high"],
                )
                for row in rows
            ],
            weights=decay_weights(len(rows), role["delta"]),
            aggregates=RoleExposure(
                mean=role["exposure_mean"],
                std=role["exposure_std"],
                high_share=role["high_share"],
                medium_share=role["medium_share"],
            ),
        )


def build_profile(role: Mapping, tasks: Sequence[TaskRecord], delta: float) -> RoleProfile:
    """Profile of a ``vacancies.jsonl`` or ``roles.jsonl`` row and its tasks in list order."""
    weights = decay_weights(len(tasks), delta)
    return RoleProfile(
        vacancy_id=role["vacancy_id"],
        title=role["title"],
        department=role["department"],
        grade=role["grade"],
        profession=role["profession"],
        salary=role["salary"],
        delta=delta,
        tasks=list(tasks),
        weights=weights,
        aggregates=role_exposure(tasks, weights),
    )


def _tasks_from_response(response: StructuredResponse) -> list[TaskRecord]:
    """Renumber payload tasks 1..T in response order, dropping blanks."""
    entries = [
        (entry["task_details"].strip(), float(entry["exposure_score"]))
        for entry in response.payload["tasks"]
    ]
    return [
        task_record(position, details, score)
        for position, (details, score) in enumerate(
            ((d, s) for d, s in entries if d), start=1
        )
    ]


@dataclass
class ExtractionResult:
    tasks_by_vacancy: dict[str, list[TaskRecord]]
    dropped: list[tuple[str, str]]
    reports: list[BatchReport]


def _extract_pass(
    vacancies: Sequence[Vacancy], field: str, manager: BatchManager
) -> tuple[dict[str, list[TaskRecord]], BatchReport]:
    """One batch that asks for the tasks in each vacancy's ``job_<field>``, as
    request ``extract:<vacancy_id>:<field>``: the tasks of each answered
    request, by vacancy id, and the batch's report.

    The requests quote every text, so they are built in the call that sends
    them and freed, with their responses, when this returns.
    """
    vacancy_of = {f"extract:{v.vacancy_id}:{field}": v for v in vacancies}
    responses, report = manager.submit_batch(
        [
            task_extraction_request(request_id, getattr(vacancy, f"job_{field}"))
            for request_id, vacancy in vacancy_of.items()
        ]
    )
    tasks = {
        vacancy_of[response.request_id].vacancy_id: _tasks_from_response(response)
        for response in responses
    }
    return tasks, report


def extract_corpus(vacancies: Sequence[Vacancy], manager: BatchManager) -> ExtractionResult:
    """Batch task extraction with summary fallback for the whole corpus.

    Each description is queried first; a role whose description yields
    fewer than two tasks has its summary tried once. A role still under
    two tasks is listed in ``dropped`` with the reason.
    """
    tasks_by_vacancy: dict[str, list[TaskRecord]] = {}
    dropped: list[tuple[str, str]] = []

    described, report = _extract_pass(
        [v for v in vacancies if v.job_description.strip()], "description", manager
    )
    reports = [report]
    needs_fallback: list[Vacancy] = []
    for vacancy in vacancies:
        records = described.get(vacancy.vacancy_id, [])
        if len(records) >= MIN_TASKS_PER_ROLE:
            tasks_by_vacancy[vacancy.vacancy_id] = records
        elif vacancy.job_summary.strip():
            needs_fallback.append(vacancy)
        else:
            dropped.append((vacancy.vacancy_id, f"{len(records)} task(s) and no summary to retry"))

    if needs_fallback:
        summarised, report = _extract_pass(needs_fallback, "summary", manager)
        reports.append(report)
        for vacancy in needs_fallback:
            records = summarised.get(vacancy.vacancy_id, [])
            if len(records) >= MIN_TASKS_PER_ROLE:
                tasks_by_vacancy[vacancy.vacancy_id] = records
            else:
                dropped.append(
                    (vacancy.vacancy_id, f"under {MIN_TASKS_PER_ROLE} tasks from both fields")
                )

    for vacancy_id, reason in dropped:
        log.warning("dropped vacancy %s: %s", vacancy_id, reason)
    return ExtractionResult(tasks_by_vacancy, dropped, reports)
