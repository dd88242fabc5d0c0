"""Vacancy corpus ingestion and reference workforce tables.

Input corpora are line-delimited JSON (one vacancy per line). Reference
tables are CSV with a header row; confidential cells use the suppression
token ``c`` and are kept as an explicit ``None`` ("absent"), never coerced
to zero. Grade mapping is table-driven with shipped defaults that users
can replace or extend.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataError

log = logging.getLogger(__name__)

SUPPRESSION_TOKEN = "c"
OTHER_DEPTS = "OTHER_DEPTS"
# the sink profession: missing or unknown ones, and those without a reference total
OTHER_PROFESSION = "Other"

_EMAIL_RE = re.compile(r"[\w.+-]+@[\w-]+\.[\w.-]+")
# 9+ digits allowing separators, so years and task counts survive
_PHONE_RE = re.compile(r"(?<!\w)\+?(?:\d[\s().-]?){9,15}(?!\w)")
_DIGIT_RE = re.compile(r"\d")
_NORMALIZE_RE = re.compile(r"[^a-z0-9]+")


class GradeBucket(str, Enum):
    """Responsibility-tier buckets used by the reference statistics."""

    AA_AO = "AA/AO"
    EO = "EO"
    HEO_SEO = "HEO/SEO"
    G6_G7 = "G6/G7"
    SCS = "SCS"
    UNMAPPED = "Unmapped"


@dataclass
class Vacancy:
    """One job advert, as carried through every pipeline stage."""

    vacancy_id: str
    title: str
    department: str
    grade_raw: str
    grade: GradeBucket
    profession: str
    posting_date: date | None
    closing_date: date | None
    job_summary: str
    job_description: str

    def to_record(self) -> dict:
        return {
            "vacancy_id": self.vacancy_id,
            "title": self.title,
            "department": self.department,
            "grade_raw": self.grade_raw,
            "grade": self.grade.value,
            "profession": self.profession,
            "posting_date": self.posting_date.isoformat() if self.posting_date else None,
            "closing_date": self.closing_date.isoformat() if self.closing_date else None,
            "job_summary": self.job_summary,
            "job_description": self.job_description,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Vacancy":
        return cls(
            vacancy_id=str(record["vacancy_id"]),
            title=record.get("title", ""),
            department=record["department"],
            grade_raw=record.get("grade_raw", ""),
            grade=GradeBucket(record["grade"]) if record.get("grade") else GradeBucket.UNMAPPED,
            profession=record.get("profession", OTHER_PROFESSION),
            posting_date=_parse_date(record.get("posting_date")),
            closing_date=_parse_date(record.get("closing_date")),
            job_summary=record.get("job_summary", ""),
            job_description=record.get("job_description", ""),
        )


@dataclass
class ParseIssue:
    """Diagnostic for one skipped record."""

    line_number: int
    vacancy_id: str | None
    reason: str


@dataclass
class ParsedCorpus:
    vacancies: list[Vacancy]
    issues: list[ParseIssue] = field(default_factory=list)


@dataclass
class ReferenceTables:
    """Workforce reference data keyed by (department, grade bucket).

    A value of ``None`` marks a suppressed cell; a missing key means the
    combination was not published at all.
    """

    fte: dict[tuple[str, str], float | None]
    median_salary: dict[tuple[str, str], float | None]
    grade_totals: dict[str, float]
    profession_totals: dict[str, float]
    population_total: float


@dataclass(frozen=True)
class Vocabulary:
    """Controlled category lists; ``None`` leaves a dimension unchecked.

    Grades are always checked against the fixed bucket scheme and are not
    part of this file.
    """

    departments: frozenset[str] | None = None
    professions: frozenset[str] | None = None


def load_vocabulary(path: str | Path) -> Vocabulary:
    try:
        data = json.loads(Path(path).read_text("utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read vocabulary {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"vocabulary {path} is not valid JSON: {exc.msg}") from exc
    departments = data.get("departments")
    professions = data.get("professions")
    return Vocabulary(
        departments=frozenset(departments) if departments is not None else None,
        professions=frozenset(professions) if professions is not None else None,
    )


def _parse_date(value: str | None) -> date | None:
    if not value:
        return None
    return date.fromisoformat(value)


def scrub_pii(text: str) -> str:
    """Remove emails and phone numbers before anything else sees the text.

    Each pattern runs only where it can match: an email needs a literal
    ``@`` and a phone number a digit (any Unicode decimal digit, as ``\\d``
    in a ``str`` pattern matches). Most free text has neither, and the
    regex scans cost more than these checks.
    """
    if "@" in text:
        text = _EMAIL_RE.sub("[email removed]", text)
    if _DIGIT_RE.search(text):
        text = _PHONE_RE.sub("[phone removed]", text)
    return text


def normalize_grade_text(raw: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return " ".join(_NORMALIZE_RE.sub(" ", raw.lower()).split())


def load_grade_map(path: str | Path | None = None) -> dict[str, GradeBucket]:
    """Load a grade mapping table, defaulting to the one shipped in-package.

    Keys are normalized with :func:`normalize_grade_text` on load, so user
    tables may use any casing or punctuation.
    """
    if path is None:
        raw = resources.files("taskshift.data").joinpath("grade_map.json").read_text("utf-8")
    else:
        raw = Path(path).read_text("utf-8")
    table = json.loads(raw)
    mapping: dict[str, GradeBucket] = {}
    for key, bucket in table.items():
        try:
            mapping[normalize_grade_text(key)] = GradeBucket(bucket)
        except ValueError:
            raise DataError(f"grade map entry {key!r} targets unknown bucket {bucket!r}")
    return mapping


def map_grade(grade_raw: str, mapping: dict[str, GradeBucket] | None = None) -> GradeBucket:
    """Map free-text grade to a bucket; unknown text maps to Unmapped.

    Exact normalized lookup first, then longest contiguous token-phrase
    match so decorated strings like "Senior Executive Officer (SEO)" still
    resolve. Deterministic for a fixed table.
    """
    if mapping is None:
        mapping = _default_grade_map()
    normalized = normalize_grade_text(grade_raw)
    if not normalized:
        return GradeBucket.UNMAPPED
    if normalized in mapping:
        return mapping[normalized]
    tokens = tuple(normalized.split())
    for key in sorted(mapping, key=lambda k: (-len(k.split()), k)):
        key_tokens = tuple(key.split())
        span = len(key_tokens)
        if span > len(tokens):
            continue
        if any(tokens[i : i + span] == key_tokens for i in range(len(tokens) - span + 1)):
            return mapping[key]
    return GradeBucket.UNMAPPED


@lru_cache(maxsize=1)
def _default_grade_map() -> dict[str, GradeBucket]:
    return load_grade_map()


def parse_vacancies(
    source: Iterable[str] | str | Path,
    grade_map: dict[str, GradeBucket] | None = None,
    vocab: Vocabulary | None = None,
) -> ParsedCorpus:
    """Parse a line-delimited vacancy stream.

    Malformed records are skipped and reported as issues; an unreadable
    source raises :class:`DataError`. PII is scrubbed from the two free-text
    fields at this boundary so nothing downstream ever sees it. With a
    vocabulary, records in unknown departments are skipped and unknown
    professions are folded into ``OTHER_PROFESSION``.
    """
    lines = _iter_lines(source)
    vacancies: list[Vacancy] = []
    issues: list[ParseIssue] = []
    seen: set[str] = set()
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            issues.append(ParseIssue(line_number, None, f"invalid JSON: {exc.msg}"))
            continue
        reason = _record_problem(record, seen)
        if reason:
            issues.append(ParseIssue(line_number, record.get("vacancy_id"), reason))
            continue
        vacancy_id = str(record["vacancy_id"])
        department = str(record["department"])
        if vocab is not None and vocab.departments is not None and department not in vocab.departments:
            issues.append(
                ParseIssue(line_number, vacancy_id, f"department {department!r} not in vocabulary")
            )
            continue
        profession = str(record.get("profession") or OTHER_PROFESSION)
        if vocab is not None and vocab.professions is not None and profession not in vocab.professions:
            log.info(
                "vacancy %s profession %r not in vocabulary; using %s",
                vacancy_id,
                profession,
                OTHER_PROFESSION,
            )
            profession = OTHER_PROFESSION
        seen.add(vacancy_id)
        vacancies.append(
            Vacancy(
                vacancy_id=vacancy_id,
                title=str(record.get("title", "")),
                department=department,
                grade_raw=str(record.get("grade_raw", "")),
                grade=map_grade(str(record.get("grade_raw", "")), grade_map),
                profession=profession,
                posting_date=_parse_date(record.get("posting_date")),
                closing_date=_parse_date(record.get("closing_date")),
                job_summary=scrub_pii(str(record.get("job_summary", ""))),
                job_description=scrub_pii(str(record.get("job_description", ""))),
            )
        )
    for issue in issues:
        log.warning("skipped vacancy record at line %d: %s", issue.line_number, issue.reason)
    return ParsedCorpus(vacancies, issues)


def _record_problem(record: object, seen: set[str]) -> str | None:
    if not isinstance(record, dict):
        return "record is not an object"
    for required in ("vacancy_id", "department", "grade_raw", "job_description"):
        if required not in record:
            return f"missing field {required!r}"
    if not str(record["vacancy_id"]).strip():
        return "empty vacancy_id"
    if str(record["vacancy_id"]) in seen:
        return "duplicate vacancy_id"
    if not str(record.get("job_description", "")).strip() and not str(
        record.get("job_summary", "")
    ).strip():
        return "both job_description and job_summary empty"
    try:
        _parse_date(record.get("posting_date"))
        _parse_date(record.get("closing_date"))
    except ValueError:
        return "unparseable date"
    return None


def _iter_lines(source: Iterable[str] | str | Path) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            with path.open("r", encoding="utf-8") as handle:
                yield from handle
        except OSError as exc:
            raise DataError(f"cannot read corpus {path}: {exc}") from exc
    else:
        yield from source


def join_salary(vacancy: Vacancy, ref: ReferenceTables) -> float | None:
    """Median salary for the vacancy's (department, grade), or None.

    None covers Unmapped grades, missing combinations, and suppressed
    cells; a number is never fabricated for any of those.
    """
    if vacancy.grade is GradeBucket.UNMAPPED:
        log.info("vacancy %s has unmapped grade %r; no salary", vacancy.vacancy_id, vacancy.grade_raw)
        return None
    key = (vacancy.department, vacancy.grade.value)
    if key not in ref.median_salary:
        log.info("no salary row for %s; vacancy %s has no salary", key, vacancy.vacancy_id)
        return None
    value = ref.median_salary[key]
    if value is None:
        log.info("salary for %s is suppressed; vacancy %s has no salary", key, vacancy.vacancy_id)
        return None
    return value


def _read_cell(token: str, path: Path, line: int) -> float | None:
    token = token.strip()
    if token == SUPPRESSION_TOKEN:
        return None
    try:
        value = float(token.replace(",", ""))
    except ValueError:
        raise DataError(f"{path}:{line}: cannot parse numeric cell {token!r}")
    if value < 0:
        raise DataError(f"{path}:{line}: negative value {value}")
    return value


def _load_cell_table(
    path: Path, value_column: str, vocab: Vocabulary | None = None
) -> dict[tuple[str, str], float | None]:
    table: dict[tuple[str, str], float | None] = {}
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"department", "grade", value_column} <= set(
            reader.fieldnames
        ):
            raise DataError(f"{path}: expected header with department,grade,{value_column}")
        for line, row in enumerate(reader, start=2):
            key = (row["department"].strip(), row["grade"].strip())
            if key[1] not in {bucket.value for bucket in GradeBucket}:
                raise DataError(f"{path}:{line}: unknown grade bucket {key[1]!r}")
            if (
                vocab is not None
                and vocab.departments is not None
                and key[0] not in vocab.departments
            ):
                raise DataError(f"{path}:{line}: department {key[0]!r} not in vocabulary")
            table[key] = _read_cell(row[value_column], path, line)
    return table


def _load_totals(path: Path, key_column: str) -> dict[str, float]:
    totals: dict[str, float] = {}
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {key_column, "fte"} <= set(reader.fieldnames):
            raise DataError(f"{path}: expected header with {key_column},fte")
        for line, row in enumerate(reader, start=2):
            value = _read_cell(row["fte"], path, line)
            if value is None:
                log.warning("%s:%d: suppressed total treated as absent", path, line)
                continue
            totals[row[key_column].strip()] = value
    return totals


def load_reference_tables(
    fte_path: str | Path,
    salary_path: str | Path,
    grade_totals_path: str | Path,
    profession_totals_path: str | Path,
    population_total: float | None = None,
    vocab: Vocabulary | None = None,
) -> ReferenceTables:
    """Load the four reference CSVs.

    ``population_total`` defaults to the sum of the grade totals, which in
    the published statistics includes grades not reported at cell level.
    """
    fte = _load_cell_table(Path(fte_path), "fte", vocab)
    salary = _load_cell_table(Path(salary_path), "median_salary", vocab)
    grade_totals = _load_totals(Path(grade_totals_path), "grade")
    profession_totals = _load_totals(Path(profession_totals_path), "profession")
    if vocab is not None and vocab.professions is not None:
        unknown = sorted(set(profession_totals) - vocab.professions)
        if unknown:
            raise DataError(f"{profession_totals_path}: professions not in vocabulary: {unknown}")
    if population_total is None:
        population_total = sum(grade_totals.values())
    if population_total <= 0:
        raise DataError("population total must be positive")
    return ReferenceTables(
        fte=fte,
        median_salary=salary,
        grade_totals=grade_totals,
        profession_totals=profession_totals,
        population_total=float(population_total),
    )


def department_fte(ref: ReferenceTables) -> dict[str, float]:
    """Per-department FTE summed over grades; suppressed cells contribute 0."""
    totals: dict[str, float] = {}
    for (department, _), value in sorted(ref.fte.items()):
        totals[department] = totals.get(department, 0.0) + (value or 0.0)
    return totals
