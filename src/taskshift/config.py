"""Pipeline configuration: defaults, config-file loading, CLI overrides.

Precedence is defaults < config file < command-line flags. Everything
that affects results is carried here so stage fingerprints can detect
parameter changes. A config is checked once, when it is built, whether its
values come from a file, a flag or a keyword, and is frozen after.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import UsageError
from .inputs import read_object

DEFAULT_THETA_GRID = tuple(round(step * 0.05, 2) for step in range(21))
PROVIDERS = ("mock", "remote")
# the least value of each numeric setting that has no upper bound
_LOWER_BOUNDS = {
    "max_attempts": 1,
    "max_in_flight": 1,
    "label_sample_cap": 1,
    "embed_dimension": 1,
    "pca_dim": 1,
    "taxonomy_categories": 1,
    "taxonomy_subclusters": 1,
    "seed": 0,
    "truncate_chars": 0,
    "backoff_base": 0,
    "min_department_vacancies": 0,
}


def _is_number(value: object) -> bool:
    """An int or float that a float holds finitely: not NaN, an infinity or an
    integer beyond the float range (``json.loads`` reads all three)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# what a value of each annotated setting type must be: a bool is not an
# integer, and an integer counts as a number
_JSON_TYPES = {
    "str": ("a string", lambda value: isinstance(value, str)),
    "bool": ("a boolean", lambda value: isinstance(value, bool)),
    "int": ("an integer", lambda value: isinstance(value, int) and not isinstance(value, bool)),
    "float": ("a finite number", _is_number),
    "list[float]": (
        "a list of finite numbers",
        lambda value: isinstance(value, list) and all(map(_is_number, value)),
    ),
}


@dataclass(frozen=True)
class PipelineConfig:
    # inputs
    corpus_path: str = "corpus.jsonl"
    fte_path: str = "fte.csv"
    salary_path: str = "salary.csv"
    grade_totals_path: str = "grade_totals.csv"
    profession_totals_path: str = "profession_totals.csv"
    grade_map_path: str | None = None
    stopwords_path: str | None = None
    vocab_path: str | None = None
    population_total: float | None = None
    min_department_vacancies: int = 0

    # outputs
    out_dir: str = "out"
    cache_dir: str | None = "cache"  # None keeps answers in a temporary store

    # provider
    provider: str = "mock"
    fixtures_path: str | None = None
    strict_fixtures: bool = False
    embed_dimension: int = 768
    remote_base_url: str = ""
    remote_model: str = ""
    remote_embed_model: str = ""
    remote_temperature: float = 0.0
    remote_max_tokens: int = 4096
    api_key_env: str = "TASKSHIFT_API_KEY"
    max_attempts: int = 3
    max_in_flight: int = 8
    backoff_base: float = 0.5
    truncate_chars: int | None = None  # cap on job text length; None = no truncation

    # modelling
    delta: float = 0.75
    theta: float = 0.8
    theta_grid: list[float] = field(default_factory=lambda: list(DEFAULT_THETA_GRID))
    sensitivity_deltas: list[float] = field(default_factory=lambda: [0.5, 0.75, 1.0])
    seed: int = 0
    taxonomy_categories: int = 10
    taxonomy_subclusters: int = 3
    pca_dim: int = 25
    label_sample_cap: int = 200
    new_tasks_fraction: float = 0.10

    def __post_init__(self) -> None:
        """Refuse a setting whose value does not fit its annotation (``T`` or
        ``T | None``) or its range, and give each one spelling, so one configuration
        has one fingerprint however it was given: 0 and None both mean "no
        truncation", a float setting's number is a float with ``-0.0`` as ``0.0``,
        and a list is sorted and distinct, so ``1`` and ``1.0``, or ``[1, 0.5, 1]``
        and ``[0.5, 1]``, are one value."""
        for f in fields(self):
            value = getattr(self, f.name)
            kind = f.type.removesuffix(" | None")
            nullable = kind != f.type
            if value is None and nullable:
                continue
            expected, accepts = _JSON_TYPES[kind]
            if not accepts(value):
                # a value of a type JSON lacks, such as a keyword Path or tuple, by its repr
                json_typed = type(value) in (str, int, float, bool, list, dict, type(None))
                shown = json.dumps(value) if json_typed else repr(value)
                expected = f"{expected} or null" if nullable else expected
                raise UsageError(f"{f.name} {shown} is not {expected}")
            if kind == "float":
                object.__setattr__(self, f.name, float(value) + 0.0)  # -0.0 + 0.0 is 0.0
            elif kind == "list[float]":
                object.__setattr__(self, f.name, sorted({float(item) + 0.0 for item in value}))
        if self.truncate_chars == 0:
            object.__setattr__(self, "truncate_chars", None)

        if not 0.0 < self.delta <= 1.0:
            raise UsageError(f"delta {self.delta} outside (0, 1]")
        if not 0.0 <= self.theta <= 1.0:
            raise UsageError(f"theta {self.theta} outside [0, 1]")
        if not self.theta_grid or any(not 0.0 <= theta <= 1.0 for theta in self.theta_grid):
            raise UsageError("theta grid must hold at least one value, each in [0, 1]")
        if not self.sensitivity_deltas or any(not 0.0 < d <= 1.0 for d in self.sensitivity_deltas):
            raise UsageError("sensitivity decay rates must hold at least one value, each in (0, 1]")
        if self.provider not in PROVIDERS:
            raise UsageError(f"unknown provider {self.provider!r}")
        if self.provider == "remote" and not (self.remote_base_url and self.remote_model):
            raise UsageError("remote provider needs remote_base_url and remote_model")
        if not 0.0 < self.new_tasks_fraction <= 1.0:
            raise UsageError("new_tasks_fraction must lie in (0, 1]")
        for name, least in _LOWER_BOUNDS.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise UsageError(f"{name} {value} is below {least}")

    @classmethod
    def load(cls, path: str | Path | None = None, overrides: dict | None = None) -> "PipelineConfig":
        values: dict = {}
        if path is not None:
            values, _ = read_object(path, "config", error=UsageError)
        unknown = set(values) - {f.name for f in fields(cls)}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if overrides:
            values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)
