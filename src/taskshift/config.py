"""Pipeline configuration: defaults, config-file loading, CLI overrides.

Precedence is defaults < config file < command-line flags. Everything
that affects results is carried here so stage fingerprints can detect
parameter changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import UsageError

DEFAULT_THETA_GRID = tuple(round(step * 0.05, 2) for step in range(21))
PROVIDERS = ("mock", "remote")


@dataclass
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
    cache_dir: str = "cache"

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

    def validate(self) -> None:
        if not 0.0 < self.delta <= 1.0:
            raise UsageError(f"delta {self.delta} outside (0, 1]")
        if not 0.0 <= self.theta <= 1.0:
            raise UsageError(f"theta {self.theta} outside [0, 1]")
        if not self.theta_grid or any(not 0.0 <= theta <= 1.0 for theta in self.theta_grid):
            raise UsageError("theta grid must hold at least one value, each in [0, 1]")
        if any(not 0.0 < delta <= 1.0 for delta in self.sensitivity_deltas):
            raise UsageError("sensitivity decay rates must lie in (0, 1]")
        if self.provider not in PROVIDERS:
            raise UsageError(f"unknown provider {self.provider!r}")
        if self.provider == "remote" and not (self.remote_base_url and self.remote_model):
            raise UsageError("remote provider needs remote_base_url and remote_model")
        if not 0.0 < self.new_tasks_fraction <= 1.0:
            raise UsageError("new_tasks_fraction must lie in (0, 1]")

    @classmethod
    def load(cls, path: str | Path | None = None, overrides: dict | None = None) -> "PipelineConfig":
        values: dict = {}
        if path is not None:
            try:
                values = json.loads(Path(path).read_text("utf-8"))
            except OSError as exc:
                raise UsageError(f"cannot read config {path}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise UsageError(f"config {path} is not valid JSON: {exc.msg}") from exc
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if overrides:
            values.update({k: v for k, v in overrides.items() if v is not None})
        config = cls(**values)
        config.validate()
        return config
