import json
import os
from pathlib import Path

import numpy as np
import pytest

import taskshift
from taskshift.config import PipelineConfig
from taskshift.corpus import load_reference_tables, join_salary, parse_vacancies
from taskshift.exposure import build_profile, extract_corpus, task_record
from taskshift.gateway import BatchManager, EmbeddingRows, MockProvider, RetryPolicy, SegmentStore

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def manager() -> BatchManager:
    return BatchManager(MockProvider(), policy=RetryPolicy(backoff_base=0.0))


def stored_rows(matrix) -> EmbeddingRows:
    """``matrix`` as rows of an anonymous embedding store, as ``embed_texts`` returns them."""
    matrix = np.ascontiguousarray(matrix, dtype=float)
    store = SegmentStore(None)
    keys = [str(row) for row in range(matrix.shape[0])]
    store.append(keys, matrix, matrix.shape[1])
    return EmbeddingRows(store, [store.find(key) for key in keys])


def record_calls(monkeypatch, owner, name: str) -> list:
    """Patch ``owner.name`` to note the arguments of each call; return the notes."""
    calls = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def make_tasks(scores):
    return [task_record(i, f"task number {i}", s) for i, s in enumerate(scores, start=1)]


@pytest.fixture(scope="session")
def fixture_profiles():
    """Profiles for the 10-role fixture corpus, built with the mock provider."""
    parsed = parse_vacancies(DATA_DIR / "corpus.jsonl")
    ref = load_reference_tables(
        DATA_DIR / "fte.csv",
        DATA_DIR / "salary.csv",
        DATA_DIR / "grade_totals.csv",
        DATA_DIR / "profession_totals.csv",
    )
    mgr = BatchManager(MockProvider(), policy=RetryPolicy(backoff_base=0.0))
    extracted = extract_corpus(parsed.vacancies, mgr)
    profiles = []
    for vacancy in parsed.vacancies:
        # the row ingest writes to vacancies.jsonl
        role = {**vacancy.to_record(), "salary": join_salary(vacancy, ref)}
        tasks = extracted.tasks_by_vacancy[vacancy.vacancy_id]
        profiles.append(build_profile(role, tasks, 0.75))
    return profiles


def write_config(tmp_path: Path, **overrides) -> Path:
    values = {
        "corpus_path": str(DATA_DIR / "corpus.jsonl"),
        "fte_path": str(DATA_DIR / "fte.csv"),
        "salary_path": str(DATA_DIR / "salary.csv"),
        "grade_totals_path": str(DATA_DIR / "grade_totals.csv"),
        "profession_totals_path": str(DATA_DIR / "profession_totals.csv"),
        "out_dir": str(tmp_path / "out"),
        "cache_dir": str(tmp_path / "cache"),
        "provider": "mock",
        "backoff_base": 0.0,
        "seed": 7,
    }
    values.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    return path


def child_env(**overrides: str) -> dict[str, str]:
    """This environment for a child Python process, with ``taskshift`` importable."""
    env = dict(os.environ, **overrides)
    source = str(Path(taskshift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return env


def artifacts(out_dir: Path) -> dict[str, bytes]:
    """Every output file's bytes by relative path, manifests left out."""
    return {
        path.relative_to(out_dir).as_posix(): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and "manifests" not in path.relative_to(out_dir).parts
    }


def manifests(out_dir: Path) -> dict[str, dict]:
    """Every manifest by stage, ``produced_at`` left out."""
    found = {}
    for path in sorted((out_dir / "manifests").glob("*.json")):
        found[path.stem] = json.loads(path.read_text("utf-8"))
        del found[path.stem]["produced_at"]
    return found


@pytest.fixture
def fixture_config(tmp_path) -> PipelineConfig:
    return PipelineConfig.load(write_config(tmp_path))
