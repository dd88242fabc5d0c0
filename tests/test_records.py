"""The frozen record types: field order, defaults, keyword construction, immutability.

Each record is built by keyword with every field, in declaration order, and
built again with only its required fields to read its defaults.
"""

import inspect

import numpy as np
import pytest

from taskshift.clustering import ExposureCluster, KMeansResult, RoleClusters
from taskshift.corpus import Vocabulary
from taskshift.exposure import Band, RoleExposure, TaskRecord
from taskshift.gateway import Schema
from taskshift.gateway.providers import ProviderResult, StructuredRequest
from taskshift.gateway.schema import FieldSpec
from taskshift.pipeline import Stage, StageArtifact
from taskshift.raking import SampleRow
from taskshift.redesign import NewTask
from taskshift.savings import SweepCurve


def _run(pipeline):
    pass


# class -> (every field in order with a value, the defaults of the optional fields)
RECORDS = {
    KMeansResult: (
        {
            "assignments": np.array([0, 1, 1]),
            "centroids": np.zeros((2, 2)),
            "inertia": 0.25,
            "iterations": 4,
        },
        {},
    ),
    RoleClusters: (
        {
            "labels": (ExposureCluster.LOW, ExposureCluster.AUTOMATION),
            "centroids": {ExposureCluster.LOW: (0.1, 0.05)},
        },
        {},
    ),
    Vocabulary: (
        {"departments": frozenset({"HMRC"}), "professions": frozenset({"Policy"})},
        {"departments": None, "professions": None},
    ),
    TaskRecord: (
        {
            "task_number": 2,
            "task_details": "Draft replies to correspondence",
            "exposure": 0.9,
            "band": Band.HIGH,
            "high": 1,
        },
        {},
    ),
    RoleExposure: (
        {
            "mean": 0.6,
            "std": 0.2,
            "high_share": 0.5,
            "medium_share": 0.25,
        },
        {},
    ),
    Stage: (
        {
            "name": "extract",
            "deps": ("ingest",),
            "outputs": ("tasks.jsonl",),
            "params": ("truncate_chars",),
            "run": _run,
            "provider": True,
        },
        {"provider": False},
    ),
    StageArtifact: (
        {"stage": "ingest", "content_hash": "0" * 64, "outputs": {"a.jsonl": "1" * 64}, "reused": True},
        {"reused": False},
    ),
    SampleRow: (
        {"role_key": "V001", "department": "HMRC", "grade": "EO", "profession": "Policy"},
        {},
    ),
    NewTask: (
        {"task_number": 4, "task_details": "Review flagged cases", "task_category": "Oversight"},
        {},
    ),
    SweepCurve: (
        {
            "thetas": (0.0, 1.0),
            "cost_reduction": (1.0, 0.0),
            "productivity_gain": (2.0, 0.0),
            "productivity_upper": (3.0, 0.0),
            "freed_hours": (4.0, 0.0),
            "ratio": (0.5, 0.0),
            "n_cost": (1, 0),
            "n_productivity": (1, 0),
            "n_no_impact": (0, 2),
            "n_missing_salary": 0,
        },
        {},
    ),
    StructuredRequest: (
        {
            "request_id": "extract:V001:description",
            "system_prompt": "List the tasks.",
            "user_prompt": "Job description",
            "output_schema": Schema("tasks", (FieldSpec("tasks", "array"),)),
        },
        {},
    ),
    ProviderResult: (
        {"raw": '{"tasks":[]}', "input_tokens": 12, "output_tokens": 5},
        {"input_tokens": 0, "output_tokens": 0},
    ),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_fields_defaults_and_immutability(cls):
    values, defaults = RECORDS[cls]
    assert list(inspect.signature(cls).parameters) == list(values)

    record = cls(**values)
    for name, value in values.items():
        assert getattr(record, name) is value
    assert repr(record).startswith(f"{cls.__name__}({next(iter(values))}=")

    required = cls(**{name: value for name, value in values.items() if name not in defaults})
    for name, default in defaults.items():
        assert getattr(required, name) == default

    for name in values:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
