import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from taskshift.corpus import GradeBucket, Vacancy
from taskshift.errors import DataError, UsageError
from taskshift.exposure import (
    Band,
    RoleProfile,
    build_profile,
    classify_exposure,
    decay_weights,
    extract_corpus,
    role_exposure,
    task_record,
    weighted_mean_std,
)
from taskshift.gateway import BatchManager, MockProvider, RetryPolicy
from taskshift.pipeline import read_jsonl, write_jsonl
from taskshift.prompts import task_extraction_request

from conftest import make_tasks

REFERENCE_SCORES = [0.8, 0.9, 0.6, 0.4, 0.3, 0.2]
REFERENCE_WEIGHTS = [0.30, 0.23, 0.17, 0.13, 0.10, 0.07]


def vacancy(description, summary="", vacancy_id="V1"):
    return Vacancy(
        vacancy_id=vacancy_id,
        title="Officer",
        department="HO",
        grade_raw="EO",
        grade=GradeBucket.EO,
        profession="Other",
        job_summary=summary,
        job_description=description,
    )


def task_column(scores, weights, column, salary=None):
    """One column of the ``task_weights.jsonl`` rows of a role with these scores and weights."""
    tasks = make_tasks(scores)
    profile = RoleProfile(
        vacancy_id="V1",
        title="Officer",
        department="HO",
        grade="EO",
        profession="Other",
        salary=salary,
        delta=0.75,
        tasks=tasks,
        weights=weights,
        aggregates=role_exposure(tasks, weights),
    )
    _, rows = profile.to_rows()
    return [row[column] for row in rows]


def oracle_decay(task_count, delta):
    raw = [delta**t for t in range(task_count)]
    total = sum(raw)
    return [value / total for value in raw]


class TestClassifyExposure:
    @pytest.mark.parametrize(
        "score,band,high",
        [
            (0.7, Band.HIGH, 1),
            (0.3, Band.LOW, 0),
            (0.0, Band.VERY_LOW, 0),
            (0.5, Band.MEDIUM, 0),
            (0.29999, Band.VERY_LOW, 0),
            (0.49999, Band.LOW, 0),
            (0.69999, Band.MEDIUM, 0),
            (1.0, Band.HIGH, 1),
        ],
    )
    def test_cutpoints(self, score, band, high):
        assert classify_exposure(score) == (band, high)

    @pytest.mark.parametrize("score", [-0.1, 1.1])
    def test_out_of_range(self, score):
        with pytest.raises(DataError):
            classify_exposure(score)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_banding_exhaustive_and_consistent(self, score):
        band, high = classify_exposure(score)
        assert (high == 1) == (score >= 0.7)
        assert (high == 1) == (band is Band.HIGH)


class TestDecayWeights:
    def test_table_weights_within_tolerance(self):
        weights = decay_weights(6, 0.75)
        for got, expected in zip(weights, REFERENCE_WEIGHTS):
            assert abs(got - expected) <= 0.005

    def test_equal_weighting_when_delta_one(self):
        assert decay_weights(4, 1.0) == (0.25, 0.25, 0.25, 0.25)

    def test_single_task(self):
        assert decay_weights(1, 0.3) == (1.0,)

    @pytest.mark.parametrize("task_count,delta", [(0, 0.75), (3, 0.0), (3, 1.5), (-1, 0.5)])
    def test_invalid_arguments(self, task_count, delta):
        with pytest.raises(UsageError):
            decay_weights(task_count, delta)

    @given(
        task_count=st.integers(min_value=1, max_value=40),
        delta=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_matches_oracle_and_invariants(self, task_count, delta):
        weights = decay_weights(task_count, delta)
        expected = oracle_decay(task_count, delta)
        assert all(abs(a - b) < 1e-12 for a, b in zip(weights, expected))
        assert abs(math.fsum(weights) - 1.0) <= 1e-12
        for earlier, later in zip(weights, weights[1:]):
            assert abs(earlier / later - 1.0 / delta) <= 1e-9

    def test_same_arguments_share_one_instance(self):
        # every profile with six tasks at 0.75 carries the same weights object
        assert decay_weights(6, 0.75) is decay_weights(6, 0.75)
        assert decay_weights(6, 0.75) is not decay_weights(6, 0.5)


class TestRoleExposure:
    def test_reference_scores_exact_decay_value(self):
        # exact geometric weights, no rounding anywhere
        tasks = make_tasks(REFERENCE_SCORES)
        aggregates = role_exposure(tasks, decay_weights(6, 0.75))
        assert aggregates.mean == pytest.approx(0.6458568458568458, abs=1e-12)

    def test_reference_scores_rounded_weights(self):
        # 0.64 arises when the weight column is rounded to 2 decimals first
        tasks = make_tasks(REFERENCE_SCORES)
        aggregates = role_exposure(tasks, REFERENCE_WEIGHTS)
        assert abs(aggregates.mean - 0.64) <= 0.005 + 1e-12
        assert aggregates.high_share == pytest.approx(0.53, abs=1e-12)

    def test_equal_weighting_value(self):
        tasks = make_tasks(REFERENCE_SCORES)
        aggregates = role_exposure(tasks, decay_weights(6, 1.0))
        assert abs(aggregates.mean - 0.53) <= 0.005

    def test_value_per_task_matches_reference_role(self):
        values = task_column(REFERENCE_SCORES, tuple(REFERENCE_WEIGHTS), "value", salary=38680.0)
        reference = [11604, 8896, 6575, 5028, 3868, 2707]
        for got, expected in zip(values, reference):
            assert abs(got - expected) <= 1.0
        assert math.fsum(values) == pytest.approx(38680.0, abs=0.01)

    def test_hours_sum_to_week(self):
        hours = task_column([0.1, 0.9, 0.5], decay_weights(3, 0.75), "hours")
        assert math.fsum(hours) == pytest.approx(37.0, abs=1e-9)

    def test_constant_scores_zero_std(self):
        tasks = make_tasks([0.4, 0.4, 0.4])
        aggregates = role_exposure(tasks, decay_weights(3, 0.75))
        assert aggregates.mean == pytest.approx(0.4, abs=1e-12)
        assert aggregates.std == 0.0

    def test_high_share_boundaries(self):
        all_high = role_exposure(make_tasks([0.7, 0.9]), decay_weights(2, 0.75))
        assert all_high.high_share == pytest.approx(1.0, abs=1e-12)
        none_high = role_exposure(make_tasks([0.2, 0.69]), decay_weights(2, 0.75))
        assert none_high.high_share == 0.0

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            role_exposure(make_tasks([0.5, 0.5]), decay_weights(3, 0.75))

    def test_zero_weight_extension_leaves_mean_unchanged(self):
        scores = [0.8, 0.2, 0.6]
        weights = decay_weights(3, 0.75)
        base, _ = weighted_mean_std(scores, weights)
        extended, _ = weighted_mean_std(scores + [0.9], list(weights) + [0.0])
        assert extended == pytest.approx(base, abs=1e-15)

    @given(
        scores=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
        index=st.integers(min_value=0, max_value=11),
        bump=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_increasing_a_score_never_decreases_mean(self, scores, index, bump):
        index %= len(scores)
        weights = decay_weights(len(scores), 0.75)
        raised = list(scores)
        raised[index] = min(1.0, raised[index] + bump)
        before, _ = weighted_mean_std(scores, weights)
        after, _ = weighted_mean_std(raised, weights)
        assert after >= before - 1e-12


def extraction_fixture(text, payload):
    return {task_extraction_request("x", text).fingerprint(): payload}


def extracted(description, manager, summary=""):
    """Run extraction on one vacancy and return its tasks."""
    result = extract_corpus([vacancy(description, summary)], manager)
    assert result.dropped == []
    return result.tasks_by_vacancy["V1"]


def payload_of(*scores):
    return {
        "tasks": [
            {"task_number": i, "task_details": f"duty {i}", "exposure_score": s}
            for i, s in enumerate(scores, start=1)
        ]
    }


class TestExtraction:
    def test_description_pass(self):
        fixtures = extraction_fixture("Seven duties.", payload_of(*[0.5] * 7))
        manager = BatchManager(MockProvider(fixtures=fixtures, strict=True))
        tasks = extracted("Seven duties.", manager)
        assert len(tasks) == 7
        assert [t.task_number for t in tasks] == list(range(1, 8))

    def test_summary_fallback_when_description_thin(self):
        fixtures = extraction_fixture("Prose only.", payload_of(0.5)) | extraction_fixture(
            "Summary with bullets.", payload_of(0.2, 0.4, 0.6, 0.8)
        )
        manager = BatchManager(MockProvider(fixtures=fixtures, strict=True))
        tasks = extracted("Prose only.", manager, summary="Summary with bullets.")
        assert len(tasks) == 4

    def test_dropped_when_both_fields_thin(self):
        fixtures = extraction_fixture("Prose only.", payload_of(0.5)) | extraction_fixture(
            "Thin summary.", payload_of(0.9)
        )
        manager = BatchManager(MockProvider(fixtures=fixtures, strict=True))
        result = extract_corpus([vacancy("Prose only.", "Thin summary.")], manager)
        assert result.tasks_by_vacancy == {}
        assert result.dropped[0][0] == "V1"

    def test_provider_failure_drops_role(self):
        manager = BatchManager(
            MockProvider(strict=True), policy=RetryPolicy(backoff_base=0.0)
        )
        result = extract_corpus([vacancy("Anything.", "")], manager)
        assert result.tasks_by_vacancy == {}
        assert len(result.dropped) == 1

    def test_tasks_renumbered_contiguously(self):
        payload = {
            "tasks": [
                {"task_number": 10, "task_details": "first", "exposure_score": 0.5},
                {"task_number": 3, "task_details": " ", "exposure_score": 0.9},
                {"task_number": 99, "task_details": "second", "exposure_score": 0.6},
            ]
        }
        fixtures = extraction_fixture("Renumber me.", payload)
        manager = BatchManager(MockProvider(fixtures=fixtures, strict=True))
        tasks = extracted("Renumber me.", manager)
        assert [(t.task_number, t.task_details) for t in tasks] == [(1, "first"), (2, "second")]

    def test_band_and_indicator_consistent(self):
        record = task_record(1, "x", 0.7)
        assert record.band is Band.HIGH and record.high == 1


ECONOMIST_EQUAL_SCORES = [0.83] * 6 + [0.65] * 6
ECONOMIST_ORDERED_SCORES = [0.8276, 0.8276] + [0.5058] * 11


class TestScoreTaskList:
    """The paper's worked example: an economist's scored task list, aggregated."""

    def test_equal_weighting_twelve_tasks(self):
        weights = decay_weights(12, 1.0)
        mean, std = weighted_mean_std(ECONOMIST_EQUAL_SCORES, weights)
        oracle_mean = sum(ECONOMIST_EQUAL_SCORES) / 12
        oracle_std = math.sqrt(
            sum((s - oracle_mean) ** 2 for s in ECONOMIST_EQUAL_SCORES) / 12
        )
        assert mean == pytest.approx(oracle_mean, abs=1e-12)
        assert std == pytest.approx(oracle_std, abs=1e-12)
        assert abs(mean - 0.74) <= 0.005
        assert abs(std - 0.09) <= 0.005

    def test_decay_weighting_thirteen_tasks(self):
        weights = decay_weights(13, 0.75)
        mean, std = weighted_mean_std(ECONOMIST_ORDERED_SCORES, weights)
        oracle = oracle_decay(13, 0.75)
        oracle_mean = sum(w * s for w, s in zip(oracle, ECONOMIST_ORDERED_SCORES))
        oracle_std = math.sqrt(
            sum(w * (s - oracle_mean) ** 2 for w, s in zip(oracle, ECONOMIST_ORDERED_SCORES))
        )
        assert mean == pytest.approx(oracle_mean, abs=1e-12)
        assert std == pytest.approx(oracle_std, abs=1e-12)
        assert abs(mean - 0.65) <= 0.005
        assert abs(std - 0.16) <= 0.005

    def test_single_task(self):
        assert weighted_mean_std([0.5], decay_weights(1, 0.75)) == (0.5, 0.0)


ROLES = st.fixed_dictionaries(
    {
        "vacancy_id": st.text(min_size=1, max_size=8),
        "title": st.text(max_size=12),
        "department": st.text(max_size=6),
        "grade": st.sampled_from([bucket.value for bucket in GradeBucket]),
        "profession": st.text(max_size=8),
        "salary": st.none() | st.floats(min_value=0, max_value=1e7),
    }
)
TASK_LISTS = st.lists(
    st.tuples(st.text(min_size=1, max_size=20), st.floats(min_value=0, max_value=1)),
    min_size=1,
    max_size=8,
)


class TestStoredProfile:
    @given(
        role=ROLES,
        tasks=TASK_LISTS,
        delta=st.floats(min_value=0, max_value=1, exclude_min=True),
    )
    def test_written_rows_read_back_to_the_built_profile(self, role, tasks, delta):
        records = [task_record(n, details, score) for n, (details, score) in enumerate(tasks, 1)]
        built = build_profile(role, records, delta)
        with tempfile.TemporaryDirectory() as directory:
            roles, task_rows = Path(directory, "roles.jsonl"), Path(directory, "tasks.jsonl")
            role_row, rows = built.to_rows()
            write_jsonl(roles, [role_row])
            write_jsonl(task_rows, rows)
            (stored_role,) = read_jsonl(roles)
            stored = RoleProfile.from_rows(stored_role, read_jsonl(task_rows))
        assert stored == built
        # profiles with equal task counts share one weights tuple
        assert stored.weights is built.weights
