import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskshift.corpus import OTHER_DEPTS, load_reference_tables
from taskshift.errors import DataError, UsageError
from taskshift.raking import (
    DIMENSIONS,
    MarginalSet,
    SampleRow,
    append_other_depts,
    build_marginals,
    collapse_unsampled,
    rake,
    scale_to_population,
)


def oracle_rake(rows, targets, tol=1e-12, max_iter=10000):
    """Independent dict-based IPF run to a much tighter tolerance."""
    weights = {i: 1.0 for i in range(len(rows))}
    for _ in range(max_iter):
        before = dict(weights)
        for dimension in DIMENSIONS:
            total = sum(weights.values())
            mass: dict[str, float] = {}
            for i, row in enumerate(rows):
                mass[getattr(row, dimension)] = mass.get(getattr(row, dimension), 0.0) + weights[i]
            for i, row in enumerate(rows):
                category = getattr(row, dimension)
                share = mass[category] / total
                if share > 0:
                    weights[i] *= targets[dimension][category] / share
        change = max(
            abs(weights[i] - before[i]) / before[i] if before[i] else 0.0 for i in weights
        )
        if change < tol:
            break
    return np.array([weights[i] for i in range(len(rows))])


def weighted_share(rows, weights, dimension):
    """Each category's share of the total weight, summed per row."""
    total = float(weights.sum())
    shares = {}
    for row, weight in zip(rows, weights):
        key = getattr(row, dimension)
        shares[key] = shares.get(key, 0.0) + float(weight)
    return {key: value / total for key, value in sorted(shares.items())}


def simple_rows():
    # 2x2 department x grade with counts [[2,1],[1,2]]; profession constant
    return [
        SampleRow("a", "D1", "G1", "P"),
        SampleRow("b", "D1", "G1", "P"),
        SampleRow("c", "D1", "G2", "P"),
        SampleRow("d", "D2", "G1", "P"),
        SampleRow("e", "D2", "G2", "P"),
        SampleRow("f", "D2", "G2", "P"),
    ]


def simple_marginals():
    return MarginalSet(
        targets={
            "department": {"D1": 0.5, "D2": 0.5},
            "grade": {"G1": 0.5, "G2": 0.5},
            "profession": {"P": 1.0},
        },
        population_total=600.0,
    )


class TestMarginalSet:
    def test_targets_must_sum_to_one(self):
        with pytest.raises(DataError, match="sum"):
            MarginalSet(
                targets={
                    "department": {"D1": 0.6, "D2": 0.5},
                    "grade": {"G": 1.0},
                    "profession": {"P": 1.0},
                },
                population_total=10.0,
            )

    def test_negative_target_rejected(self):
        with pytest.raises(DataError, match="negative"):
            MarginalSet(
                targets={
                    "department": {"D1": 1.2, "D2": -0.2},
                    "grade": {"G": 1.0},
                    "profession": {"P": 1.0},
                },
                population_total=10.0,
            )

    def test_all_dimensions_required(self):
        with pytest.raises(UsageError):
            MarginalSet(targets={"department": {"D": 1.0}}, population_total=10.0)


class TestAppendOtherDepts:
    def marginals(self, other_share=0.1):
        return MarginalSet(
            targets={
                "department": {"D1": 0.5 - other_share / 2, "D2": 0.5 - other_share / 2, OTHER_DEPTS: other_share},
                "grade": {"G1": 0.5, "G2": 0.5},
                "profession": {"P1": 0.6, "P2": 0.4},
            },
            population_total=100.0,
        )

    def test_one_row_per_grade_profession_combination(self):
        rows = [
            SampleRow("a", "D1", "G1", "P1"),
            SampleRow("b", "D1", "G2", "P2"),
            SampleRow("c", "D2", "G1", "P2"),
            SampleRow("d", "D2", "G2", "P1"),
        ]
        appended = append_other_depts(rows, self.marginals())
        synthetic = [row for row in appended if row.department == OTHER_DEPTS]
        assert len(synthetic) == 4
        assert {(row.grade, row.profession) for row in synthetic} == {
            ("G1", "P1"),
            ("G1", "P2"),
            ("G2", "P1"),
            ("G2", "P2"),
        }

    def test_idempotent(self):
        rows = [SampleRow("a", "D1", "G1", "P1"), SampleRow("b", "D2", "G2", "P2")]
        once = append_other_depts(rows, self.marginals())
        twice = append_other_depts(once, self.marginals())
        assert len(once) == len(twice)

    def test_requires_other_depts_target(self):
        marginals = simple_marginals()
        with pytest.raises(UsageError):
            append_other_depts(simple_rows(), marginals)

    def test_zero_mass_rows_converge_to_nothing(self):
        rows = [SampleRow("a", "D1", "G1", "P1"), SampleRow("b", "D2", "G1", "P1")]
        marginals = MarginalSet(
            targets={
                "department": {"D1": 0.5, "D2": 0.5, OTHER_DEPTS: 0.0},
                "grade": {"G1": 1.0},
                "profession": {"P1": 1.0},
            },
            population_total=100.0,
        )
        appended = append_other_depts(rows, marginals)
        assert len(appended) == 3
        weights = scale_to_population(rake(appended, marginals).weights, 100.0)
        synthetic_weight = sum(
            w for row, w in zip(appended, weights) if row.department == OTHER_DEPTS
        )
        assert synthetic_weight <= 1e-6 * 100.0


class TestRake:
    def test_fixpoint_when_sample_matches_targets(self):
        rows = simple_rows()
        marginals = MarginalSet(
            targets={
                "department": {"D1": 0.5, "D2": 0.5},
                "grade": {"G1": 0.5, "G2": 0.5},
                "profession": {"P": 1.0},
            },
            population_total=6.0,
        )
        raked = rake(rows, marginals)
        assert raked.converged and raked.iterations == 1
        assert np.allclose(raked.weights, 1.0)

    def test_two_by_two_matches_long_iteration_oracle(self):
        rows = simple_rows()
        marginals = simple_marginals()
        raked = rake(rows, marginals)
        assert raked.converged
        expected = oracle_rake(rows, marginals.targets)
        scale = expected.sum() / raked.weights.sum()
        assert np.allclose(raked.weights * scale, expected, atol=1e-6)
        for dimension in DIMENSIONS:
            for category, share in weighted_share(rows, raked.weights, dimension).items():
                assert abs(share - marginals.targets[dimension][category]) < 1e-6

    def test_single_dimension_single_iteration_scales_by_ratio(self):
        rows = [SampleRow("a", "D1", "G", "P"), SampleRow("b", "D2", "G", "P"), SampleRow("c", "D2", "G", "P")]
        marginals = MarginalSet(
            targets={
                "department": {"D1": 0.6, "D2": 0.4},
                "grade": {"G": 1.0},
                "profession": {"P": 1.0},
            },
            population_total=3.0,
        )
        raked = rake(rows, marginals, max_iter=1)
        # shares: D1 1/3, D2 2/3 -> multipliers 1.8 and 0.6; other dims are no-ops
        assert np.allclose(raked.weights, [0.6 / (1 / 3), 0.4 / (2 / 3) , 0.4 / (2 / 3)])

    def test_sample_category_missing_from_marginals(self):
        rows = simple_rows() + [SampleRow("x", "D3", "G1", "P")]
        with pytest.raises(DataError, match="D3"):
            rake(rows, simple_marginals())

    def test_positive_target_with_empty_cell_names_it(self):
        marginals = MarginalSet(
            targets={
                "department": {"D1": 0.4, "D2": 0.4, "D9": 0.2},
                "grade": {"G1": 0.5, "G2": 0.5},
                "profession": {"P": 1.0},
            },
            population_total=6.0,
        )
        with pytest.raises(DataError, match="D9"):
            rake(simple_rows(), marginals)

    def test_row_order_invariance(self):
        rows = simple_rows()
        marginals = simple_marginals()
        forward = rake(rows, marginals)
        backward = rake(rows[::-1], marginals)
        by_key_fwd = dict(zip((r.role_key for r in rows), forward.weights))
        by_key_bwd = dict(zip((r.role_key for r in rows[::-1]), backward.weights))
        assert by_key_fwd.keys() == by_key_bwd.keys()
        for key in by_key_fwd:
            assert by_key_fwd[key] == pytest.approx(by_key_bwd[key], abs=1e-12)

    def test_weights_stay_strictly_positive(self):
        raked = rake(simple_rows(), simple_marginals())
        assert (raked.weights > 0).all()

    def test_iteration_cap_warns_not_raises(self, caplog):
        rows = simple_rows()
        marginals = MarginalSet(
            targets={
                "department": {"D1": 0.6, "D2": 0.4},
                "grade": {"G1": 0.55, "G2": 0.45},
                "profession": {"P": 1.0},
            },
            population_total=6.0,
        )
        with caplog.at_level("WARNING", logger="taskshift.raking"):
            raked = rake(rows, marginals, tol=1e-30, max_iter=2)
        assert raked.converged is False
        assert raked.iterations == 2
        assert len(raked.history) == 2
        assert any("30" in m or "iterations" in m for m in caplog.messages)


class TestFeasibleTargetsProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_rake_reaches_targets_implied_by_some_weighting(self, seed):
        # derive targets from a hidden positive weighting of the sample, so a
        # solution exists by construction; rake must then match the marginals
        rng = np.random.default_rng(seed)
        departments = ["D1", "D2", "D3"]
        grades = ["G1", "G2"]
        professions = ["P1", "P2"]
        rows = [
            SampleRow(
                f"r{i}",
                departments[rng.integers(3)],
                grades[rng.integers(2)],
                professions[rng.integers(2)],
            )
            for i in range(40)
        ]
        hidden = rng.uniform(0.2, 5.0, len(rows))
        targets = {}
        for dimension, categories in (
            ("department", departments),
            ("grade", grades),
            ("profession", professions),
        ):
            masses = {c: 0.0 for c in categories}
            for row, weight in zip(rows, hidden):
                masses[getattr(row, dimension)] += weight
            total = sum(masses.values())
            targets[dimension] = {
                c: mass / total for c, mass in masses.items() if mass > 0
            }
        marginals = MarginalSet(targets=targets, population_total=1000.0)
        raked = rake(rows, marginals, tol=1e-10, max_iter=600)
        for dimension in DIMENSIONS:
            for category, share in weighted_share(rows, raked.weights, dimension).items():
                assert abs(share - marginals.targets[dimension][category]) < 1e-8


class TestScaleToPopulation:
    def test_proportional_scaling(self):
        scaled = scale_to_population(np.array([1.0, 1.0, 2.0]), 8.0)
        assert scaled.tolist() == [2.0, 2.0, 4.0]

    def test_already_at_total_unchanged(self):
        scaled = scale_to_population(np.array([3.0, 5.0]), 8.0)
        assert scaled.tolist() == [3.0, 5.0]

    def test_zero_weights_rejected(self):
        with pytest.raises(DataError):
            scale_to_population(np.zeros(2), 10.0)

    def test_ratio_preservation(self):
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.1, 5.0, 20)
        scaled = scale_to_population(weights, 12345.0)
        ratios_before = weights[:-1] / weights[1:]
        ratios_after = scaled[:-1] / scaled[1:]
        assert np.allclose(ratios_before, ratios_after, rtol=1e-12)
        assert scaled.sum() == pytest.approx(12345.0, rel=1e-12)


class TestBuildMarginals:
    def test_fixture_tables_have_fifteen_percent_other(self, data_dir):
        ref = load_reference_tables(
            data_dir / "fte.csv",
            data_dir / "salary.csv",
            data_dir / "grade_totals.csv",
            data_dir / "profession_totals.csv",
        )
        marginals = build_marginals(ref)
        assert marginals.targets["department"][OTHER_DEPTS] == pytest.approx(0.15)
        for dimension in DIMENSIONS:
            assert sum(marginals.targets[dimension].values()) == pytest.approx(1.0, abs=1e-12)
        assert "Unreported" not in marginals.targets["grade"]

    def test_covered_exceeding_population_rejected(self, data_dir):
        ref = load_reference_tables(
            data_dir / "fte.csv",
            data_dir / "salary.csv",
            data_dir / "grade_totals.csv",
            data_dir / "profession_totals.csv",
            population_total=100.0,
        )
        with pytest.raises(DataError, match="exceeds"):
            build_marginals(ref)

    def test_collapse_unsampled_moves_mass_to_sink(self):
        marginals = MarginalSet(
            targets={
                "department": {"D1": 1.0},
                "grade": {"G1": 1.0},
                "profession": {"P1": 0.5, "P2": 0.3, "Other": 0.2},
            },
            population_total=10.0,
        )
        sample = [SampleRow("a", "D1", "G1", "P1")]
        collapsed = collapse_unsampled(marginals, sample, "profession", "Other")
        assert collapsed.targets["profession"] == {"P1": 0.5, "Other": 0.5}
