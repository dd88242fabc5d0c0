"""Acceptance suite: one test per criterion, printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from taskshift import redesign
from taskshift.clustering import ExposureCluster, cluster_roles, kmeans
from taskshift.config import DEFAULT_THETA_GRID, PipelineConfig
from taskshift.errors import DataError, EnumViolation, RangeViolation
from taskshift.exposure import decay_weights, role_exposure
from taskshift.gateway import BatchManager, MockProvider, RetryPolicy, validate_payload
from taskshift.metrics import krippendorff_alpha, pearson, spearman
from taskshift.pipeline import STAGES, Pipeline
from taskshift.prompts import (
    TASK_EXTRACTION_SCHEMA,
    TASK_MIX_SCHEMA,
    THEME_FLAGS_SCHEMA,
    THEME_NAMES,
    task_mix_request,
    task_rewrite_request,
)
from taskshift.raking import (
    MarginalSet,
    SampleRow,
    append_other_depts,
    rake,
    scale_to_population,
)
from taskshift.savings import RoleClass, RoleInput, classify_role, exposure_shares, sweep

from conftest import make_tasks, write_config
from test_clustering import brute_force_min_inertia
from test_metrics import oracle_alpha_interval, oracle_pearson, oracle_spearman_no_ties
from test_raking import weighted_share
from test_savings import savings_from_shares

OTHER_DEPTS = "OTHER_DEPTS"

REFERENCE_SCORES = [0.8, 0.9, 0.6, 0.4, 0.3, 0.2]
ROUNDED_WEIGHTS = (0.30, 0.23, 0.17, 0.13, 0.10, 0.07)
REFERENCE_CENTROIDS = [(0.381, 0.118), (0.483, 0.158), (0.586, 0.162), (0.697, 0.136)]


def report(number: int, text: str) -> None:
    print(f"criterion {number:2d} PASS: {text}")


def test_criterion_01_decay_weight_oracle():
    weights = decay_weights(6, 0.75)
    for got, expected in zip(weights, ROUNDED_WEIGHTS):
        assert abs(got - expected) <= 0.005
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        decay_weights(6, 0.75)
        timings.append(time.perf_counter() - start)
    elapsed = min(timings)
    assert elapsed < 1e-3
    report(1, f"T=6 delta=0.75 weights within ±0.005 of reference, {elapsed*1e6:.0f}µs")


def test_criterion_02_weighted_exposure_oracle():
    tasks = make_tasks(REFERENCE_SCORES)
    # the reference arithmetic carries weights at 2 decimal places
    rounded = role_exposure(tasks, ROUNDED_WEIGHTS)
    assert abs(rounded.mean - 0.64) <= 0.005 + 1e-12
    equal = role_exposure(tasks, decay_weights(6, 1.0))
    assert abs(equal.mean - 0.53) <= 0.005
    report(2, f"decay mean {rounded.mean:.4f} ~ 0.64, equal mean {equal.mean:.4f} ~ 0.53")


def test_criterion_03_savings_oracle():
    tasks = make_tasks(REFERENCE_SCORES)
    # the reference arithmetic carries weights at 2 decimal places (high share 0.53);
    # sweep's exact decay weights give 0.53222, and a gain of £20,586.44 at theta 0.8
    aggregates = role_exposure(tasks, ROUNDED_WEIGHTS)
    high, medium = aggregates.high_share, aggregates.medium_share
    assert classify_role(high, 0.8) is RoleClass.PRODUCTIVITY_GAIN
    assert classify_role(high, 0.5) is RoleClass.COST_REDUCTION
    at_80 = savings_from_shares("table2", high, medium, 38680.0, theta=0.8)
    assert abs(at_80.productivity_gain - 20500) <= 1.0
    assert at_80.cost_reduction == 0.0
    at_50 = savings_from_shares("table2", high, medium, 38680.0, theta=0.5)
    assert at_50.cost_reduction == pytest.approx(38680.0)
    assert at_50.productivity_gain == 0.0
    # the sweep puts the role, at weight 1, in the same class at each theta,
    # with money from its own share
    role = RoleInput("table2", tuple(REFERENCE_SCORES), salary=38680.0)
    exact_high, _ = exposure_shares(role.exposures, 0.75)
    curve = sweep([role], theta_grid=[0.8, 0.5], delta=0.75)
    assert (curve.n_productivity, curve.n_cost) == ((1, 0), (0, 1))
    assert curve.productivity_gain == (exact_high * 38680.0, 0.0)
    assert curve.cost_reduction == (0.0, 38680.0)
    report(
        3,
        f"theta=0.8: P=£{at_80.productivity_gain:.0f}, C=0; "
        f"theta=0.5: C=£{at_50.cost_reduction:.0f}, P=0",
    )


def test_criterion_04_ipf_convergence():
    rng = np.random.default_rng(42)
    departments, grades, professions = ["D1", "D2", "D3"], ["G1", "G2", "G3"], ["P1", "P2", "P3"]
    rows = [
        SampleRow(
            f"r{i}",
            departments[rng.integers(3)],
            grades[rng.integers(3)],
            professions[rng.integers(3)],
        )
        for i in range(200)
    ]
    dep = rng.uniform(1.0, 3.0, 3)
    dep_share = dep / dep.sum() * 0.85

    def shares(categories):
        masses = rng.uniform(1.0, 3.0, len(categories))
        return dict(zip(categories, masses / masses.sum()))

    marginals = MarginalSet(
        targets={
            "department": {**dict(zip(departments, dep_share)), OTHER_DEPTS: 1.0 - dep_share.sum()},
            "grade": shares(grades),
            "profession": shares(professions),
        },
        population_total=516150.0,
    )
    rows = append_other_depts(rows, marginals)
    start = time.perf_counter()
    raked = rake(rows, marginals, tol=1e-6, max_iter=30)
    elapsed = time.perf_counter() - start
    assert raked.converged and raked.iterations <= 30
    assert elapsed < 0.1
    scaled = scale_to_population(raked.weights, marginals.population_total)
    assert scaled.sum() == pytest.approx(516150.0, abs=1e-6 * 516150.0)
    worst = 0.0
    for dimension in ("department", "grade", "profession"):
        for category, share in weighted_share(rows, scaled, dimension).items():
            worst = max(worst, abs(share - marginals.targets[dimension][category]))
    assert worst < 1e-5
    report(
        4,
        f"converged in {raked.iterations} iterations, worst marginal error "
        f"{worst:.2e}, {elapsed*1000:.1f}ms",
    )


def test_criterion_05_threshold_monotonicity():
    rng = np.random.default_rng(99)
    roles = []
    for index in range(1000):
        count = int(rng.integers(2, 12))
        exposures = tuple(float(rng.integers(0, 11)) / 10.0 for _ in range(count))
        roles.append(RoleInput(f"r{index}", exposures, salary=float(rng.uniform(2e4, 9e4))))
    curve = sweep(roles, DEFAULT_THETA_GRID, delta=0.75)
    for earlier, later in zip(curve.cost_reduction, curve.cost_reduction[1:]):
        assert later <= earlier + 1e-9
    for earlier, later in zip(curve.n_cost, curve.n_cost[1:]):
        assert later <= earlier
    transitions_checked = 0
    for role in roles:
        high, _ = exposure_shares(role.exposures, 0.75)
        classes = [classify_role(high, theta) for theta in DEFAULT_THETA_GRID]
        if high == 0.0:
            assert all(c is RoleClass.NO_IMPACT for c in classes)
            continue
        boundary = sum(1 for theta in DEFAULT_THETA_GRID if theta <= high)
        assert all(c is RoleClass.COST_REDUCTION for c in classes[:boundary])
        assert all(c is RoleClass.PRODUCTIVITY_GAIN for c in classes[boundary:])
        transitions_checked += 1
    report(
        5,
        f"C(theta) and counts non-increasing over 21 points; "
        f"{transitions_checked} roles transition exactly once at H_j",
    )


def test_criterion_06_exposure_cluster_recovery():
    rng = np.random.default_rng(13)
    points, truth = [], []
    for index, (mean, std) in enumerate(REFERENCE_CENTROIDS):
        for _ in range(200):
            points.append((mean + rng.normal(0, 0.01), std + rng.normal(0, 0.01)))
            truth.append(index)
    clusters = cluster_roles(points, seed=5)
    names = [c.value for c in ExposureCluster]
    agreement = sum(
        1 for label, t in zip(clusters.labels, truth) if label.value == names[t]
    ) / len(truth)
    assert agreement >= 0.99
    ordered = sorted(clusters.centroids.items(), key=lambda kv: kv[1][0])
    assert [name.value for name, _ in ordered] == [
        "Low",
        "Augmentation",
        "Adaptation",
        "Automation",
    ]
    # exhaustive-partition verification on small instances
    for n, k, seed in ((8, 2, 0), (12, 2, 1), (9, 3, 2)):
        small_rng = np.random.default_rng(seed)
        centers = small_rng.uniform(-6, 6, (k, 2))
        small = np.vstack(
            [small_rng.normal(center, 0.3, (n // k + 1, 2)) for center in centers]
        )[:n]
        best, _ = brute_force_min_inertia(small, k)
        assert kmeans(small, k=k, seed=seed).inertia == pytest.approx(best, abs=1e-9)
    report(6, f"{agreement*100:.1f}% recovery, names ascending, k-means matches brute force")


def test_criterion_07_redesign_conservation(fixture_profiles):
    manager = BatchManager(MockProvider(), policy=RetryPolicy(backoff_base=0.0))
    eligible = redesign.eligible_roles(fixture_profiles, 0.8)
    assert eligible, "fixture corpus must contain redesignable roles"

    focus_results, focus_failures = redesign.select_focus_bulk(eligible, manager)
    assert not focus_failures
    plans = [focus_results[profile.vacancy_id] for profile in eligible]
    reorder_results, reorder_failures = redesign.reorder_plan_bulk(eligible, manager)
    assert not reorder_failures
    new_results, new_failures = redesign.new_tasks_plan_bulk(eligible, manager)
    assert not new_failures
    plans.extend(reorder_results.values())
    plans.extend(new_results.values())

    themes, theme_failures = redesign.tag_themes(
        [plan.reasoning for plan in focus_results.values()], manager
    )
    assert not theme_failures

    weights_by_role = {
        p.vacancy_id: dict(zip((t.task_number for t in p.tasks), p.weights))
        for p in eligible
    }
    for plan in plans:
        assert math.fsum(plan.post_weights.values()) == pytest.approx(1.0, abs=1e-9)
        assert len(plan.new_tasks) <= len(plan.automated)
        if plan.variant == redesign.FOCUS:
            base = weights_by_role[plan.role_key][plan.focus_task]
            gain = plan.post_weights[plan.focus_task] - base
            assert gain == pytest.approx(plan.freed_share, abs=1e-12)
        redesign.check_plan(plan)
    for flags in themes:
        assert 1 <= len(flags) <= 3
    report(
        7,
        f"{len(plans)} plans across 3 variants conserve weights; theme flags all in 1..3",
    )


def test_criterion_08_schema_validation_suite():
    rejected = 0

    with pytest.raises(RangeViolation):
        validate_payload(
            json.dumps({"tasks": [{"task_number": 1, "task_details": "x", "exposure_score": 1.3}]}),
            TASK_EXTRACTION_SCHEMA,
        )
    rejected += 1
    with pytest.raises(RangeViolation):
        validate_payload(
            json.dumps({"tasks": [{"task_number": 1, "task_details": "x", "exposure_score": -0.1}]}),
            TASK_EXTRACTION_SCHEMA,
        )
    rejected += 1
    with pytest.raises(EnumViolation):
        validate_payload(
            json.dumps(
                {"tasks": [{"task_number": 1, "task_details": "x", "task_category": "finance_magic"}]}
            ),
            TASK_MIX_SCHEMA,
        )
    rejected += 1
    with pytest.raises(EnumViolation):
        bad_flags = {name: 0 for name in THEME_NAMES} | {THEME_NAMES[0]: 7}
        validate_payload(json.dumps(bad_flags), THEME_FLAGS_SCHEMA)
    rejected += 1

    # structural: non-permutation reorder and excess new tasks
    from test_redesign import build_role

    role = build_role(REFERENCE_SCORES, ROUNDED_WEIGHTS)
    survivors = [(t.task_number, t.task_details) for t in role.tasks if not t.high]
    automated = [(t.task_number, t.task_details) for t in role.tasks if t.high]

    reorder_request = task_rewrite_request("x", role.title, survivors, role.job_context)
    non_permutation = {
        "tasks": [
            {"task_number": n, "label": "No change", "new_task_details": d}
            for n, d in survivors[:-1]
        ]
    }
    manager = BatchManager(
        MockProvider(fixtures={reorder_request.fingerprint(): non_permutation}, strict=True),
        policy=RetryPolicy(backoff_base=0.0),
    )
    results, failures = redesign.reorder_plan_bulk([role], manager)
    assert results == {} and role.vacancy_id in failures
    rejected += 1

    mix_request = task_mix_request(
        "x", role.title, role.department, role.job_context, automated, survivors
    )
    excess = {
        "tasks": [
            {"task_number": -k, "task_details": f"new {k}", "task_category": "risk_management"}
            for k in (1, 2, 3)
        ]
        + [
            {"task_number": n, "task_details": d, "task_category": "service_delivery"}
            for n, d in survivors
        ]
    }
    manager = BatchManager(
        MockProvider(fixtures={mix_request.fingerprint(): excess}, strict=True),
        policy=RetryPolicy(backoff_base=0.0),
    )
    results, failures = redesign.new_tasks_plan_bulk([role], manager)
    assert results == {} and role.vacancy_id in failures
    rejected += 1

    report(8, f"{rejected}/6 crafted invalid fixtures rejected with named error classes")


def test_criterion_09_agreement_metrics():
    fixtures = [
        ([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]),
        ([0.1, 0.5, 0.3, 0.9, 0.7, 0.2], [0.2, 0.4, 0.1, 1.0, 0.6, 0.3]),
    ]
    for x, y in fixtures:
        assert spearman(x, y) == pytest.approx(oracle_spearman_no_ties(x, y), abs=1e-9)
        assert pearson(x, y) == pytest.approx(oracle_pearson(x, y), abs=1e-9)
    alpha_fixtures = [
        [[0, 1], [1, 0]],
        [[0.1, 0.4, 0.7, 1.0, 0.2, 0.6], [0.2, 0.4, 0.6, 0.9, 0.2, 0.7]],
        [[1, 2, 3, 3, 2, 1], [1, 2, 3, 3, 2, 2], [3, 2, 3, 3, 2, 1]],
    ]
    for ratings in alpha_fixtures:
        assert krippendorff_alpha(ratings) == pytest.approx(
            oracle_alpha_interval(ratings), abs=1e-9
        )
    with pytest.raises(DataError):
        krippendorff_alpha([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]])
    report(9, "spearman/pearson/alpha match brute-force oracles to 1e-9; degenerate alpha errors")


def _artifact_digests(out_dir: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_dir() or "manifests" in path.parts:
            continue
        digests[str(path.relative_to(out_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_criterion_10_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    first = PipelineConfig.load(
        write_config(tmp_path, out_dir=str(tmp_path / "out1"), cache_dir=str(tmp_path / "cache1"))
    )
    list(Pipeline(first).run_all())
    second = PipelineConfig.load(
        write_config(tmp_path, out_dir=str(tmp_path / "out2"), cache_dir=str(tmp_path / "cache2"))
    )
    list(Pipeline(second).run_all())
    elapsed = time.perf_counter() - start

    first_digests = _artifact_digests(Path(first.out_dir))
    second_digests = _artifact_digests(Path(second.out_dir))
    assert first_digests.keys() == second_digests.keys()
    differing = [name for name in first_digests if first_digests[name] != second_digests[name]]
    assert differing == []
    assert len(first_digests) >= len(STAGES)
    assert elapsed < 10.0
    report(
        10,
        f"{len(first_digests)} artifacts byte-identical across runs in {elapsed:.2f}s total",
    )
