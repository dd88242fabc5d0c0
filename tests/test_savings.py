import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from taskshift import savings as savings_module
from taskshift.errors import UsageError
from taskshift.exposure import decay_weights
from taskshift.savings import (
    DEFAULT_THETA_GRID,
    RoleClass,
    RoleInput,
    classify_role,
    decay_sensitivity,
    exposure_shares,
    savings_from_shares,
    sweep,
)

def role_savings(role, theta, delta=0.75):
    """One role's entry at ``delta``: its shares under decay, then the money."""
    high, medium = exposure_shares(role.exposures, delta)
    return savings_from_shares(role.role_key, high, medium, role.salary, theta)


TABLE_ROLE = dict(role_key="table2", high_share=0.53, medium_share=0.17, salary=38680.0)


def oracle_shares(exposures, delta):
    weights = decay_weights(len(exposures), delta).normalized
    high = sum(w for w, e in zip(weights, exposures) if e >= 0.7)
    medium = sum(w for w, e in zip(weights, exposures) if 0.5 <= e < 0.7)
    return high, medium


def oracle_totals(roles, weights, theta, delta):
    """Spreadsheet-style per-role enumeration, entirely independent code."""
    cost = gain = upper = 0.0
    counts = {"cost": 0, "gain": 0, "none": 0}
    for role, weight in zip(roles, weights):
        high, medium = oracle_shares(role.exposures, delta)
        if high == 0:
            counts["none"] += 1
            continue
        if high >= theta:
            counts["cost"] += 1
            if role.salary is not None:
                cost += weight * role.salary
        else:
            counts["gain"] += 1
            if role.salary is not None:
                gain += weight * high * role.salary
                upper += weight * (high + medium) * role.salary
    return cost, gain, upper, counts


class TestClassifyRole:
    def test_reference_role_above_threshold(self):
        assert classify_role(0.53, 0.8) is RoleClass.PRODUCTIVITY_GAIN

    def test_reference_role_below_threshold(self):
        assert classify_role(0.53, 0.5) is RoleClass.COST_REDUCTION

    def test_boundary_equality_is_cost_reduction(self):
        assert classify_role(0.53, 0.53) is RoleClass.COST_REDUCTION

    def test_zero_share_is_no_impact_at_every_theta(self):
        for theta in DEFAULT_THETA_GRID:
            assert classify_role(0.0, theta) is RoleClass.NO_IMPACT

    def test_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            classify_role(1.5, 0.5)
        with pytest.raises(UsageError):
            classify_role(0.5, -0.1)


class TestRoleSavings:
    def test_productivity_gain_at_default_threshold(self):
        entry = savings_from_shares(theta=0.8, **TABLE_ROLE)
        assert entry.role_class is RoleClass.PRODUCTIVITY_GAIN
        assert abs(entry.productivity_gain - 20500) <= 1.0
        assert entry.cost_reduction == 0.0
        assert abs(entry.productivity_upper - 27075) <= 1.0 + 1e-6
        assert entry.freed_hours == pytest.approx(0.53 * 37, abs=1e-9)

    def test_cost_reduction_at_lower_threshold(self):
        entry = savings_from_shares(theta=0.5, **TABLE_ROLE)
        assert entry.role_class is RoleClass.COST_REDUCTION
        assert entry.cost_reduction == pytest.approx(38680.0)
        assert entry.productivity_gain == 0.0
        assert entry.freed_hours == 0.0

    def test_missing_salary_keeps_class_drops_money(self):
        entry = savings_from_shares("r", 0.53, 0.17, None, 0.8)
        assert entry.role_class is RoleClass.PRODUCTIVITY_GAIN
        assert entry.cost_reduction is None
        assert entry.productivity_gain is None
        assert entry.freed_hours > 0

    def test_upper_bound_never_below_gain(self):
        entry = savings_from_shares("r", 0.4, 0.3, 50000.0, 0.8)
        assert entry.productivity_upper >= entry.productivity_gain

    def test_role_savings_recomputes_shares_per_delta(self):
        role = RoleInput("r", (0.9, 0.2, 0.8), salary=10000.0)
        for delta in (0.5, 0.75, 1.0):
            entry = role_savings(role, theta=0.95, delta=delta)
            high, _ = oracle_shares(role.exposures, delta)
            assert entry.productivity_gain == pytest.approx(high * 10000.0, abs=1e-9)


def three_role_corpus():
    return [
        RoleInput("alpha", (0.9, 0.8, 0.2), salary=30000.0, weight=10.0),
        RoleInput("beta", (0.3, 0.9, 0.5), salary=45000.0, weight=5.0),
        RoleInput("gamma", (0.2, 0.4), salary=25000.0, weight=2.0),
    ]


class TestSweep:
    def test_matches_enumeration_oracle_at_every_grid_point(self):
        roles = three_role_corpus()
        curve = sweep(roles, delta=0.75)
        for index, theta in enumerate(curve.thetas):
            cost, gain, upper, counts = oracle_totals(
                roles, [r.weight for r in roles], theta, 0.75
            )
            assert curve.cost_reduction[index] == pytest.approx(cost, abs=1e-6)
            assert curve.productivity_gain[index] == pytest.approx(gain, abs=1e-6)
            assert curve.productivity_upper[index] == pytest.approx(upper, abs=1e-6)
            assert curve.n_cost[index] == counts["cost"]
            assert curve.n_productivity[index] == counts["gain"]
            assert curve.n_no_impact[index] == counts["none"]

    def test_theta_zero_floor(self):
        curve = sweep(three_role_corpus(), delta=0.75)
        assert curve.productivity_gain[0] == 0.0
        assert curve.n_cost[0] == 2 and curve.n_no_impact[0] == 1

    def test_theta_one_ceiling_only_full_high_roles(self):
        roles = [
            RoleInput("full", (0.9, 0.8), salary=10000.0),
            RoleInput("near", (0.9, 0.69), salary=10000.0),
        ]
        curve = sweep(roles, theta_grid=[1.0], delta=0.75)
        assert curve.n_cost[0] == 1 and curve.n_productivity[0] == 1

    def test_cost_non_increasing_and_counts_reconcile(self):
        roles = three_role_corpus()
        curve = sweep(roles, delta=0.75)
        for earlier, later in zip(curve.cost_reduction, curve.cost_reduction[1:]):
            assert later <= earlier + 1e-9
        for index in range(len(curve.thetas)):
            total = curve.n_cost[index] + curve.n_productivity[index] + curve.n_no_impact[index]
            assert total == len(roles)

    def test_two_way_totals_agree(self):
        # per-role weighted sum vs grouping by class first
        roles = three_role_corpus()
        theta = 0.6
        entries = [role_savings(role, theta, 0.75) for role in roles]
        per_role = math.fsum(
            role.weight * entry.productivity_gain
            for role, entry in zip(roles, entries)
            if entry.productivity_gain is not None
        )
        by_class = math.fsum(
            role.weight * entry.productivity_gain
            for role, entry in zip(roles, entries)
            if entry.role_class is RoleClass.PRODUCTIVITY_GAIN
        )
        assert abs(per_role - by_class) < 0.01

    def test_scale_equivariance(self):
        roles = three_role_corpus()
        scaled = [
            RoleInput(r.role_key, r.exposures, r.salary * 3.0, r.weight) for r in roles
        ]
        base = sweep(roles, delta=0.75)
        tripled = sweep(scaled, delta=0.75)
        for index in range(len(base.thetas)):
            assert tripled.cost_reduction[index] == pytest.approx(
                3.0 * base.cost_reduction[index], rel=1e-12
            )
            assert tripled.productivity_gain[index] == pytest.approx(
                3.0 * base.productivity_gain[index], rel=1e-12
            )

    def test_ratio_infinite_when_no_cost(self):
        roles = [RoleInput("r", (0.9, 0.2), salary=10000.0)]
        curve = sweep(roles, theta_grid=[0.99], delta=0.75)
        assert math.isinf(curve.ratio[0])

    def test_missing_salary_counted_not_totalled(self):
        roles = [RoleInput("r", (0.9, 0.8), salary=None, weight=100.0)]
        curve = sweep(roles, theta_grid=[0.5], delta=0.75)
        assert curve.n_cost[0] == 1
        assert curve.cost_reduction[0] == 0.0
        assert curve.n_missing_salary == 1


class TestDecaySensitivity:
    def test_recompute_oracle_per_delta(self):
        roles = three_role_corpus()
        curves = decay_sensitivity(roles, deltas=(0.5, 0.75, 1.0))
        assert set(curves) == {0.5, 0.75, 1.0}
        for delta, curve in curves.items():
            for index, theta in enumerate(curve.thetas):
                cost, gain, _, _ = oracle_totals(roles, [r.weight for r in roles], theta, delta)
                assert curve.cost_reduction[index] == pytest.approx(cost, abs=1e-6)
                assert curve.productivity_gain[index] == pytest.approx(gain, abs=1e-6)

    def test_all_high_role_invariant_across_deltas(self):
        role = RoleInput("allhigh", (0.9, 0.8, 0.7, 1.0), salary=20000.0)
        curves = decay_sensitivity([role], deltas=(0.5, 0.75, 1.0))
        reference = curves[0.75]
        for delta in (0.5, 1.0):
            assert curves[delta].cost_reduction == reference.cost_reduction
            assert curves[delta].productivity_gain == reference.productivity_gain


class TestTransitionProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        exposures=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10),
    )
    def test_single_transition_at_high_share(self, exposures):
        role = RoleInput("r", tuple(exposures), salary=10000.0)
        high, _ = exposure_shares(role.exposures, 0.75)
        classes = [
            savings_from_shares("r", high, 0.0, 10000.0, theta).role_class
            for theta in DEFAULT_THETA_GRID
        ]
        if high == 0.0:
            assert all(c is RoleClass.NO_IMPACT for c in classes)
        else:
            boundary = sum(1 for theta in DEFAULT_THETA_GRID if theta <= high)
            assert all(c is RoleClass.COST_REDUCTION for c in classes[:boundary])
            assert all(c is RoleClass.PRODUCTIVITY_GAIN for c in classes[boundary:])


def per_role_curve(roles, thetas, delta, weights):
    """Rows of totals summed from one savings_from_shares entry per role and
    threshold, as the sweep first computed them."""
    shares = [exposure_shares(role.exposures, delta) for role in roles]
    rows = []
    for theta in thetas:
        entries = [
            savings_from_shares(role.role_key, high, medium, role.salary, theta)
            for role, (high, medium) in zip(roles, shares)
        ]
        paired = list(zip(weights, entries))
        rows.append(
            {
                "cost_reduction": math.fsum(
                    w * e.cost_reduction for w, e in paired if e.cost_reduction is not None
                ),
                "productivity_gain": math.fsum(
                    w * e.productivity_gain for w, e in paired if e.productivity_gain is not None
                ),
                "productivity_upper": math.fsum(
                    w * e.productivity_upper for w, e in paired if e.productivity_upper is not None
                ),
                "freed_hours": math.fsum(w * e.freed_hours for w, e in paired),
                "n_cost": sum(e.role_class is RoleClass.COST_REDUCTION for e in entries),
                "n_productivity": sum(e.role_class is RoleClass.PRODUCTIVITY_GAIN for e in entries),
                "n_no_impact": sum(e.role_class is RoleClass.NO_IMPACT for e in entries),
            }
        )
    return rows


SCORES = st.sampled_from([0.0, 0.2, 0.45, 0.5, 0.6, 0.69, 0.7, 0.75, 0.9, 1.0])
ROLE = st.builds(
    RoleInput,
    role_key=st.just("r"),
    exposures=st.lists(SCORES, min_size=1, max_size=9).map(tuple),
    salary=st.one_of(st.none(), st.floats(min_value=0.0, max_value=2e5)),
    weight=st.one_of(st.just(1.0), st.floats(min_value=-5.0, max_value=5e4)),
)


class TestSweepBitIdentity:
    @settings(max_examples=200, deadline=None)
    @given(
        roles=st.lists(ROLE, max_size=25),
        delta=st.sampled_from([0.5, 0.75, 1.0]),
        explicit_weights=st.booleans(),
    )
    def test_totals_equal_fsum_of_per_role_terms(self, roles, delta, explicit_weights):
        # every role's own high share is a threshold too, so high_share == theta
        # is met whenever a role has any high-exposure time
        highs = {exposure_shares(role.exposures, delta)[0] for role in roles}
        thetas = sorted(set(DEFAULT_THETA_GRID) | {h for h in highs if h <= 1.0})
        if explicit_weights:
            roles = [dataclasses.replace(role, weight=role.weight * 2.0 + 1.0) for role in roles]
        curve = sweep(roles, theta_grid=thetas, delta=delta)
        expected = per_role_curve(roles, thetas, delta, [role.weight for role in roles])
        for i, row in enumerate(expected):
            assert curve.cost_reduction[i] == row["cost_reduction"]
            assert curve.productivity_gain[i] == row["productivity_gain"]
            assert curve.productivity_upper[i] == row["productivity_upper"]
            assert curve.freed_hours[i] == row["freed_hours"]
            assert curve.n_cost[i] == row["n_cost"]
            assert curve.n_productivity[i] == row["n_productivity"]
            assert curve.n_no_impact[i] == row["n_no_impact"]
            # the written bytes too: a -0.0 where 0.0 was would show here
            for field in ("cost_reduction", "productivity_gain", "productivity_upper", "freed_hours"):
                assert repr(getattr(curve, field)[i]) == repr(row[field])
        assert curve.n_missing_salary == sum(role.salary is None for role in roles)

    @pytest.mark.parametrize(
        "rule, no_impact",
        [
            (lambda high, theta: RoleClass.NO_IMPACT, 4),
            # the boundary moved: a share equal to theta is a productivity gain
            (
                lambda high, theta: (
                    RoleClass.NO_IMPACT
                    if high == 0.0
                    else RoleClass.COST_REDUCTION if high > theta else RoleClass.PRODUCTIVITY_GAIN
                ),
                1,
            ),
        ],
        ids=["no_impact", "boundary_moved"],
    )
    def test_classes_follow_classify_role(self, monkeypatch, rule, no_impact):
        monkeypatch.setattr(savings_module, "classify_role", rule)
        roles = [
            RoleInput("a", (0.9,), 1000.0),
            RoleInput("b", (0.9, 0.2), 2000.0, weight=3.0),
            RoleInput("c", (0.2,), 500.0),
            RoleInput("d", (0.8, 0.6), None),
        ]
        thetas = sorted({0.0, 0.5, 1.0} | {exposure_shares(r.exposures, 0.75)[0] for r in roles})
        curve = sweep(roles, theta_grid=thetas)
        assert curve.n_no_impact == (no_impact,) * len(thetas)
        # the per-role entries follow the same rule, so the totals still match theirs
        expected = per_role_curve(roles, thetas, 0.75, [role.weight for role in roles])
        for field in expected[0]:
            assert list(getattr(curve, field)) == [row[field] for row in expected]

    def test_bad_threshold_raises_as_per_role_check_does(self):
        roles = [RoleInput("a", (0.9,), 1.0), RoleInput("b", (0.9,), 1.0)]
        with pytest.raises(UsageError, match="threshold 1.5"):
            sweep(roles, theta_grid=[0.5, 1.5])
        with pytest.raises(UsageError, match="threshold -0.1"):
            sweep(roles, theta_grid=[-0.1, 1.5])
        assert sweep([], theta_grid=[1.5]).n_cost == (0,)
