import json
import math

import pytest

from taskshift.errors import UsageError
from taskshift.exposure import RoleProfile, decay_weights, role_exposure, task_record
from taskshift.gateway import BatchManager, MockProvider, ResponseCache, RetryPolicy
from taskshift.gateway import batch
from taskshift.prompts import (
    focus_choice_request,
    task_mix_request,
    task_rewrite_request,
    theme_flags_request,
    THEME_NAMES,
)
from taskshift import redesign
from taskshift.pipeline import read_jsonl, write_jsonl
from taskshift.savings import RoleClass, classify_role

from conftest import record_calls

REFERENCE_WEIGHTS = [0.30, 0.23, 0.17, 0.13, 0.10, 0.07]
REFERENCE_SCORES = [0.8, 0.9, 0.6, 0.4, 0.3, 0.2]


def build_role(scores, weights=None, vacancy_id="R1", title="Officer", salary=38680.0, delta=0.75):
    tasks = [task_record(i, f"duty number {i}", s) for i, s in enumerate(scores, start=1)]
    weights = decay_weights(len(tasks), delta) if weights is None else tuple(weights)
    return RoleProfile(
        vacancy_id=vacancy_id,
        title=title,
        department="HO",
        grade="EO",
        profession="Policy",
        salary=salary,
        delta=delta,
        tasks=tasks,
        weights=weights,
        aggregates=role_exposure(tasks, weights),
    )


def reference_role(**kwargs):
    return build_role(REFERENCE_SCORES, REFERENCE_WEIGHTS, **kwargs)


def mock_manager(fixtures=None, strict=False):
    return BatchManager(
        MockProvider(fixtures=fixtures or {}, strict=strict),
        policy=RetryPolicy(backoff_base=0.0),
    )


def single(bulk, role, manager):
    """Run a bulk redesign call on one role and return its result."""
    results, failures = bulk([role], manager)
    assert failures == {}
    return results[role.vacancy_id]


class TestEligibility:
    def test_zero_high_share_excluded(self):
        role = build_role([0.2, 0.3, 0.4])
        assert redesign.eligible_roles([role], 0.8) == []

    def test_fully_automatable_excluded(self):
        role = build_role([0.9, 0.95, 0.8])
        assert role.aggregates.high_share >= 0.8
        assert redesign.eligible_roles([role], 0.8) == []

    def test_partially_exposed_included(self):
        role = reference_role()
        assert redesign.eligible_roles([role], 0.8) == [role]

    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.53, 0.8, 1.0])
    def test_eligible_roles_are_the_productivity_gain_class(self, fixture_profiles, theta):
        roles = fixture_profiles + [reference_role(), build_role([0.2, 0.3])]
        kept = [
            role
            for role in roles
            if classify_role(role.aggregates.high_share, theta) is RoleClass.PRODUCTIVITY_GAIN
        ]
        assert redesign.eligible_roles(roles, theta) == kept

    def test_threshold_outside_unit_interval_is_usage_error(self):
        # savings' classification, with its checks, decides eligibility
        with pytest.raises(UsageError, match="threshold"):
            redesign.eligible_roles([reference_role()], 1.5)


class TestApplyFocus:
    def test_reference_role_weights(self):
        post = redesign.apply_focus(reference_role(), focus_task=3)
        assert post[3] == pytest.approx(0.70, abs=1e-12)
        assert post[4] == pytest.approx(0.13, abs=1e-12)
        assert post[5] == pytest.approx(0.10, abs=1e-12)
        assert post[6] == pytest.approx(0.07, abs=1e-12)
        assert 1 not in post and 2 not in post

    def test_conservation(self):
        post = redesign.apply_focus(reference_role(), focus_task=4)
        assert math.fsum(post.values()) == pytest.approx(1.0, abs=1e-9)

    def test_no_automated_tasks_leaves_weights_unchanged(self):
        role = build_role([0.2, 0.4, 0.6])
        post = redesign.apply_focus(role, focus_task=2)
        assert post == dict(zip((1, 2, 3), role.weights))

    def test_focus_must_survive(self):
        with pytest.raises(UsageError):
            redesign.apply_focus(reference_role(), focus_task=1)


class TestSelectFocus:
    def survivors(self, role):
        return [(t.task_number, t.task_details) for t in role.tasks if not t.high]

    def test_fixture_choice_honoured(self):
        role = reference_role()
        request = focus_choice_request("x", role.title, self.survivors(role))
        fixtures = {request.fingerprint(): {"task_number": 3, "reasoning": "Deepest leverage."}}
        plan = single(redesign.select_focus_bulk, role, mock_manager(fixtures))
        assert plan.focus_task == 3 and plan.reasoning == "Deepest leverage."

    def test_automated_choice_rejected_then_retried(self, monkeypatch):
        role = reference_role()
        request = focus_choice_request("x", role.title, self.survivors(role))
        # attempt 1 answers an automated task; attempt 2 falls to the synthesizer
        fixtures = {request.fingerprint(): {"task_number": 1, "reasoning": "bad"}}
        provider = MockProvider(fixtures=fixtures)
        calls = record_calls(monkeypatch, provider, "complete")
        manager = BatchManager(provider, policy=RetryPolicy(backoff_base=0.0))
        plan = single(redesign.select_focus_bulk, role, manager)
        assert plan.focus_task == 3  # synthesizer picks the lowest surviving number
        assert len(calls) >= 2

    def test_single_survivor_short_circuits_without_provider(self, monkeypatch):
        role = build_role([0.9, 0.8, 0.4])
        provider = MockProvider(strict=True)
        calls = record_calls(monkeypatch, provider, "complete")
        manager = BatchManager(provider)
        plan = single(redesign.select_focus_bulk, role, manager)
        assert plan.focus_task == 3
        assert calls == []
        assert plan.reasoning

    def test_unfixable_choice_flags_role(self):
        role = reference_role()
        responses = {}
        for attempt in (1, 2, 3):
            request = focus_choice_request("x", role.title, self.survivors(role))
            responses[attempt] = request
        # strict provider with a bad fixture only for attempt 1: later attempts miss
        fixtures = {responses[1].fingerprint(): {"task_number": 2, "reasoning": "bad"}}
        manager = mock_manager(fixtures, strict=True)
        results, failures = redesign.select_focus_bulk([role], manager)
        assert results == {}
        assert failures[role.vacancy_id] in ("SchemaInvalid", "ProviderError")

    def test_focus_plan_invariants(self):
        role = reference_role()
        plan = single(redesign.select_focus_bulk, role, mock_manager())
        redesign.check_plan(plan)
        assert plan.post_weights[plan.focus_task] - dict(
            zip((t.task_number for t in role.tasks), role.weights)
        )[plan.focus_task] == pytest.approx(plan.freed_share, abs=1e-12)


class TestWaves:
    def test_retry_appends_nudge_to_first_attempt_prompt(self, monkeypatch):
        role = reference_role()
        provider = MockProvider(strict=True)  # no fixture: every attempt fails
        sent = record_calls(monkeypatch, provider, "complete")
        manager = BatchManager(provider, policy=RetryPolicy(backoff_base=0.0))
        results, failures = redesign.select_focus_bulk([role], manager)
        assert results == {} and failures == {role.vacancy_id: "ProviderError"}
        first = focus_choice_request("x", role.title, TestSelectFocus().survivors(role))
        note = (
            "\n(attempt {}: the previous reply violated the rules; "
            "answer with one of the listed task numbers)"
        )
        assert [request.user_prompt for (request,) in sent] == [
            first.user_prompt,
            first.user_prompt + note.format(2),
            first.user_prompt + note.format(3),
        ]

    @pytest.mark.parametrize(
        "bulk",
        [redesign.select_focus_bulk, redesign.reorder_plan_bulk, redesign.new_tasks_plan_bulk],
    )
    def test_request_that_never_passes_costs_max_attempts_calls(self, bulk, monkeypatch):
        provider = MockProvider(strict=True)
        calls = record_calls(monkeypatch, provider, "complete")
        manager = BatchManager(provider, policy=RetryPolicy(backoff_base=0.0))
        results, failures = bulk([reference_role()], manager)
        assert results == {} and failures == {"R1": "ProviderError"}
        assert len(calls) == 3

    def test_warm_rerun_replays_rejected_and_nudged_answers(self, tmp_path, monkeypatch):
        role = reference_role()
        request = focus_choice_request("x", role.title, TestSelectFocus().survivors(role))
        # attempt 1 names an automated task; the nudged attempt 2 is synthesized
        fixtures = {request.fingerprint(): {"task_number": 1, "reasoning": "bad"}}
        sleeps = []
        monkeypatch.setattr(batch.time, "sleep", sleeps.append)

        def run():
            provider = MockProvider(fixtures=fixtures)
            calls = record_calls(monkeypatch, provider, "complete")
            manager = BatchManager(provider, cache=ResponseCache(tmp_path))
            return redesign.select_focus_bulk([role], manager), len(calls)

        cold, cold_calls = run()
        warm, warm_calls = run()
        assert (cold_calls, warm_calls) == (2, 0)
        assert warm == cold and cold[0][role.vacancy_id].focus_task == 3
        assert sleeps == []  # a rejected answer is not a provider failure

    def test_theme_failures_keyed_by_input_index(self):
        manager = BatchManager(MockProvider(strict=True), policy=RetryPolicy(backoff_base=0.0))
        themed, failures = redesign.tag_themes(["first", "second"], manager)
        assert themed == [(), ()]
        assert failures == {0: "ProviderError", 1: "ProviderError"}


class TestPlanRecord:
    def test_round_trip_with_ten_or_more_tasks(self):
        plan = redesign.RedesignPlan(
            role_key="R1",
            variant=redesign.NEW_TASKS,
            automated=(1,),
            freed_share=0.25,
            post_weights={n: 1.0 / 12 for n in (-1, *range(2, 13))},
            new_tasks=(redesign.NewTask(-1, "oversee model risk", "risk_management"),),
            new_details={2: "first", 10: "tenth"},
        )
        line = json.dumps(plan.to_record(), sort_keys=True)
        record = json.loads(line)
        # keys are text, so "10" sorts before "2" in the written line
        assert list(record["post_weights"]) == sorted(str(n) for n in plan.post_weights)
        assert list(record["new_details"]) == ["10", "2"]
        assert redesign.RedesignPlan.from_record(record) == plan


class TestTagThemes:
    def test_single_flag_fixture(self):
        request = theme_flags_request("x", "Judgment calls only a person can make.")
        payload = {name: 0 for name in THEME_NAMES}
        payload["human_centric_leadership"] = 1
        fixtures = {request.fingerprint(): payload}
        themes, failures = redesign.tag_themes(
            ["Judgment calls only a person can make."], mock_manager(fixtures)
        )
        assert themes == [("human_centric_leadership",)]
        assert failures == {}

    def test_four_flags_rejected_then_synthesized(self):
        text = "Does everything at once."
        request = theme_flags_request("x", text)
        payload = {name: 1 for name in THEME_NAMES[:4]} | {name: 0 for name in THEME_NAMES[4:]}
        fixtures = {request.fingerprint(): payload}
        themes, failures = redesign.tag_themes([text], mock_manager(fixtures))
        assert failures == {}
        assert 1 <= len(themes[0]) <= 3

    def test_share_arithmetic(self):
        texts = [f"reasoning text {i}" for i in range(8)]
        themes, failures = redesign.tag_themes(texts, mock_manager())
        assert failures == {}
        shares = redesign.theme_shares(themes)
        assert all(0.0 <= share <= 1.0 for share in shares.values())
        assert sum(shares.values()) >= 1.0 - 1e-9  # multi-tagging


class TestReorder:
    def test_identity_reorder_gets_decay_weights(self):
        role = reference_role()
        plan = single(redesign.reorder_plan_bulk, role, mock_manager())
        redesign.check_plan(plan)
        survivors = [t.task_number for t in role.tasks if not t.high]
        expected = decay_weights(len(survivors), role.delta)
        assert [plan.post_weights[n] for n in survivors] == pytest.approx(list(expected))

    def test_reversed_order_weights(self):
        role = build_role([0.9, 0.4, 0.3, 0.5, 0.2])
        survivors = [(t.task_number, t.task_details) for t in role.tasks if not t.high]
        request = task_rewrite_request("x", role.title, survivors, role.job_context)
        reversed_payload = {
            "tasks": [
                {"task_number": n, "label": "No change", "new_task_details": d}
                for n, d in reversed(survivors)
            ]
        }
        fixtures = {request.fingerprint(): reversed_payload}
        plan = single(redesign.reorder_plan_bulk, role, mock_manager(fixtures))
        assert plan.post_weights[5] == pytest.approx(0.3657, abs=5e-5)
        assert plan.post_weights[4] == pytest.approx(0.2743, abs=5e-5)
        assert plan.post_weights[3] == pytest.approx(0.2057, abs=5e-5)
        assert plan.post_weights[2] == pytest.approx(0.1543, abs=5e-5)

    def test_omitted_task_rejected(self):
        role = reference_role()
        survivors = [(t.task_number, t.task_details) for t in role.tasks if not t.high]
        request = task_rewrite_request("x", role.title, survivors, role.job_context)
        bad = {
            "tasks": [
                {"task_number": n, "label": "No change", "new_task_details": d}
                for n, d in survivors[:-1]
            ]
        }
        fixtures = {request.fingerprint(): bad}
        results, failures = redesign.reorder_plan_bulk([role], mock_manager(fixtures, strict=True))
        assert results == {}
        assert failures[role.vacancy_id] in ("SchemaInvalid", "ProviderError")

    def test_augmented_details_recorded(self):
        role = build_role([0.9, 0.4, 0.3])
        survivors = [(t.task_number, t.task_details) for t in role.tasks if not t.high]
        request = task_rewrite_request("x", role.title, survivors, role.job_context)
        payload = {
            "tasks": [
                {"task_number": 2, "label": "Augmented", "new_task_details": "duty with copilot"},
                {"task_number": 3, "label": "No change", "new_task_details": survivors[1][1]},
            ]
        }
        manager = mock_manager({request.fingerprint(): payload})
        plan = single(redesign.reorder_plan_bulk, role, manager)
        assert plan.new_details == {2: "duty with copilot"}


class TestNewTasks:
    def fixture_for(self, role, payload):
        automated = [(t.task_number, t.task_details) for t in role.tasks if t.high]
        survivors = [(t.task_number, t.task_details) for t in role.tasks if not t.high]
        request = task_mix_request(
            "x", role.title, role.department, role.job_context, automated, survivors
        )
        return {request.fingerprint(): payload}

    def test_excess_new_tasks_rejected(self):
        role = reference_role()  # 2 automated
        survivors = [(t.task_number, t.task_details) for t in role.tasks if not t.high]
        tasks = [
            {"task_number": -k, "task_details": f"new duty {k}", "task_category": "risk_management"}
            for k in (1, 2, 3)
        ] + [
            {"task_number": n, "task_details": d, "task_category": "service_delivery"}
            for n, d in survivors
        ]
        fixtures = self.fixture_for(role, {"tasks": tasks})
        results, failures = redesign.new_tasks_plan_bulk([role], mock_manager(fixtures, strict=True))
        assert results == {}
        assert failures[role.vacancy_id] in ("SchemaInvalid", "ProviderError")

    def test_zero_new_tasks_accepted(self):
        role = reference_role()
        # the synthesizer proposes no new tasks
        plan = single(redesign.new_tasks_plan_bulk, role, mock_manager())
        redesign.check_plan(plan)
        assert plan.new_tasks == ()
        assert set(plan.post_weights) == {3, 4, 5, 6}

    def test_new_task_ranked_first_takes_lead_weight(self):
        role = reference_role()
        survivors = [(t.task_number, t.task_details) for t in role.tasks if not t.high]
        tasks = [
            {"task_number": -1, "task_details": "oversee model risk", "task_category": "risk_management"}
        ] + [
            {"task_number": n, "task_details": d, "task_category": "service_delivery"}
            for n, d in survivors
        ]
        manager = mock_manager(self.fixture_for(role, {"tasks": tasks}))
        plan = single(redesign.new_tasks_plan_bulk, role, manager)
        expected = decay_weights(5, role.delta)
        assert plan.post_weights[-1] == pytest.approx(expected[0])
        assert plan.new_tasks[0].task_category == "risk_management"
        redesign.check_plan(plan)

    def test_new_task_numbers_kept_within_64_bits(self, tmp_path):
        role = reference_role()
        survivors = [(t.task_number, t.task_details) for t in role.tasks if not t.high]

        def answer(number):
            return {
                "tasks": [
                    {"task_number": number, "task_details": "audit models", "task_category": "risk_management"}
                ]
                + [
                    {"task_number": n, "task_details": d, "task_category": "service_delivery"}
                    for n, d in survivors
                ]
            }

        too_low = mock_manager(self.fixture_for(role, answer(-(2**63) - 1)), strict=True)
        results, failures = redesign.new_tasks_plan_bulk([role], too_low)
        assert results == {} and role.vacancy_id in failures
        lowest = mock_manager(self.fixture_for(role, answer(-(2**63))), strict=True)
        plan = single(redesign.new_tasks_plan_bulk, role, lowest)
        # plans.jsonl comes back with the same integer, not a float
        write_jsonl(tmp_path / "plans.jsonl", [plan.to_record()])
        (record,) = read_jsonl(tmp_path / "plans.jsonl")
        number = redesign.RedesignPlan.from_record(record).new_tasks[0].task_number
        assert type(number) is int and number == -(2**63)

    def test_missing_survivor_rejected(self):
        role = reference_role()
        survivors = [(t.task_number, t.task_details) for t in role.tasks if not t.high]
        tasks = [
            {"task_number": n, "task_details": d, "task_category": "service_delivery"}
            for n, d in survivors[1:]
        ]
        fixtures = self.fixture_for(role, {"tasks": tasks})
        results, failures = redesign.new_tasks_plan_bulk([role], mock_manager(fixtures, strict=True))
        assert results == {}


class TestStratifiedSample:
    def test_stratum_of_ten_yields_one(self):
        roles = [build_role([0.9, 0.3], vacancy_id=f"V{i}") for i in range(10)]
        assert len(redesign.stratified_sample(roles, 0.10, seed=1)) == 1

    def test_stratum_of_four_yields_minimum_one(self):
        roles = [build_role([0.9, 0.3], vacancy_id=f"V{i}") for i in range(4)]
        assert len(redesign.stratified_sample(roles, 0.10, seed=1)) == 1

    def test_full_fraction_returns_all(self):
        roles = [build_role([0.9, 0.3], vacancy_id=f"V{i}") for i in range(7)]
        assert len(redesign.stratified_sample(roles, 1.0, seed=1)) == 7

    def test_deterministic_under_seed(self):
        roles = [build_role([0.9, 0.3], vacancy_id=f"V{i}") for i in range(30)]
        first = [p.vacancy_id for p in redesign.stratified_sample(roles, 0.2, seed=9)]
        second = [p.vacancy_id for p in redesign.stratified_sample(roles, 0.2, seed=9)]
        assert first == second

    def test_invalid_fraction(self):
        with pytest.raises(UsageError):
            redesign.stratified_sample([], 0.0, seed=1)

    def test_rounding_rule(self):
        # 26 roles at 10% -> round(2.6) = 3
        roles = [build_role([0.9, 0.3], vacancy_id=f"V{i:02d}") for i in range(26)]
        assert len(redesign.stratified_sample(roles, 0.10, seed=2)) == 3


class TestSalaryDeciles:
    def test_weighted_quantiles_unit_weights(self):
        values = list(range(1, 11))
        cutpoints = redesign.weighted_quantiles(values, [1.0] * 10, [0.5])
        assert cutpoints == [5]

    def test_weighted_quantiles_respects_mass(self):
        # one heavy value dominates the lower half; mass hits 0.9 exactly at 20
        cutpoints = redesign.weighted_quantiles([10.0, 20.0, 30.0], [8.0, 1.0, 1.0], [0.5, 0.9])
        assert cutpoints == [10.0, 20.0]
        assert redesign.weighted_quantiles([10.0, 20.0, 30.0], [8.0, 1.0, 1.0], [0.95]) == [30.0]

    def test_decile_of_boundaries(self):
        cutpoints = list(range(1, 10))  # 1..9
        assert redesign.decile_of(0.5, cutpoints) == 1
        assert redesign.decile_of(1.0, cutpoints) == 1
        assert redesign.decile_of(9.5, cutpoints) == 10
        assert redesign.decile_of(100.0, cutpoints) == 10

    def test_salary_deciles_assigns_extremes(self):
        salaries = {f"r{i}": 20000.0 + 1000.0 * i for i in range(10)}
        weights = {key: 1.0 for key in salaries}
        deciles = redesign.salary_deciles(salaries, weights)
        assert deciles["r0"] == 1
        assert deciles["r9"] == 10

    def test_invalid_inputs(self):
        with pytest.raises(UsageError):
            redesign.weighted_quantiles([], [], [0.5])
        with pytest.raises(UsageError):
            redesign.weighted_quantiles([1.0], [-1.0], [0.5])
        with pytest.raises(UsageError):
            redesign.weighted_quantiles([1.0], [1.0], [1.5])


class TestTimeShiftReport:
    def test_single_role_focus_arithmetic(self):
        role = reference_role()
        plan = redesign.RedesignPlan(
            role_key=role.vacancy_id,
            variant=redesign.FOCUS,
            automated=(1, 2),
            freed_share=0.53,
            post_weights={3: 0.70, 4: 0.13, 5: 0.10, 6: 0.07},
            focus_task=3,
        )
        category_of = {
            (role.vacancy_id, 1): "records_management",
            (role.vacancy_id, 2): "records_management",
            (role.vacancy_id, 3): "service_delivery",
            (role.vacancy_id, 4): "service_delivery",
            (role.vacancy_id, 5): "policy_development",
            (role.vacancy_id, 6): "team_leadership",
        }
        rows = redesign.time_shift_report(
            [role], {redesign.FOCUS: {role.vacancy_id: plan}}, category_of
        )
        by_category = {row["category"]: row for row in rows}
        # pre: records .53, service .30, policy .10, team .07 / focus: 0, .83, .10, .07
        assert by_category["records_management"]["pre_automation"] == pytest.approx(0.53)
        assert by_category["records_management"][redesign.FOCUS] == pytest.approx(0.0)
        assert by_category["service_delivery"][redesign.FOCUS] == pytest.approx(0.83)
        minutes = by_category["records_management"][f"{redesign.FOCUS}_minutes_delta"]
        assert minutes == pytest.approx(-0.53 * 37 * 60, abs=1e-6)

    def test_columns_each_sum_to_one(self, fixture_profiles):
        manager = mock_manager()
        eligible = redesign.eligible_roles(fixture_profiles, 0.8)
        plans, failures = redesign.reorder_plan_bulk(eligible, manager)
        assert not failures
        category_of = {
            (p.vacancy_id, t.task_number): f"cat{t.task_number % 3}"
            for p in eligible
            for t in p.tasks
        }
        rows = redesign.time_shift_report(eligible, {redesign.AUGMENT_REORDER: plans}, category_of)
        for column in ("pre_automation", "post_automation", redesign.AUGMENT_REORDER):
            total = sum(row.get(column, 0.0) for row in rows)
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_empty_report(self):
        assert redesign.time_shift_report([], {}, {}) == []

    def test_uncategorized_bucket(self):
        role = build_role([0.9, 0.4])
        rows = redesign.time_shift_report([role], {}, {})
        assert {row["category"] for row in rows} == {"uncategorized"}
