"""Role redesign for partially automatable roles.

Roles with at least one high-exposure task but below the automation
threshold get a plan: either all freed time flows to one surviving
"focus" task, or surviving tasks are augmented and reordered (weights
recomputed over the new order), or new tasks are allowed in, capped at
the number automated away. Provider replies are structurally validated
(referential integrity, permutations, caps); the batch manager retries a
rejected reply with a nudge, up to ``max_attempts`` attempts in all,
before a role is flagged.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .clustering import UNCATEGORIZED
from .errors import DataError, SchemaInvalid, UsageError
from .exposure import HOURS_PER_WEEK, RoleProfile, decay_weights
from .gateway import BatchManager, StructuredRequest, subseed
from .prompts import (
    THEME_NAMES,
    focus_choice_request,
    task_mix_request,
    task_rewrite_request,
    theme_flags_request,
)
from .savings import RoleClass, classify_role

log = logging.getLogger(__name__)

FOCUS = "focus"
AUGMENT_REORDER = "augment_reorder"
NEW_TASKS = "new_tasks"
# plan variants in the order the reports list them
VARIANTS = (FOCUS, AUGMENT_REORDER, NEW_TASKS)


class NewTask(NamedTuple):
    task_number: int
    task_details: str
    task_category: str


@dataclass
class RedesignPlan:
    role_key: str
    variant: str
    automated: tuple[int, ...]
    freed_share: float
    post_weights: dict[int, float]
    focus_task: int | None = None
    reasoning: str = ""
    themes: tuple[str, ...] = ()
    new_tasks: tuple[NewTask, ...] = ()
    new_details: dict[int, str] = field(default_factory=dict)

    def to_record(self) -> dict:
        """The ``plans.jsonl`` row; inverse of :meth:`from_record`."""
        # task-number keys are written as strings, so a dump with sort_keys
        # orders them as text ("10" < "2"), not as numbers
        return {
            "role_key": self.role_key,
            "variant": self.variant,
            "automated": list(self.automated),
            "freed_share": self.freed_share,
            "post_weights": {str(n): w for n, w in self.post_weights.items()},
            "focus_task": self.focus_task,
            "reasoning": self.reasoning,
            "themes": list(self.themes),
            "new_tasks": [
                {
                    "task_number": new.task_number,
                    "task_details": new.task_details,
                    "task_category": new.task_category,
                }
                for new in self.new_tasks
            ],
            "new_details": {str(n): d for n, d in self.new_details.items()},
        }

    @classmethod
    def from_record(cls, record: dict) -> "RedesignPlan":
        return cls(
            role_key=record["role_key"],
            variant=record["variant"],
            automated=tuple(record["automated"]),
            freed_share=record["freed_share"],
            post_weights={int(k): v for k, v in record["post_weights"].items()},
            focus_task=record["focus_task"],
            reasoning=record["reasoning"],
            themes=tuple(record["themes"]),
            new_tasks=tuple(NewTask(**new) for new in record["new_tasks"]),
            new_details={int(k): v for k, v in record["new_details"].items()},
        )


def automated_numbers(profile: RoleProfile) -> tuple[int, ...]:
    return tuple(task.task_number for task in profile.tasks if task.high)


def surviving_numbers(profile: RoleProfile) -> tuple[int, ...]:
    return tuple(task.task_number for task in profile.tasks if not task.high)


def eligible_roles(profiles: Iterable[RoleProfile], theta: float) -> list[RoleProfile]:
    """Roles that savings classes as productivity gains at theta."""
    return [
        profile
        for profile in profiles
        if classify_role(profile.aggregates.high_share, theta) is RoleClass.PRODUCTIVITY_GAIN
    ]


def proportional_weights(profile: RoleProfile) -> dict[int, float]:
    """Post-automation baseline: survivors renormalized proportionally."""
    surviving = [
        (task.task_number, share)
        for task, share in zip(profile.tasks, profile.weights)
        if not task.high
    ]
    total = math.fsum(share for _, share in surviving)
    if total == 0.0:
        raise DataError(f"role {profile.vacancy_id} has no surviving tasks")
    return {number: share / total for number, share in surviving}


def apply_focus(profile: RoleProfile, focus_task: int) -> dict[int, float]:
    """Move every automated share onto the focus task; others unchanged."""
    surviving = set(surviving_numbers(profile))
    if focus_task not in surviving:
        raise UsageError(f"focus task {focus_task} is not a surviving task")
    shares = dict(zip((t.task_number for t in profile.tasks), profile.weights))
    post = {number: shares[number] for number in sorted(surviving)}
    post[focus_task] += profile.aggregates.high_share
    return post


def _survivor_pairs(profile: RoleProfile) -> list[tuple[int, str]]:
    return [(t.task_number, t.task_details) for t in profile.tasks if not t.high]


def _automated_pairs(profile: RoleProfile) -> list[tuple[int, str]]:
    return [(t.task_number, t.task_details) for t in profile.tasks if t.high]


def _run_waves(
    manager: BatchManager,
    kind: str,
    contexts: dict,
    build: Callable[[str, object], StructuredRequest],
    check: Callable[[object, dict], object],
    nudge: str,
) -> tuple[dict, dict]:
    """Submit one request per context as one batch; the batch manager retries.

    ``build(request_id, context)`` gives the request. A reply that
    ``check(context, payload)`` rejects is sent again with ``nudge``
    appended to its user prompt; what ``check`` returns is the result.
    """
    if not contexts:
        return {}, {}
    keys = list(contexts)
    results: dict = {}

    def checked(index: int, payload: dict) -> None:
        results[keys[index]] = check(contexts[keys[index]], payload)

    requests = [build(f"{kind}:{key}", contexts[key]) for key in keys]
    key_of = {request.request_id: key for request, key in zip(requests, keys)}
    _, report = manager.submit_batch(requests, check=checked, nudge=nudge)
    failures = {key_of[request_id]: error for request_id, error in report.failed}
    for key, error in failures.items():
        log.warning("redesign request for %s flagged after retries: %s", key, error)
    return results, failures


def select_focus_bulk(
    profiles: Sequence[RoleProfile], manager: BatchManager
) -> tuple[dict[str, RedesignPlan], dict[str, str]]:
    """Plan, per role, the surviving task that absorbs the freed time.

    A role with one surviving task gets it without a request.
    """

    def plan(profile: RoleProfile, number: int, reasoning: str) -> RedesignPlan:
        return RedesignPlan(
            role_key=profile.vacancy_id,
            variant=FOCUS,
            automated=automated_numbers(profile),
            freed_share=profile.aggregates.high_share,
            post_weights=apply_focus(profile, number),
            focus_task=number,
            reasoning=reasoning,
        )

    forced: dict[str, RedesignPlan] = {}
    ask: dict[str, RoleProfile] = {}
    for profile in profiles:
        survivors = surviving_numbers(profile)
        if not survivors:
            raise UsageError(f"role {profile.vacancy_id} has no surviving tasks")
        if len(survivors) == 1:
            forced[profile.vacancy_id] = plan(
                profile, survivors[0], "Only one task remains after automation."
            )
        else:
            ask[profile.vacancy_id] = profile

    def build(request_id: str, profile: RoleProfile) -> StructuredRequest:
        return focus_choice_request(request_id, profile.title, _survivor_pairs(profile))

    def check(profile: RoleProfile, payload: dict) -> RedesignPlan:
        number = payload["task_number"]
        if number not in set(surviving_numbers(profile)):
            raise SchemaInvalid(
                "$.task_number", f"{number} does not reference a surviving task"
            )
        return plan(profile, number, payload["reasoning"])

    results, failures = _run_waves(
        manager, "focus", ask, build, check, "answer with one of the listed task numbers"
    )
    results.update(forced)
    return results, failures


def tag_themes(
    reasonings: Sequence[str], manager: BatchManager
) -> tuple[list[tuple[str, ...]], dict[int, str]]:
    """Map each reasoning text to 1..3 of the six fixed theme flags.

    Returns per-reasoning theme tuples plus failures by input index.
    """

    def check(reasoning: str, payload: dict) -> tuple[str, ...]:
        flags = tuple(name for name in THEME_NAMES if payload[name] == 1)
        if not 1 <= len(flags) <= 3:
            raise SchemaInvalid("$", f"{len(flags)} theme flags set; need 1..3")
        return flags

    results, failures = _run_waves(
        manager,
        "themes",
        dict(enumerate(reasonings)),
        theme_flags_request,
        check,
        "set between one and three flags",
    )
    return [results.get(index, ()) for index in range(len(reasonings))], failures


def theme_shares(theme_sets: Sequence[tuple[str, ...]]) -> dict[str, float]:
    """Share of focus tasks tagged with each theme; can exceed 1 in total."""
    tagged = [themes for themes in theme_sets if themes]
    if not tagged:
        return {name: 0.0 for name in THEME_NAMES}
    return {
        name: sum(1 for themes in tagged if name in themes) / len(tagged)
        for name in THEME_NAMES
    }


def _order_weights(profile: RoleProfile, ordered_numbers: Sequence[int]) -> dict[int, float]:
    weights = decay_weights(len(ordered_numbers), profile.delta)
    return {number: weight for number, weight in zip(ordered_numbers, weights)}


def reorder_plan_bulk(
    profiles: Sequence[RoleProfile], manager: BatchManager
) -> tuple[dict[str, RedesignPlan], dict[str, str]]:
    contexts = {profile.vacancy_id: profile for profile in profiles}

    def build(request_id: str, profile: RoleProfile) -> StructuredRequest:
        return task_rewrite_request(
            request_id, profile.title, _survivor_pairs(profile), profile.job_context
        )

    def check(profile: RoleProfile, payload: dict) -> RedesignPlan:
        survivors = surviving_numbers(profile)
        returned = [entry["task_number"] for entry in payload["tasks"]]
        if sorted(returned) != sorted(survivors):
            raise SchemaInvalid(
                "$.tasks", f"returned numbers {returned} are not a permutation of {list(survivors)}"
            )
        new_details = {
            entry["task_number"]: entry["new_task_details"]
            for entry in payload["tasks"]
            if entry["label"] == "Augmented"
        }
        return RedesignPlan(
            role_key=profile.vacancy_id,
            variant=AUGMENT_REORDER,
            automated=automated_numbers(profile),
            freed_share=profile.aggregates.high_share,
            post_weights=_order_weights(profile, returned),
            new_details=new_details,
        )

    return _run_waves(
        manager, "reorder", contexts, build, check, "return every listed task exactly once"
    )


def new_tasks_plan_bulk(
    profiles: Sequence[RoleProfile], manager: BatchManager
) -> tuple[dict[str, RedesignPlan], dict[str, str]]:
    contexts = {profile.vacancy_id: profile for profile in profiles}
    for profile in profiles:
        if not automated_numbers(profile):
            raise UsageError(f"role {profile.vacancy_id} has no automated tasks")

    def build(request_id: str, profile: RoleProfile) -> StructuredRequest:
        return task_mix_request(
            request_id,
            profile.title,
            profile.department,
            profile.job_context,
            _automated_pairs(profile),
            _survivor_pairs(profile),
        )

    def check(profile: RoleProfile, payload: dict) -> RedesignPlan:
        survivors = surviving_numbers(profile)
        cap = len(automated_numbers(profile))
        old = [e["task_number"] for e in payload["tasks"] if e["task_number"] > 0]
        new = [e for e in payload["tasks"] if e["task_number"] < 0]
        if any(e["task_number"] == 0 for e in payload["tasks"]):
            raise SchemaInvalid("$.tasks", "task number 0 is not allowed")
        # plans.jsonl is read back with orjson, exact for 64-bit integers only
        if any(e["task_number"] < -(2**63) for e in new):
            raise SchemaInvalid("$.tasks", "new task numbers must not be below -2**63")
        if sorted(old) != sorted(survivors):
            raise SchemaInvalid(
                "$.tasks", f"existing numbers {old} are not a permutation of {list(survivors)}"
            )
        if len(new) > cap:
            raise SchemaInvalid(
                "$.tasks", f"{len(new)} new tasks exceed the cap of {cap} automated tasks"
            )
        numbers = [e["task_number"] for e in payload["tasks"]]
        if len(set(numbers)) != len(numbers):
            raise SchemaInvalid("$.tasks", "duplicate task numbers")
        return RedesignPlan(
            role_key=profile.vacancy_id,
            variant=NEW_TASKS,
            automated=automated_numbers(profile),
            freed_share=profile.aggregates.high_share,
            post_weights=_order_weights(profile, numbers),
            new_tasks=tuple(
                NewTask(e["task_number"], e["task_details"], e["task_category"]) for e in new
            ),
        )

    nudge = (
        "keep every remaining task, give new tasks unique negative "
        "numbers, and do not exceed the new-task cap"
    )
    return _run_waves(manager, "newtasks", contexts, build, check, nudge)


def stratified_sample(
    profiles: Sequence[RoleProfile],
    fraction: float = 0.10,
    seed: int = 0,
) -> list[RoleProfile]:
    """Per-(department, grade) sample of round(fraction*n), at least 1, no replacement."""
    if not 0.0 < fraction <= 1.0:
        raise UsageError(f"fraction {fraction} outside (0, 1]")
    groups: dict[tuple, list[RoleProfile]] = {}
    for profile in profiles:
        groups.setdefault((profile.department, profile.grade), []).append(profile)
    chosen: list[RoleProfile] = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda p: p.vacancy_id)
        take = max(1, int(math.floor(fraction * len(members) + 0.5)))
        take = min(take, len(members))
        rng = np.random.default_rng(subseed(seed, "stratum:" + repr(key)))
        picks = rng.choice(len(members), size=take, replace=False)
        chosen.extend(members[int(index)] for index in sorted(picks))
    return sorted(chosen, key=lambda p: p.vacancy_id)


def weighted_quantiles(
    values: Sequence[float],
    weights: Sequence[float],
    probabilities: Sequence[float],
) -> list[float]:
    """Inverse-CDF quantiles of ``values`` under ``weights``."""
    if len(values) != len(weights) or not values:
        raise UsageError("values and weights must be equal-length and non-empty")
    if any(w < 0 for w in weights):
        raise UsageError("weights must be non-negative")
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    total = math.fsum(weights)
    if total <= 0:
        raise UsageError("total weight must be positive")
    cutpoints = []
    for probability in probabilities:
        if not 0.0 <= probability <= 1.0:
            raise UsageError(f"probability {probability} outside [0, 1]")
        threshold = probability * total
        cumulative = 0.0
        cutpoint = values[order[-1]]
        for index in order:
            cumulative += weights[index]
            if cumulative >= threshold - 1e-12:
                cutpoint = values[index]
                break
        cutpoints.append(cutpoint)
    return cutpoints


def decile_of(value: float, cutpoints: Sequence[float]) -> int:
    """1-based decile given the nine interior cutpoints; ties go low."""
    return bisect.bisect_left(list(cutpoints), value) + 1


def salary_deciles(
    salaries: dict[str, float], weights: dict[str, float]
) -> dict[str, int]:
    """Weighted salary decile (1 = lowest paid) per role key."""
    keys = sorted(salaries)
    values = [salaries[key] for key in keys]
    mass = [weights.get(key, 0.0) for key in keys]
    cutpoints = weighted_quantiles(values, mass, [p / 10 for p in range(1, 10)])
    return {key: decile_of(salaries[key], cutpoints) for key in keys}


def check_plan(plan: RedesignPlan) -> None:
    """Assert the structural invariants every plan must satisfy."""
    total = math.fsum(plan.post_weights.values())
    if abs(total - 1.0) > 1e-9:
        raise DataError(f"plan {plan.role_key}: post weights sum to {total}")
    if any(number in plan.post_weights for number in plan.automated):
        raise DataError(f"plan {plan.role_key}: automated task kept a weight")
    if plan.focus_task is not None and plan.focus_task in plan.automated:
        raise DataError(f"plan {plan.role_key}: focus task was automated")
    if len(plan.new_tasks) > len(plan.automated):
        raise DataError(f"plan {plan.role_key}: new tasks exceed automated count")
    if plan.themes and not 1 <= len(plan.themes) <= 3:
        raise DataError(f"plan {plan.role_key}: {len(plan.themes)} themes")


def time_shift_report(
    profiles: Sequence[RoleProfile],
    plans_by_variant: dict[str, dict[str, RedesignPlan]],
    category_of: dict[tuple[str, int], str],
) -> list[dict]:
    """Per-category time shares for the five-column comparison.

    Columns: pre-automation, post-automation proportional, then one per
    plan variant that was run. Shares are fractions of the week (each
    column sums to 1 over categories); minutes columns are share deltas
    against pre-automation, in minutes per week.
    """
    keyed = {profile.vacancy_id: profile for profile in profiles}

    def category(role_key: str, task_number: int, plan: RedesignPlan | None = None) -> str:
        if plan is not None and task_number < 0:
            for new in plan.new_tasks:
                if new.task_number == task_number:
                    return new.task_category
        return category_of.get((role_key, task_number), UNCATEGORIZED)

    def accumulate(shares_by_role: dict[str, dict[int, float]], plans=None):
        totals: dict[str, float] = {}
        count = len(shares_by_role)
        for role_key, weights in shares_by_role.items():
            plan = plans.get(role_key) if plans else None
            for task_number, share in weights.items():
                name = category(role_key, task_number, plan)
                totals[name] = totals.get(name, 0.0) + share / count
        return totals

    columns: dict[str, dict[str, float]] = {}
    pre = {
        key: dict(zip((t.task_number for t in profile.tasks), profile.weights))
        for key, profile in keyed.items()
    }
    if pre:
        columns["pre_automation"] = accumulate(pre)
        columns["post_automation"] = accumulate(
            {key: proportional_weights(keyed[key]) for key in keyed}
        )
    for variant in VARIANTS:
        plans = plans_by_variant.get(variant, {})
        plans = {key: plan for key, plan in plans.items() if key in keyed}
        if not plans:
            continue
        post = {key: plan.post_weights for key, plan in plans.items()}
        columns[variant] = accumulate(post, plans)

    categories = sorted({name for totals in columns.values() for name in totals})
    rows = []
    for name in categories:
        row: dict[str, object] = {"category": name}
        for column, totals in columns.items():
            share = totals.get(name, 0.0)
            row[column] = share
            if column != "pre_automation":
                baseline = columns["pre_automation"].get(name, 0.0)
                row[f"{column}_minutes_delta"] = (share - baseline) * HOURS_PER_WEEK * 60.0
        rows.append(row)
    return rows
