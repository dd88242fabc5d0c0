"""Prompt templates and their output schemas.

Each builder returns a ready-to-submit :class:`StructuredRequest`. Task
lists are always rendered as ``<number>. <text>`` lines inside tag pairs,
which is also the canonical form the mock provider's synthesizer parses.
"""

from __future__ import annotations

from typing import Sequence

from .gateway.providers import StructuredRequest
from .gateway.schema import FieldSpec, Schema

TASK_CATEGORIES = (
    "policy_development",
    "records_management",
    "admin_support",
    "team_leadership",
    "performance_planning",
    "stakeholder_engagement",
    "risk_management",
    "data_analysis",
    "service_delivery",
    "prison_management",
)

THEME_NAMES = (
    "strategic_leadership_and_vision",
    "stakeholder_management_and_communication",
    "risk_and_quality_management",
    "innovation_and_process_excellence",
    "human_centric_leadership",
    "complex_problem_resolution",
)


def _task_list_schema(name: str, *task_fields: FieldSpec) -> Schema:
    """A payload of one ``tasks`` array whose items are ``task`` objects of ``task_fields``."""
    task = FieldSpec("task", "object", fields=(FieldSpec("task_number", "integer"), *task_fields))
    return Schema(name, (FieldSpec("tasks", "array", item=task),))


TASK_EXTRACTION_SCHEMA = _task_list_schema(
    "task_extraction",
    FieldSpec("task_details", "string"),
    FieldSpec("exposure_score", "number", minimum=0.0, maximum=1.0),
)

CLUSTER_LABEL_SCHEMA = Schema("cluster_label", (FieldSpec("label", "string"),))

FOCUS_CHOICE_SCHEMA = Schema(
    "focus_choice",
    (FieldSpec("task_number", "integer"), FieldSpec("reasoning", "string")),
)

THEME_FLAGS_SCHEMA = Schema(
    "theme_flags",
    tuple(FieldSpec(name, "integer", choices=(0, 1)) for name in THEME_NAMES),
)

TASK_REWRITE_SCHEMA = _task_list_schema(
    "task_rewrite",
    FieldSpec("label", "string", choices=("No change", "Augmented")),
    FieldSpec("new_task_details", "string"),
)

TASK_MIX_SCHEMA = _task_list_schema(
    "task_mix",
    FieldSpec("task_details", "string"),
    FieldSpec("task_category", "string", choices=TASK_CATEGORIES),
)


def format_task_lines(tasks: Sequence[tuple[int, str]]) -> str:
    return "\n".join(f"{number}. {text}" for number, text in tasks)


def task_extraction_request(request_id: str, job_text: str) -> StructuredRequest:
    return StructuredRequest(
        request_id=request_id,
        system_prompt=(
            "You are an expert in extracting skills from job descriptions and "
            "assessing their potential automation with GPT technology."
        ),
        user_prompt=(
            "Extract a list of tasks from the job advert in the provided format. "
            "Do not include tasks which concern the recruitment process, the "
            "onboarding process, working hours, or working conditions."
            f"<job_description>{job_text}</job_description>"
        ),
        output_schema=TASK_EXTRACTION_SCHEMA,
    )


def cluster_label_request(request_id: str, sampled_tasks: Sequence[str]) -> StructuredRequest:
    listing = format_task_lines(list(enumerate(sampled_tasks, start=1)))
    return StructuredRequest(
        request_id=request_id,
        system_prompt=(
            "You are an expert in giving human-interpretable labels to clusters "
            "of job tasks."
        ),
        user_prompt=(
            "Provide a short descriptive label for this cluster of tasks: "
            f"<tasks>\n{listing}\n</tasks>. Provide no other text."
        ),
        output_schema=CLUSTER_LABEL_SCHEMA,
    )


def focus_choice_request(
    request_id: str, job_title: str, remaining_tasks: Sequence[tuple[int, str]]
) -> StructuredRequest:
    return StructuredRequest(
        request_id=request_id,
        system_prompt="You are an expert in workforce productivity.",
        user_prompt=(
            f"A person working as a {job_title} has had parts of their role "
            "augmented by AI, freeing up time for other tasks. Given the "
            "remaining responsibilities:"
            f"<tasks>\n{format_task_lines(remaining_tasks)}\n</tasks> "
            "where should they focus their efforts to maximize productivity? "
            "Reply with the task number and your reasoning using the schema."
        ),
        output_schema=FOCUS_CHOICE_SCHEMA,
    )


def theme_flags_request(request_id: str, reasoning: str) -> StructuredRequest:
    codebook = "\n".join(f"- {name}" for name in THEME_NAMES)
    return StructuredRequest(
        request_id=request_id,
        system_prompt=(
            "You are an expert at classifying the reasoning behind the choice of "
            "tasks to focus on."
        ),
        user_prompt=(
            "AI has automated some tasks of a worker. From the worker's remaining "
            "tasks, they have picked the most important task to focus their freed "
            "up time on, with the reasoning below. Review the categories and "
            "indicate which are present with a 1, or not (a 0).\n"
            f"{codebook}\n"
            "Be selective and apply the most relevant categories: choose at least "
            "one category but no more than three.\n"
            f"Their reasoning is:\n<reasoning>{reasoning}</reasoning>\n"
            "Reply using only the provided tool."
        ),
        output_schema=THEME_FLAGS_SCHEMA,
    )


def task_rewrite_request(
    request_id: str,
    job_title: str,
    remaining_tasks: Sequence[tuple[int, str]],
    job_context: str,
) -> StructuredRequest:
    return StructuredRequest(
        request_id=request_id,
        system_prompt=(
            "You are an expert in understanding how workforce tasks might change "
            "following digital and AI transformation."
        ),
        user_prompt=(
            f"A person working as a {job_title} has had parts of their role "
            "augmented by AI. Consider how their remaining tasks might be "
            "augmented or remain unchanged following the use of generative AI "
            "tools. For each task, label it 'No change' (keeping its original "
            "details) or 'Augmented' (giving new task details). Then return all "
            "tasks in order of importance, the most important first."
            f"<tasks>\n{format_task_lines(remaining_tasks)}\n</tasks>\n"
            "Use the following context on the job role to consider how the tasks "
            f"should be ordered by importance: <job_context>{job_context}</job_context>. "
            "Reply with each task number, its label, and its new task details, in "
            "order of task importance, using the schema."
        ),
        output_schema=TASK_REWRITE_SCHEMA,
    )


def task_mix_request(
    request_id: str,
    job_title: str,
    department: str,
    job_context: str,
    automated_tasks: Sequence[tuple[int, str]],
    remaining_tasks: Sequence[tuple[int, str]],
) -> StructuredRequest:
    n_automated = len(automated_tasks)
    return StructuredRequest(
        request_id=request_id,
        system_prompt=(
            "You are an expert in helping UK civil servants manage the impacts of "
            "AI use in the workplace."
        ),
        user_prompt=(
            f"AI is transforming the role of {job_title} in the {department} "
            "department. Assess how the role's tasks could look after the "
            "transformation. Review the context of the role, note which tasks "
            "have been automated away (these will not be part of the final "
            "role), then create a single pool of the remaining tasks plus any "
            f"high-impact new tasks you identify (you may suggest up to "
            f"{n_automated} new tasks), and sort the pool strictly by strategic "
            "importance for the future role.\n"
            "RULES: each task must have a unique integer ID, description, and "
            "category. For new tasks you put forward, you must assign a negative "
            "task number. Give no new tasks if none are forthcoming. Categories "
            "assigned to tasks MUST follow the task categories set out in the "
            "schema. No other values are acceptable.\n"
            f"<role_context>{job_context}</role_context>\n"
            f"<automated_tasks>\n{format_task_lines(automated_tasks)}\n</automated_tasks>\n"
            f"<remaining_tasks>\n{format_task_lines(remaining_tasks)}\n</remaining_tasks>"
        ),
        output_schema=TASK_MIX_SCHEMA,
    )
