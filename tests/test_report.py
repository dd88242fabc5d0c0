"""Each report table from hand-built inputs, with no file read or written.

Four roles at δ = 1, so every task of a role has an equal share, and
θ = 0.8:
- V1, scores 0.9 and 0.2: high share 0.5, eligible;
- V2, scores 0.904 and 0.8: high share 1.0, cost reduction;
- V3, scores 0.1, 0.5 and 0.6: no high-exposure time;
- V4, scores 0.7, 0.3, 0.3 and 0.3: high share 0.25, eligible.
"""

import pytest

from taskshift import report
from taskshift.errors import DataError
from taskshift.exposure import build_profile
from taskshift.redesign import FOCUS, NEW_TASKS, NewTask, RedesignPlan

from conftest import make_tasks

SCORES = {
    "V1": [0.9, 0.2],
    "V2": [0.904, 0.8],
    "V3": [0.1, 0.5, 0.6],
    "V4": [0.7, 0.3, 0.3, 0.3],
}
SALARIES = {"V1": 20000.0, "V2": 30000.0, "V3": None, "V4": 50000.0}
CLUSTERS = {"V1": "Adaptation", "V2": "Automation", "V3": "Low", "V4": "Adaptation"}
TAXONOMY = [
    ("V1", 1, "records", "filing"),
    ("V1", 2, "meetings", "scheduling"),
    ("V2", 1, "records", "filing"),
    ("V4", 1, "records", "archiving"),
    ("V4", 2, "meetings", "scheduling"),
    ("V4", 3, "meetings", "scheduling"),
    ("V4", 4, "analysis", "modelling"),
]
PLANS = [
    RedesignPlan("V1", FOCUS, (1,), 0.5, {2: 1.0}, focus_task=2, themes=("upskilling",)),
    RedesignPlan(
        "V4", FOCUS, (1,), 0.25, {2: 0.25, 3: 0.25, 4: 0.5}, focus_task=4,
        themes=("quality", "upskilling"),
    ),
    RedesignPlan(
        "V1", NEW_TASKS, (1,), 0.5, {-1: 0.5, 2: 0.5},
        new_tasks=(NewTask(-1, "draft briefs", "writing"),),
    ),
]
SWEEP = [
    {
        "theta": 0.5, "cost_reduction": 1234.5, "productivity_gain": 99.49,
        "productivity_upper": 2.5, "ratio": 12.40804, "n_cost": 2, "n_productivity": 1,
        "n_no_impact": 1,
    },
    {
        "theta": 0.8, "cost_reduction": 0.0, "productivity_gain": 1235.5,
        "productivity_upper": 3000.0, "ratio": float("inf"), "n_cost": 1, "n_productivity": 2,
        "n_no_impact": 1,
    },
]
SENSITIVITY = [
    {"delta": 1.0, "theta": 0.8, "cost_reduction": 10.0, "productivity_gain": 20.5,
     "productivity_upper": 30.0},
    {"delta": 0.5, "theta": 0.8, "cost_reduction": 11.0, "productivity_gain": 21.5,
     "productivity_upper": 31.0},
    {"delta": 0.5, "theta": 0.5, "cost_reduction": 99.0, "productivity_gain": 99.0,
     "productivity_upper": 99.0},
]
# V1 holds nine tenths of the raked mass of the salaried eligible roles, so
# it is the bottom salary decile and V4 the top one
RAKED = {"V1": 9.0, "V2": 5.0, "V4": 1.0}


def profiles():
    for key, scores in SCORES.items():
        role = {
            "vacancy_id": key, "title": f"role {key}", "department": "D", "grade": "G",
            "profession": "P", "salary": SALARIES[key],
        }
        yield build_profile(role, make_tasks(scores), 1.0)


def gather(**overrides) -> report.Gathered:
    inputs = {
        "profiles": profiles(),
        "clusters": ({"vacancy_id": key, "cluster": name} for key, name in CLUSTERS.items()),
        "taxonomy": (
            {"vacancy_id": key, "task_number": n, "category_label": c, "subcategory_label": s}
            for key, n, c, s in TAXONOMY
        ),
        "sweep": iter(SWEEP),
        "sensitivity": iter(SENSITIVITY),
        "plans": (plan.to_record() for plan in PLANS),
        "redesign_summary": {"theme_shares": {"upskilling": 2 / 3, "quality": 1 / 3}},
        "raked": ({"role_key": key, "weight": weight} for key, weight in RAKED.items()),
        "theta": 0.8,
    }
    inputs.update(overrides)
    return report.Gathered(**inputs)


def table(name: str, gathered: report.Gathered | None = None) -> list[list]:
    header, rows = report.TABLES[f"report/{name}"](gathered or gather())
    return [header] + [[str(cell) for cell in row] for row in rows]


def test_formats():
    # whole pounds round half to even; percentages take two places
    assert [report.money(v) for v in (1234.5, 1235.5, -0.4, 99.49)] == ["1234", "1236", "0", "99"]
    assert report.percent(2, 11) == "18.18"
    assert report.percent(0.125) == "12.50"


def test_exposure_histogram():
    assert table("exposure_histogram.csv") == [
        ["score", "count"],
        ["0.10", "1"],
        ["0.20", "1"],
        ["0.30", "3"],
        ["0.50", "1"],
        ["0.60", "1"],
        ["0.70", "1"],
        ["0.80", "1"],
        ["0.90", "2"],
    ]


def test_band_shares():
    assert table("band_shares.csv") == [
        ["band", "count", "share_percent"],
        ["VeryLow", "2", "18.18"],
        ["Low", "3", "27.27"],
        ["Medium", "2", "18.18"],
        ["High", "4", "36.36"],
    ]


def test_tasks_per_role():
    assert table("tasks_per_role.csv") == [
        ["task_count", "n_roles"], ["2", "2"], ["3", "1"], ["4", "1"]
    ]


def test_cluster_summary():
    # V1: mean 0.55, std 0.35; V4: mean 0.4, std sqrt(0.03); V3: mean 0.4,
    # std sqrt(0.14 / 3); V2: mean 0.852, std 0.052
    assert table("cluster_summary.csv") == [
        ["cluster", "n_roles", "mean_exposure", "mean_std_exposure", "highest_exposure",
         "lowest_exposure"],
        ["Low", "1", "0.400", "0.216", "0.400", "0.400"],
        ["Augmentation", "0", "", "", "", ""],
        ["Adaptation", "2", "0.475", "0.262", "0.550", "0.400"],
        ["Automation", "1", "0.852", "0.052", "0.852", "0.852"],
    ]


def test_taxonomy_summary():
    assert table("taxonomy_summary.csv") == [
        ["category_label", "subcategory_label", "n_tasks"],
        ["analysis", "modelling", "1"],
        ["meetings", "scheduling", "3"],
        ["records", "archiving", "1"],
        ["records", "filing", "2"],
    ]


def test_sweep():
    assert table("sweep.csv") == [
        ["theta", "cost_reduction", "productivity_gain", "productivity_upper", "ratio", "n_cost",
         "n_productivity", "n_no_impact"],
        ["0.50", "1234", "99", "2", "12.4080", "2", "1", "1"],
        ["0.80", "0", "1236", "3000", "inf", "1", "2", "1"],
    ]


def test_decay_sensitivity_at_the_savings_grid_point():
    assert table("decay_sensitivity.csv") == [
        ["saving_type", "delta_0.5", "delta_1.0"],
        ["cost_reduction", "11", "10"],
        ["productivity_gain", "22", "20"],
        ["productivity_upper", "31", "30"],
    ]


def test_redesign_comparison():
    # each column averages the eligible roles' shares by category; V2's
    # labelled task is not eligible and adds nothing; with no augment plans,
    # that variant has no column
    assert table("redesign_comparison.csv") == [
        ["category", "pre_automation_percent", "post_automation_percent", "focus_percent",
         "new_tasks_percent"],
        ["analysis", "12.50", "16.67", "25.00", "0.00"],
        ["meetings", "50.00", "83.33", "75.00", "50.00"],
        ["records", "37.50", "0.00", "0.00", "0.00"],
        ["writing", "0.00", "0.00", "0.00", "50.00"],
    ]


def test_theme_shares():
    assert table("theme_shares.csv") == [
        ["theme", "share_percent"], ["quality", "33.33"], ["upskilling", "66.67"]
    ]


def test_focus_by_decile():
    assert table("focus_by_decile.csv") == [
        ["group", "kind", "label", "share_percent"],
        ["bottom", "category", "meetings", "100.00"],
        ["bottom", "theme", "upskilling", "100.00"],
        ["top", "category", "analysis", "100.00"],
        ["top", "theme", "quality", "100.00"],
        ["top", "theme", "upskilling", "100.00"],
    ]


def test_focus_by_decile_is_empty_without_salaried_focus_plans():
    gathered = gather(raked=iter([{"role_key": "V2", "weight": 1.0}]))
    assert table("focus_by_decile.csv", gathered) == [["group", "kind", "label", "share_percent"]]


@pytest.mark.parametrize(
    "clusters",
    [list(CLUSTERS.items())[:-1], list(CLUSTERS.items()) + [("V5", "Low")], [("V0", "Low")] * 4],
    ids=["missing", "extra", "other"],
)
def test_cluster_rows_must_list_the_profiles(clusters):
    rows = ({"vacancy_id": key, "cluster": name} for key, name in clusters)
    with pytest.raises(DataError, match="role_clusters.jsonl does not list the roles"):
        gather(clusters=rows)


def test_category_labels_are_kept_for_eligible_roles_only():
    gathered = gather()
    assert [profile.vacancy_id for profile in gathered.eligible] == ["V1", "V4"]
    assert sum(gathered.score_counts.values()) == 11
    assert set(gathered.category_of) == {key[:2] for key in TAXONOMY if key[0] in {"V1", "V4"}}
