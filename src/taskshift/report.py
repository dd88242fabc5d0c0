"""The report stage's ten CSV tables, each declared once in ``TABLES`` by its path under
the output directory and the function that gives its header and formatted rows from a
``Gathered``, one pass over the report's inputs. No file is read or written here: the
pipeline passes decoded rows in and writes the tables."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Callable, Iterable

from . import clustering, redesign
from .errors import DataError
from .exposure import Band, RoleProfile

# the savings figures of the sweep and sensitivity rows, in report order
SAVINGS = ("cost_reduction", "productivity_gain", "productivity_upper")


def money(value: float) -> str:
    return str(round(value))


def percent(part: float, whole: float = 1.0) -> str:
    return f"{100.0 * part / whole:.2f}"


class Gathered:
    """What the tables use, kept in one pass that iterates each input once and lists none.

    ``clusters`` holds one ``role_clusters.jsonl`` row per profile, in order; a missing,
    extra or other role is a ``DataError``. Category labels are kept only for the tasks
    of the roles eligible at ``theta``, the only roles with plans, and sensitivity rows
    only at ``theta``, which the savings stage adds to the grid it sweeps.
    """

    def __init__(
        self,
        *,
        profiles: Iterable[RoleProfile],
        clusters: Iterable[dict],
        taxonomy: Iterable[dict],
        sweep: Iterable[dict],
        sensitivity: Iterable[dict],
        plans: Iterable[dict],
        redesign_summary: dict,
        raked: Iterable[dict],
        theta: float,
    ):
        self.score_counts: Counter[float] = Counter()  # tasks by score to two places
        self.band_counts: Counter[Band] = Counter()
        self.roles_by_task_count: Counter[int] = Counter()
        self.stats_of: dict[str, list[tuple[float, float]]] = {}  # each role's (mean, std)
        self.eligible = redesign.eligible_roles(self._tallied(profiles, clusters), theta)
        eligible_ids = {profile.vacancy_id for profile in self.eligible}
        self.taxonomy_counts: Counter[tuple[str, str]] = Counter()
        self.category_of: dict[tuple[str, int], str] = {}
        for row in taxonomy:
            self.taxonomy_counts[(row["category_label"], row["subcategory_label"])] += 1
            if row["vacancy_id"] in eligible_ids:
                self.category_of[(row["vacancy_id"], row["task_number"])] = row["category_label"]
        self.sweep = list(sweep)
        self.sensitivity = {row["delta"]: row for row in sensitivity if row["theta"] == theta}
        self.plans_by_variant: dict[str, dict[str, redesign.RedesignPlan]] = {}
        for record in plans:
            plan = redesign.RedesignPlan.from_record(record)
            self.plans_by_variant.setdefault(plan.variant, {})[plan.role_key] = plan
        self.theme_shares: dict[str, float] = redesign_summary["theme_shares"]
        self.raked = {row["role_key"]: row["weight"] for row in raked}

    def _tallied(self, profiles: Iterable[RoleProfile], clusters: Iterable[dict]):
        for profile, row in itertools.zip_longest(profiles, clusters):
            if profile is None or row is None or row["vacancy_id"] != profile.vacancy_id:
                raise DataError("role_clusters.jsonl does not list the roles of roles.jsonl")
            for task in profile.tasks:
                self.score_counts[round(task.exposure, 2)] += 1
                self.band_counts[task.band] += 1
            self.roles_by_task_count[len(profile.tasks)] += 1
            aggregates = profile.aggregates
            self.stats_of.setdefault(row["cluster"], []).append((aggregates.mean, aggregates.std))
            yield profile


def _exposure_histogram(gathered: Gathered) -> tuple[list[str], list[list]]:
    counts = sorted(gathered.score_counts.items())
    return ["score", "count"], [[f"{score:.2f}", n] for score, n in counts]


def _band_shares(gathered: Gathered) -> tuple[list[str], list[list]]:
    counts, total = gathered.band_counts, sum(gathered.band_counts.values())
    rows = [[band.value, counts[band], percent(counts[band], total)] for band in Band]
    return ["band", "count", "share_percent"], rows


def _tasks_per_role(gathered: Gathered) -> tuple[list[str], list[list]]:
    counts = sorted(gathered.roles_by_task_count.items())
    return ["task_count", "n_roles"], [[count, n] for count, n in counts]


def _cluster_summary(gathered: Gathered) -> tuple[list[str], list[list]]:
    rows = []
    for name in (cluster.value for cluster in clustering.ExposureCluster):
        if name not in gathered.stats_of:
            rows.append([name, 0, "", "", "", ""])
            continue
        means, stds = zip(*gathered.stats_of[name])
        n = len(means)
        figures = (math.fsum(means) / n, math.fsum(stds) / n, max(means), min(means))
        rows.append([name, n, *(f"{figure:.3f}" for figure in figures)])
    exposures = ["mean_exposure", "mean_std_exposure", "highest_exposure", "lowest_exposure"]
    return ["cluster", "n_roles", *exposures], rows


def _taxonomy_summary(gathered: Gathered) -> tuple[list[str], list[list]]:
    counts = sorted(gathered.taxonomy_counts.items())
    return ["category_label", "subcategory_label", "n_tasks"], [[*pair, n] for pair, n in counts]


def _sweep(gathered: Gathered) -> tuple[list[str], list[list]]:
    counts = ["n_cost", "n_productivity", "n_no_impact"]
    rows = [
        [f"{row['theta']:.2f}", *(money(row[saving]) for saving in SAVINGS)]
        + ["inf" if math.isinf(row["ratio"]) else f"{row['ratio']:.4f}"]
        + [row[count] for count in counts]
        for row in gathered.sweep
    ]
    return ["theta", *SAVINGS, "ratio", *counts], rows


def _decay_sensitivity(gathered: Gathered) -> tuple[list[str], list[list]]:
    by_delta = gathered.sensitivity
    deltas = sorted(by_delta)
    rows = [[saving] + [money(by_delta[delta][saving]) for delta in deltas] for saving in SAVINGS]
    return ["saving_type"] + [f"delta_{delta}" for delta in deltas], rows


def _redesign_comparison(gathered: Gathered) -> tuple[list[str], list[list]]:
    plans = gathered.plans_by_variant
    shift = redesign.time_shift_report(gathered.eligible, plans, gathered.category_of)
    columns = ["pre_automation", "post_automation"]
    columns += [variant for variant in redesign.VARIANTS if variant in plans]
    rows = [[row["category"]] + [percent(row.get(c, 0.0)) for c in columns] for row in shift]
    return ["category"] + [f"{column}_percent" for column in columns], rows


def _theme_shares(gathered: Gathered) -> tuple[list[str], list[list]]:
    shares = sorted(gathered.theme_shares.items())
    return ["theme", "share_percent"], [[theme, percent(share)] for theme, share in shares]


def _focus_by_decile(gathered: Gathered) -> tuple[list[str], list[list]]:
    """The focus-task make-up of the bottom and top weighted salary deciles."""
    raked, focus_plans = gathered.raked, gathered.plans_by_variant.get(redesign.FOCUS, {})
    planned = focus_plans.keys() & raked.keys()
    salaried = {
        profile.vacancy_id: profile.salary
        for profile in gathered.eligible
        if profile.salary is not None and profile.vacancy_id in planned
    }
    deciles = redesign.salary_deciles(salaried, raked) if salaried else {}
    rows: list[list] = []
    for group, wanted in (("bottom", 1), ("top", 10)):
        members = sorted(key for key, decile in deciles.items() if decile == wanted)
        total = math.fsum(raked[key] for key in members)
        if total <= 0:
            continue
        mass: dict[tuple[str, str], float] = {}
        for key in members:
            plan = focus_plans[key]
            label = gathered.category_of.get((key, plan.focus_task), clustering.UNCATEGORIZED)
            for entry in [("category", label)] + [("theme", theme) for theme in plan.themes]:
                mass[entry] = mass.get(entry, 0.0) + raked[key]
        rows += [[group, *entry, percent(m, total)] for entry, m in sorted(mass.items())]
    return ["group", "kind", "label", "share_percent"], rows


# each report file, by its path under the output directory, and its header and rows
TABLES: dict[str, Callable[[Gathered], tuple[list[str], list[list]]]] = {
    "report/exposure_histogram.csv": _exposure_histogram,
    "report/band_shares.csv": _band_shares,
    "report/tasks_per_role.csv": _tasks_per_role,
    "report/cluster_summary.csv": _cluster_summary,
    "report/taxonomy_summary.csv": _taxonomy_summary,
    "report/sweep.csv": _sweep,
    "report/decay_sensitivity.csv": _decay_sensitivity,
    "report/redesign_comparison.csv": _redesign_comparison,
    "report/theme_shares.csv": _theme_shares,
    "report/focus_by_decile.csv": _focus_by_decile,
}
