"""Seeded synthetic vacancy corpus for the pipeline benchmark.

``write_inputs(directory, roles, shape, seed)`` writes a corpus plus the
benchmark's own reference tables, and nothing else: the pipeline sees
only these files. The same (roles, shape, seed) always gives the same
bytes.

Each role lists 3-9 bulleted duties built from a phrase grammar. Two
shapes control how much work roles share:

- ``template``: duties are drawn from a pool of 1.25 texts per role
  (2,500 for 2,000 roles), as in reposted template adverts, so roles
  share task wording and the taxonomy sees few distinct texts;
- ``diverse``: every duty is drawn fresh from the grammar, so nearly all
  of them are distinct and the taxonomy layer embeds and clusters about
  six texts per role.

Both shapes reach the same input paths as the fixture corpus: emails and
phone numbers to scrub, descriptions with under two duties (summary
fallback), unmapped grades, professions outside the reference tables
(folded into ``Other`` when raking) and the suppressed ``c`` salary cell
(CO/SCS).
"""

from __future__ import annotations

import json
import random
import shutil
from datetime import date, timedelta
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
REFERENCE_TABLES = ("fte.csv", "salary.csv", "grade_totals.csv", "profession_totals.csv")
TEMPLATE_POOL_PER_ROLE = 1.25  # 2,500 distinct duty texts for 2,000 roles

DEPARTMENTS = ("HO", "DWP", "HMRC", "MOJ", "DFE", "DHSC", "DEFRA", "CO")
# Raw grade spellings per bucket; the last group maps to no bucket.
GRADES = (
    ("AA", "AO", "Administrative Officer", "Admin Assistant (AA)"),
    ("EO", "Executive Officer", "Executive Officer (EO)"),
    ("HEO", "SEO", "Higher Executive Officer (HEO)", "Senior Executive Officer"),
    ("Grade 7", "Grade 6", "G7", "Grade 7 / Grade 6"),
    ("SCS1", "Deputy Director", "Senior Civil Service"),
)
UNMAPPED_GRADES = ("Band B", "Specialist Level 3", "Fast Stream")
PROFESSIONS = (
    "Operational Delivery",
    "Policy",
    "Digital and Data",
    "Finance",
    "Project Delivery",
    "Human Resources",
    "Other",
)
UNKNOWN_PROFESSIONS = ("Estates", "Communications")

VERBS = (
    "Process", "Maintain", "Draft", "Coordinate", "Analyse", "Review", "Prepare",
    "Manage", "Develop", "Deliver", "Monitor", "Support", "Lead", "Produce",
    "Update", "Assess", "Organise", "Record", "Evaluate", "Design", "Implement",
    "Oversee", "Plan", "Track", "Audit", "Validate", "Compile", "Present",
    "Negotiate", "Schedule", "Triage", "Investigate", "Procure", "Commission",
    "Reconcile", "Publish", "Archive", "Escalate", "Document", "Forecast",
)
OBJECTS = (
    "visa applications", "casework files", "briefing packs", "stakeholder meetings",
    "management reports", "policy submissions", "budget forecasts",
    "procurement contracts", "data pipelines", "service dashboards", "risk registers",
    "ministerial correspondence", "parliamentary questions", "training materials",
    "recruitment campaigns", "service requests", "performance metrics",
    "audit findings", "grant applications", "supplier invoices", "benefit claims",
    "tax returns", "court listings", "prison rotas", "inspection reports",
    "funding bids", "workforce plans", "change requests", "user research sessions",
    "security clearances", "licence applications", "complaint responses",
    "board papers", "evidence reviews", "spending returns", "asset registers",
    "project milestones", "delivery plans", "team objectives", "statistical releases",
    "consultation responses", "guidance documents", "case conferences",
    "payment runs", "contract variations", "incident logs", "legal instructions",
    "estate surveys", "learning programmes", "customer enquiries", "data requests",
    "compliance checks", "business cases", "policy options", "operating models",
    "service standards", "partner agreements", "media enquiries", "claims backlogs",
    "quality samples",
)
AUDIENCES = (
    "for ministers", "for senior leaders", "for delivery partners",
    "for the regional teams", "for the governance board", "with local authorities",
    "with external suppliers", "for frontline staff", "with other departments",
    "for the finance directorate", "for the public", "with devolved administrations",
    "for the programme board", "with arm's length bodies", "for the private office",
    "with trade unions", "for the audit committee", "with policy colleagues",
    "for operational managers", "with analytical teams", "for new starters",
    "with legal advisers", "for the digital service", "with the press office",
    "for regional directors",
)
QUALIFIERS = (
    "to agreed deadlines", "in line with security policy", "across several sites",
    "using the case management system", "each week", "during peak periods",
    "with strict version control", "to a high standard", "at pace",
    "within the delegated budget", "against service levels", "in plain English",
    "under close scrutiny", "with minimal supervision", "ahead of each quarter",
    "using agreed templates", "in a secure environment", "across the directorate",
    "through the shared mailbox", "in the reporting tool", "for the annual review",
    "with clear audit trails", "at short notice", "alongside other priorities",
    "within statutory timescales",
)
ROLE_ADJECTIVES = ("Senior", "Assistant", "Principal", "Lead", "Junior", "Regional", "Deputy")
ROLE_NOUNS = (
    "Policy Adviser", "Caseworker", "Operations Officer", "Data Analyst",
    "Finance Business Partner", "Project Manager", "HR Adviser", "Delivery Manager",
    "Contract Manager", "Research Officer", "Service Designer", "Team Leader",
)
TEAMS = ("casework", "policy", "finance", "digital", "estates", "analysis", "delivery", "people")
START = date(2023, 1, 2)


def _duty(rng: random.Random) -> str:
    return (
        f"{rng.choice(VERBS)} {rng.choice(OBJECTS)} "
        f"{rng.choice(AUDIENCES)} {rng.choice(QUALIFIERS)}"
    )


def _template_pool(rng: random.Random, size: int) -> list[str]:
    pool: dict[str, None] = {}
    while len(pool) < size:
        pool[_duty(rng)] = None
    return list(pool)


def _summary(rng: random.Random, team: str) -> str:
    return (
        f"The {team} team handles {rng.choice(OBJECTS)} {rng.choice(AUDIENCES)}. "
        f"The post holder will {rng.choice(VERBS).lower()} {rng.choice(OBJECTS)} "
        f"{rng.choice(QUALIFIERS)}."
    )


def make_corpus(roles: int, shape: str, seed: int) -> list[dict]:
    """Vacancy records for ``roles`` roles, seeded and in a fixed order."""
    rng = random.Random(f"taskshift-bench:{shape}:{seed}")
    pool = _template_pool(rng, round(TEMPLATE_POOL_PER_ROLE * roles)) if shape == "template" else None
    cells = [(dept, bucket) for dept in DEPARTMENTS for bucket in range(len(GRADES))]
    records = []
    for index in range(roles):
        # the first roles cover every (department, grade) cell and profession,
        # so raking never meets a positive target with no sample mass
        if index < len(cells):
            department, bucket = cells[index]
        else:
            department, bucket = rng.choice(DEPARTMENTS), rng.randrange(len(GRADES))
        if index >= len(cells) and rng.random() < 0.02:
            grade_raw = rng.choice(UNMAPPED_GRADES)
        else:
            grade_raw = rng.choice(GRADES[bucket])
        if index < len(PROFESSIONS):
            profession = PROFESSIONS[index]
        elif rng.random() < 0.04:
            profession = rng.choice(UNKNOWN_PROFESSIONS)
        else:
            profession = rng.choice(PROFESSIONS)
        team = rng.choice(TEAMS)
        count = rng.randint(3, 9)
        duties = rng.sample(pool, count) if pool else [_duty(rng) for _ in range(count)]
        intro = f"The post holder keeps {team} work moving and accurate."
        if rng.random() < 0.15:
            intro += (
                f" Questions to {team}-team{index}@example.gov.uk or "
                f"020 7946 {rng.randrange(10000):04d}."
            )
        if rng.random() < 0.03:
            description = "Details in the attached candidate pack."
        else:
            description = intro + " Key duties:\n" + "\n".join(f"- {d}" for d in duties)
        posted = START + timedelta(days=rng.randrange(365))
        records.append(
            {
                "vacancy_id": f"R{index + 1:06d}",
                "title": f"{rng.choice(ROLE_ADJECTIVES)} {rng.choice(ROLE_NOUNS)}",
                "department": department,
                "grade_raw": grade_raw,
                "profession": profession,
                "posting_date": posted.isoformat(),
                "closing_date": (posted + timedelta(days=rng.randint(14, 40))).isoformat(),
                "job_summary": _summary(rng, team),
                "job_description": description,
            }
        )
    return records


def write_inputs(directory: Path, roles: int, shape: str, seed: int) -> dict[str, str]:
    """Write corpus and reference tables; returns the config path entries."""
    directory.mkdir(parents=True, exist_ok=True)
    corpus = directory / "corpus.jsonl"
    with corpus.open("w", encoding="utf-8", newline="\n") as handle:
        for record in make_corpus(roles, shape, seed):
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    for name in REFERENCE_TABLES:
        shutil.copyfile(DATA_DIR / name, directory / name)
    return {
        "corpus_path": str(corpus),
        "fte_path": str(directory / "fte.csv"),
        "salary_path": str(directory / "salary.csv"),
        "grade_totals_path": str(directory / "grade_totals.csv"),
        "profession_totals_path": str(directory / "profession_totals.csv"),
    }
