"""What each stage holds, against the decoded size of its largest input table.

A stage that keeps whole tables as lists of dicts holds at least one such
table, and at the paper's 1.5M task rows each one is about a gigabyte.
These tests rerun each stage after ingest on a 1,000-role generated corpus
under tracemalloc and bound its traced peak by a multiple of what
``read_jsonl`` makes of its largest input table. The corpus comes from the
benchmark's generator (``bench/synthetic.py``, ``template`` duties) and is
built and run once per session.
"""

import collections
import gc
import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest

from taskshift import clustering
from taskshift.config import PipelineConfig
from taskshift.pipeline import Pipeline, read_jsonl

ROOT = Path(__file__).resolve().parents[1]
ROLES = 1000

# stage -> (the tables it reads, its limit as a multiple of the largest one)
LIMITS = {
    # the vacancies, then requests that quote every description, then answers
    "extract": (("vacancies.jsonl",), 4.0),
    # its two output tables, which are written from lists
    "weight": (("vacancies.jsonl", "tasks.jsonl"), 2.0),
    # what is live when the taxonomy is entered: one key and one
    # normalised text per task row, not the rows
    "cluster": (("roles.jsonl", "task_weights.jsonl"), 0.5),
    "rake": (("roles.jsonl",), 1.0),
    "savings": (("roles.jsonl", "raked_weights.jsonl", "task_weights.jsonl"), 1.0),
    # the eligible profiles, their requests and answers, and the plans
    "redesign": (("roles.jsonl", "task_weights.jsonl"), 2.0),
    # counters, per-role aggregates, the eligible profiles and their plans
    "report": (
        (
            "roles.jsonl",
            "task_weights.jsonl",
            "role_clusters.jsonl",
            "taxonomy.jsonl",
            "sweep.jsonl",
            "sensitivity.jsonl",
            "plans.jsonl",
            "raked_weights.jsonl",
        ),
        2.0,
    ),
}


class EnteredTaxonomy(Exception):
    pass


def load_synthetic():
    spec = importlib.util.spec_from_file_location("synthetic", ROOT / "bench" / "synthetic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_peak(run) -> int:
    """Peak bytes allocated while ``run()`` runs and not freed before the peak.

    tracemalloc counts only what is allocated after it starts, so what was
    live before does not count.
    """
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def generated_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("memory")
    paths = load_synthetic().write_inputs(work / "inputs", ROLES, "template", 1)
    paths.update(out_dir=str(work / "out"), cache_dir=str(work / "cache"), provider="mock")
    config = work / "config.json"
    config.write_text(json.dumps(paths))
    pipeline = Pipeline(PipelineConfig.load(config))
    list(pipeline.run_all())
    pipeline.manager  # made outside the traced runs
    return pipeline


def largest_decoded(pipeline: Pipeline, names) -> int:
    return max(traced_peak(lambda: read_jsonl(pipeline.out_dir / name)) for name in names)


@pytest.mark.parametrize("stage", [stage for stage in LIMITS if stage != "cluster"])
def test_stage_holds_less_than_its_limit(generated_run, stage):
    names, factor = LIMITS[stage]
    limit = factor * largest_decoded(generated_run, names)
    peak = traced_peak(lambda: generated_run.run_stage(stage, force=True))
    assert peak <= limit, f"{stage}: traced peak {peak:,} B over {limit:,.0f} B"


def test_cluster_enters_the_taxonomy_without_the_task_rows(generated_run, monkeypatch):
    # the PCA and k-means buffers that follow grow with the embedding
    # width, not with the table, so the stage stops at the taxonomy's entry
    names, factor = LIMITS["cluster"]
    limit = factor * largest_decoded(generated_run, names)
    live = []

    def stop_at_entry(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        raise EnteredTaxonomy

    def run():
        with pytest.raises(EnteredTaxonomy):
            generated_run.run_stage("cluster", force=True)

    monkeypatch.setattr(clustering, "build_taxonomy", stop_at_entry)
    traced_peak(run)
    (entry,) = live
    assert entry <= limit, f"cluster: {entry:,} B live at the taxonomy over {limit:,.0f} B"


def test_profile_join_holds_one_role_at_a_time(generated_run):
    # a merge of the two key-ordered tables: one role's rows and one profile
    # at a time, not an index over either table
    limit = 0.1 * largest_decoded(generated_run, ("task_weights.jsonl",))
    profiles = generated_run._stored_profiles
    peak = traced_peak(lambda: collections.deque(profiles(), maxlen=0))
    assert peak <= limit, f"profile join: traced peak {peak:,} B over {limit:,.0f} B"
