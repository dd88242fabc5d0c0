"""Tests of the benchmark itself: generator, output checks and spans.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import csv
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import synthetic  # noqa: E402

ROLES = 60  # smallest corpus that still fills every raking cell and taxonomy cluster


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("shape", ["template", "diverse"])
def test_generator_is_seeded(tmp_path, shape):
    synthetic.write_inputs(tmp_path / "a", 200, shape, seed=7)
    synthetic.write_inputs(tmp_path / "b", 200, shape, seed=7)
    synthetic.write_inputs(tmp_path / "c", 200, shape, seed=8)
    same, again, other = (_files(tmp_path / name) for name in "abc")
    assert same == again
    assert same["corpus.jsonl"] != other["corpus.jsonl"]


def test_generator_reaches_the_fixture_paths():
    records = synthetic.make_corpus(2000, "template", seed=1)
    descriptions = [record["job_description"] for record in records]
    assert any("@example.gov.uk" in text for text in descriptions)
    assert any("020 7946" in text for text in descriptions)
    assert any(text.count("\n- ") < 2 for text in descriptions)
    assert any(record["grade_raw"] in synthetic.UNMAPPED_GRADES for record in records)
    assert any(record["profession"] in synthetic.UNKNOWN_PROFESSIONS for record in records)
    with (synthetic.DATA_DIR / "salary.csv").open(newline="") as handle:
        suppressed = [row for row in csv.DictReader(handle) if row["median_salary"] == "c"]
    assert suppressed and any(
        (record["department"], record["grade_raw"]) == ("CO", raw)
        for record in records
        for raw in synthetic.GRADES[4]
    )


def test_diverse_duties_are_mostly_distinct():
    def duties(shape):
        return [
            line
            for record in synthetic.make_corpus(500, shape, seed=2)
            for line in record["job_description"].splitlines()
            if line.startswith("- ")
        ]

    template, diverse = duties("template"), duties("diverse")
    assert len(set(template)) <= synthetic.TEMPLATE_POOL_PER_ROLE * 500
    assert len(set(diverse)) > 0.95 * len(diverse)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        (1, None, "batch", 0.0, 10.0, None),
        (2, 1, "get", 1.0, 4.0, None),
        (3, 1, "get", 2.0, 5.0, None),  # overlaps span 2, as pool threads do
        (4, 1, "get", 7.0, 8.0, None),
        (5, 2, "inner", 1.5, 2.5, None),
    ]
    own = spans.self_times(recorded)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(2.0)


@pytest.mark.parametrize("busy, stolen, share", [(3.0, 1.0, 0.75), (0.0, 0.0, 1.0)])
def test_stopwatch_leaves_out_the_stolen_share(monkeypatch, busy, stolen, share):
    readings = iter([(10.0, 1.0), (10.0 + busy, 1.0 + stolen)])
    monkeypatch.setattr(run, "cpu_seconds", lambda: next(readings))
    with run.Stopwatch() as watch:
        time.sleep(0.01)
    assert (watch.busy_s, watch.steal_s) == (busy, stolen)
    assert watch.seconds == pytest.approx(watch.wall_s * share)


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", ["cold", "warm"])
def test_traced_run_matches_untraced_and_counts_reconcile(work, name):
    bench, metrics = run.measure_traced(name, seed=3, roles=ROLES)
    assert bench.problems() == []
    digests = {r.digest for r in bench.runs}
    assert len(digests) == 1 and "" not in digests
    assert metrics["gateway.requests"] > 0
    assert metrics["gateway.requests"] == metrics["gateway.cache_hits"] + metrics["gateway.cache_misses"]
    assert metrics["gateway.requests"] == metrics["gateway.succeeded"] + metrics["gateway.failed"]
    assert metrics["trace.stage_coverage"] >= 0.95
    if name == "warm":
        assert metrics["gateway.cache_hit_ratio"] == 1.0
        assert metrics["gateway.provider_calls"] == 0
    else:
        assert metrics["gateway.provider_calls"] >= metrics["gateway.cache_misses"] > 0


def test_cold_and_warm_digests_agree(work):
    cold, _ = run.measure("cold", seed=4, seconds=0.0, roles=ROLES)
    warm, _ = run.measure("warm", seed=4, seconds=0.0, roles=ROLES)
    assert cold.problems() == [] and warm.problems() == []
    assert cold.digest() == warm.digest()


def test_check_outputs_flags_placeholder_labels(work):
    bench = run.Bench("warm", seed=5, roles=ROLES)
    bench.setup()
    assert bench.problems() == []
    summary = bench.out / "report" / "taxonomy_summary.csv"
    rows = summary.read_text("utf-8").splitlines()
    rows[1] = "cluster-0," + rows[1].split(",", 1)[1]
    summary.write_text("\n".join(rows) + "\n", "utf-8")
    _, problems = run.check_outputs(bench.out)
    assert any("placeholder" in problem for problem in problems)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert not (tmp_path / ".bench_work").exists()
