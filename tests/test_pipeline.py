import ast
import csv
import gc
import hashlib
import inspect
import io
import itertools
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
import socket
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from taskshift import cli, clustering, pipeline as pipeline_module
from taskshift.cli import main
from taskshift.config import PROVIDERS, PipelineConfig
from taskshift.corpus import Vacancy
from taskshift.errors import DataError, UsageError
from taskshift.exposure import RoleProfile
from taskshift.gateway import MockProvider, ResponseCache
from taskshift.pipeline import (
    STAGE_TABLE,
    STAGES,
    Pipeline,
    iter_groups,
    iter_joined,
    read_jsonl,
    write_csv,
    write_json,
    write_jsonl,
)
from taskshift.prompts import task_extraction_request

from conftest import artifacts, child_env, manifests, record_calls, write_config


def run_all(config: PipelineConfig) -> Pipeline:
    pipeline = Pipeline(config)
    list(pipeline.run_all())
    return pipeline


class TestStageGraph:
    def test_dag_is_acyclic_and_respects_order(self):
        position = {stage: index for index, stage in enumerate(STAGES)}
        for stage in STAGE_TABLE:
            assert stage.name not in stage.deps
            for dep in stage.deps:
                assert position[dep] < position[stage.name]

    def test_fixture_fingerprints_are_pinned(self, fixture_config):
        # a stage's fingerprint covers its parameters, its input files and
        # every upstream output hash, so these pin the whole chain up to the
        # report's own outputs; they do not depend on the out or cache paths.
        # extract and weight moved when vacancies.jsonl stopped carrying the
        # advert dates, redesign and report when they stopped declaring delta;
        # weight's outputs kept their bytes, so cluster, rake and savings held.
        # report moved when every run went to one BLAS thread: eigh's bits, and
        # with them projection.json, are now those of one thread on every machine
        expected = {
            "ingest": "dddea08482f45740d7629f70325071b5b650087831f29627c7e1da7396b4a452",
            "extract": "0a2c099b8f8c0000ef99882254d76e16c8722f755c31a9e71b3f98604765cbfb",
            "weight": "0a13478819a78a3120ab2ffabe5e7ac1b07aa53528a9dc4a641bdf299616fa59",
            "cluster": "871101eefd566161fc8b1eb67b24eb5febcbb60f759fca98d5604e0740911fa6",
            "rake": "a6d54680c87c30d2d2ce1705f20e7eeb632ea9d496cc1429ee9ffe77d47f96b1",
            "savings": "4059bfcbd08dd695a301555858d00777f295a3dd648c9a42131202c615e30a89",
            "redesign": "81b05640bbdc5d3fffb6a3b2f118110e47f5dcb1dbae2d60fad41e68c52f6453",
            "report": "6f3e4f3a80755c48607ab5a57c45d15308bbc19329832663d849bc5a6874ab38",
        }
        run_all(fixture_config)
        manifests = Path(fixture_config.out_dir) / "manifests"
        for stage in STAGES:
            manifest = json.loads((manifests / f"{stage}.json").read_text())
            assert manifest["params_fingerprint"] == expected[stage], stage

    def test_unknown_stage_rejected(self, fixture_config):
        with pytest.raises(UsageError):
            Pipeline(fixture_config).run_stage("nonsense")


class FieldRecorder:
    """Stands in for a config and notes the name of each field read through it."""

    def __init__(self, config: PipelineConfig, read: set):
        self._config = config
        self._read = read

    def __getattr__(self, name):
        self._read.add(name)
        return getattr(self._config, name)


class TestStageDeclarations:
    """Each stage declares what its ``run`` reads, so its fingerprint covers it."""

    def test_deps_are_the_stages_whose_outputs_a_stage_opens(self, fixture_config, monkeypatch):
        pipeline = run_all(fixture_config)
        out = Path(fixture_config.out_dir)
        producer = {out / name: stage.name for stage in STAGE_TABLE for name in stage.outputs}
        opened: list[Path] = []
        real_open = Path.open

        def recording_open(self, mode="r", *args, **kwargs):
            if not set(mode) & set("wax+"):
                opened.append(self)
            return real_open(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", recording_open)
        read = {}
        for stage in STAGE_TABLE:
            opened.clear()
            stage.run(pipeline)
            read[stage.name] = {
                producer[path]
                for path in opened
                if path.is_relative_to(out) and not path.is_relative_to(out / "manifests")
            }
        assert read == {stage.name: set(stage.deps) for stage in STAGE_TABLE}

    def test_stages_read_only_the_config_fields_they_declare(self, fixture_config):
        pipeline = run_all(fixture_config)
        pipeline.manager  # built from the provider fields before the swap
        read = {}
        for stage in STAGE_TABLE:
            read[stage.name] = set()
            pipeline.config = FieldRecorder(fixture_config, read[stage.name])
            # so that cluster's read of stopwords_path is seen, not its cached result
            pipeline.__dict__.pop("_stopwords", None)
            stage.run(pipeline)
        assert read == {stage.name: set(stage.params) for stage in STAGE_TABLE}

    def test_no_stage_body_names_a_writer(self):
        # a stage returns its outputs; run_stage alone writes them and hashes the bytes
        writers = {"write_jsonl", "write_json", "write_csv", "_replacing"}
        bodies = {stage.run.__name__ for stage in STAGE_TABLE}
        named = {}
        for node in ast.walk(ast.parse(inspect.getsource(pipeline_module))):
            if isinstance(node, ast.FunctionDef) and node.name in bodies:
                named[node.name] = {
                    getattr(name, "id", None) or getattr(name, "attr", None)
                    for name in ast.walk(node)
                    if isinstance(name, (ast.Name, ast.Attribute))
                } & writers
        assert named == {body: set() for body in bodies}

    @pytest.mark.parametrize(
        "returned",
        [("vacancies.jsonl",), ("vacancies.jsonl", "ingest_issues.json", "extra.json")],
        ids=["missing", "extra"],
    )
    def test_a_stage_returning_other_outputs_raises_and_writes_nothing(
        self, fixture_config, monkeypatch, returned
    ):
        spec = pipeline_module._STAGE_BY_NAME["ingest"]
        other = spec._replace(run=lambda pipeline: dict.fromkeys(returned, []))
        monkeypatch.setitem(pipeline_module._STAGE_BY_NAME, "ingest", other)
        with pytest.raises(DataError, match="^stage 'ingest' returned"):
            Pipeline(fixture_config).run_stage("ingest")
        assert not list(Path(fixture_config.out_dir).iterdir())

    def test_every_config_field_is_declared_or_cannot_change_an_output(self):
        names = {field.name for field in fields(PipelineConfig)}
        declared = {name for stage in STAGE_TABLE for name in stage.params}
        assert declared <= names, declared - names
        identity: set = set()
        remote = PipelineConfig(
            provider="remote", remote_base_url="http://localhost:9", remote_model="chat"
        )
        for config in (PipelineConfig(), remote):
            pipeline_module.build_provider(FieldRecorder(config, identity))
        no_output = {
            "out_dir", "cache_dir", "api_key_env", "max_attempts", "max_in_flight", "backoff_base"
        }
        assert names <= declared | identity | no_output, names - declared - identity - no_output

    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_manager_builds_the_provider_with_the_hashed_settings(
        self, tmp_path, monkeypatch, provider
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("building a provider opened a socket")

        monkeypatch.setattr(socket, "socket", refuse)
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps({"fingerprint": {"tasks": []}}))
        # every setting away from its default, so one left out would show
        config = PipelineConfig(
            provider=provider,
            cache_dir=str(tmp_path / "cache"),
            fixtures_path=str(fixtures),
            strict_fixtures=True,
            embed_dimension=16,
            remote_base_url="http://localhost:9",
            remote_model="chat",
            remote_embed_model="embed",
            remote_temperature=0.5,
            remote_max_tokens=7,
        )
        built, params = pipeline_module.build_provider(config)
        assert params.pop("provider") == provider
        if provider == "mock":
            assert params.pop("fixtures") == hashlib.sha256(fixtures.read_bytes()).hexdigest()
            assert built.fixtures == json.loads(fixtures.read_text())
        assert {name: getattr(built, name) for name in params} == params
        # the constructor's other fields cannot change an answer
        unhashed = {field.name for field in fields(built)} - set(params)
        assert unhashed == ({"fixtures"} if provider == "mock" else {"api_key_env", "timeout"})

    def test_fixtures_edited_mid_run_are_seen_by_the_next_invocation(self, tmp_path, monkeypatch):
        # one Pipeline builds its provider once: a fixtures edit after extract
        # neither reaches this run nor makes its later stages refuse extract
        def config_for(name: str, fixtures: Path) -> PipelineConfig:
            return PipelineConfig.load(
                write_config(
                    tmp_path,
                    out_dir=str(tmp_path / name / "out"),
                    cache_dir=str(tmp_path / name / "cache"),
                    fixtures_path=str(fixtures),
                )
            )

        first = {"0" * 64: {"tasks": []}}  # pins no request
        (tmp_path / "a.json").write_text(json.dumps(first))
        calls = record_calls(monkeypatch, MockProvider, "complete")
        solo_a = run_all(config_for("solo_a", tmp_path / "a.json"))
        label = next(r for _, r in calls if r.output_schema.name == "cluster_label")
        second = {**first, label.fingerprint(): {"label": "Pinned cluster label"}}
        (tmp_path / "b.json").write_text(json.dumps(second))
        solo_b = run_all(config_for("solo_b", tmp_path / "b.json"))
        expected_a, expected_b = artifacts(solo_a.out_dir), artifacts(solo_b.out_dir)
        assert expected_a != expected_b

        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps(first))
        config = config_for("shared", fixtures)
        pipeline = Pipeline(config)
        pipeline.run_stage("ingest")
        pipeline.run_stage("extract")
        fixtures.write_text(json.dumps(second))
        list(pipeline.run_all())
        assert artifacts(pipeline.out_dir) == expected_a

        later = Pipeline(config)
        built = {artifact.stage for artifact in later.run_all() if not artifact.reused}
        assert built == {"extract", "cluster", "redesign", "report"}
        assert artifacts(later.out_dir) == expected_b


class TestEndToEnd:
    def test_all_artifacts_produced(self, fixture_config):
        pipeline = run_all(fixture_config)
        out = Path(fixture_config.out_dir)
        for stage in STAGES:
            manifest = json.loads((out / "manifests" / f"{stage}.json").read_text())
            for name in manifest["outputs"]:
                assert (out / name).exists()

    def test_rerun_is_noop(self, fixture_config):
        pipeline = run_all(fixture_config)
        again = [pipeline.run_stage(stage) for stage in STAGES]
        assert all(artifact.reused for artifact in again)

    def test_every_table_is_written_in_key_order(self, fixture_config):
        task, role = ("vacancy_id", "task_number"), ("vacancy_id",)
        keys = {
            "vacancies.jsonl": role,
            "tasks.jsonl": task,
            "roles.jsonl": role,
            "task_weights.jsonl": task,
            "role_clusters.jsonl": role,
            "taxonomy.jsonl": task,
            "raked_weights.jsonl": ("role_key",),
            "sweep.jsonl": ("theta",),
            "sensitivity.jsonl": ("delta", "theta"),
            "plans.jsonl": ("role_key", "variant"),
        }
        out = Path(run_all(fixture_config).out_dir)
        assert sorted(path.name for path in out.rglob("*.jsonl")) == sorted(keys)
        for name, fields in keys.items():
            order = [tuple(row[field] for field in fields) for row in read_jsonl(out / name)]
            assert len(order) > 1, name
            # strictly increasing: sorted, and no key written twice
            assert all(one < other for one, other in zip(order, order[1:])), name

    def test_warm_cache_run_is_bit_identical(self, tmp_path):
        import hashlib

        shared_cache = str(tmp_path / "cache")
        first = PipelineConfig.load(
            write_config(tmp_path, out_dir=str(tmp_path / "out1"), cache_dir=shared_cache)
        )
        run_all(first)
        assert any(Path(shared_cache).glob("*.answers"))  # cache got warmed
        second = PipelineConfig.load(
            write_config(tmp_path, out_dir=str(tmp_path / "out2"), cache_dir=shared_cache)
        )
        run_all(second)
        for path in sorted(Path(first.out_dir).rglob("*")):
            if path.is_dir() or "manifests" in path.parts:
                continue
            twin = Path(second.out_dir) / path.relative_to(first.out_dir)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == hashlib.sha256(
                twin.read_bytes()
            ).hexdigest(), f"differs: {path.name}"

    def test_delta_change_invalidates_weight_and_downstream(self, tmp_path):
        config = PipelineConfig.load(write_config(tmp_path))
        run_all(config)
        changed = PipelineConfig.load(write_config(tmp_path, delta=1.0))
        pipeline = Pipeline(changed)
        assert pipeline.run_stage("ingest").reused
        assert pipeline.run_stage("extract").reused
        assert not pipeline.run_stage("weight").reused
        assert not pipeline.run_stage("cluster").reused
        assert not pipeline.run_stage("rake").reused
        assert not pipeline.run_stage("savings").reused
        # neither declares delta: weight's output hashes carry it to them
        assert not pipeline.run_stage("redesign").reused
        assert not pipeline.run_stage("report").reused

    def test_downstream_refuses_until_stale_upstream_rerun(self, tmp_path):
        config = PipelineConfig.load(write_config(tmp_path))
        run_all(config)
        changed = PipelineConfig.load(write_config(tmp_path, delta=1.0))
        pipeline = Pipeline(changed)
        # savings depends on weight, which was built under the old delta
        with pytest.raises(DataError, match="different parameters"):
            pipeline.run_stage("savings")

    def test_pinned_fixture_not_shadowed_by_cached_answer(self, tmp_path, monkeypatch):
        # the cache is keyed by provider identity too: a new fixture table
        # must reach the provider, not replay the synthesized answer
        assert main(["ingest", "--config", str(write_config(tmp_path))]) == 0
        assert main(["extract", "--config", str(write_config(tmp_path))]) == 0
        out = tmp_path / "out"
        record = next(r for r in read_jsonl(out / "vacancies.jsonl") if r["vacancy_id"] == "V001")
        request = task_extraction_request("pin", Vacancy.from_record(record).job_description)
        pinned = [f"Pinned duty number {i}" for i in (1, 2, 3)]
        payload = {
            "tasks": [
                {"task_number": i, "task_details": text, "exposure_score": 0.5}
                for i, text in enumerate(pinned, start=1)
            ]
        }
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps({request.fingerprint(): payload}))

        pipeline = Pipeline(
            PipelineConfig.load(write_config(tmp_path, fixtures_path=str(fixtures)))
        )
        calls = record_calls(monkeypatch, pipeline.manager.provider, "complete")
        assert not pipeline.run_stage("extract").reused
        assert calls
        tasks = read_jsonl(out / "tasks.jsonl")
        assert [row["task_details"] for row in tasks if row["vacancy_id"] == "V001"] == pinned

    def test_nan_score_in_an_answer_is_retried_never_stored(self, tmp_path):
        assert main(["ingest", "--config", str(write_config(tmp_path))]) == 0
        out = tmp_path / "out"
        record = next(r for r in read_jsonl(out / "vacancies.jsonl") if r["vacancy_id"] == "V001")
        request = task_extraction_request("nan", Vacancy.from_record(record).job_description)
        payload = {"tasks": [{"task_number": 1, "task_details": "Duty", "exposure_score": math.nan}]}
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps({request.fingerprint(): payload}))
        config = write_config(tmp_path, fixtures_path=str(fixtures))
        for _ in range(2):  # the second run replays the cache
            assert main(["all", "--config", str(config)]) == 0
        summary = json.loads((out / "extract_summary.json").read_text())
        assert ["extract:V001:description", "RangeViolation"] in summary["batches"][0]["failed"]
        answers = list((tmp_path / "cache").glob("*.answers"))
        assert answers and not any(b"NaN" in path.read_bytes() for path in answers)

    def test_truncated_manifest_rebuilds_stage(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["all", "--config", str(config)]) == 0
        manifest = tmp_path / "out" / "manifests" / "weight.json"
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])
        capsys.readouterr()
        assert main(["all", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("weight: built") for line in lines)
        assert any(line.startswith("report: reused") for line in lines)
        json.loads(manifest.read_text())

    @pytest.mark.parametrize("text", ["[]", '{"stage": "weight"}'], ids=["array", "no_fingerprint"])
    def test_malformed_manifest_is_unreadable(self, tmp_path, capsys, text):
        # valid JSON of the wrong shape is treated as a manifest that does not parse
        config = write_config(tmp_path)
        assert main(["all", "--config", str(config)]) == 0
        out = tmp_path / "out"
        built = artifacts(out)
        manifest = out / "manifests" / "weight.json"
        manifest.write_text(text)
        capsys.readouterr()
        assert main(["cluster", "--config", str(config)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == ["data error: stage 'cluster' needs 'weight', which has not been run"]
        assert main(["all", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("weight: built") for line in lines)
        assert any(line.startswith("report: reused") for line in lines)
        assert artifacts(out) == built
        assert json.loads(manifest.read_text())["stage"] == "weight"

    def test_manifests_without_a_trailing_newline_are_reused(self, fixture_config):
        # manifests used to end without one; an out directory built then is up to date
        run_all(fixture_config)
        for path in (Path(fixture_config.out_dir) / "manifests").iterdir():
            path.write_text(path.read_text("utf-8").rstrip("\n"), "utf-8")
        again = Pipeline(fixture_config).run_all()
        assert [artifact.reused for artifact in again] == [True] * len(STAGES)

    def test_stopwords_edit_rebuilds_cluster(self, tmp_path):
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("the\nand\nof\n")
        config = PipelineConfig.load(write_config(tmp_path, stopwords_path=str(stopwords)))
        run_all(config)
        taxonomy = Path(config.out_dir) / "taxonomy.jsonl"
        before = taxonomy.read_bytes()
        stopwords.write_text("the\nand\nof\nmanage\nreview\n")
        pipeline = Pipeline(config)
        assert not pipeline.run_stage("cluster").reused
        assert taxonomy.read_bytes() != before
        assert pipeline.run_stage("cluster").reused

    def test_missing_stopwords_file_is_data_error(self, tmp_path):
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("the\nand\nof\n")
        config = write_config(tmp_path, stopwords_path=str(stopwords))
        assert main(["all", "--config", str(config)]) == 0
        stopwords.unlink()
        assert main(["cluster", "--config", str(config), "--force"]) == 2

    def test_each_file_hashed_at_most_once_per_pipeline(self, fixture_config, monkeypatch):
        hashed: Counter = Counter()
        original = pipeline_module._sha256_file

        def counting(path):
            hashed[Path(path)] += 1
            return original(path)

        monkeypatch.setattr(pipeline_module, "_sha256_file", counting)
        run_all(fixture_config)
        # a cold run hashes its outputs as it writes them, so it reads none of them back
        out = Path(fixture_config.out_dir)
        assert hashed and max(hashed.values()) == 1, hashed.most_common(3)
        assert not [path for path in hashed if path.is_relative_to(out)]
        written = {out / name for manifest in manifests(out).values() for name in manifest["outputs"]}
        expected = set(hashed) | written
        hashed.clear()
        rerun = Pipeline(fixture_config)
        assert all(artifact.reused for artifact in rerun.run_all())
        assert set(hashed) == expected and max(hashed.values()) == 1, hashed.most_common(3)

    def test_fixtures_file_read_at_most_once_per_pipeline(self, tmp_path, monkeypatch):
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps({"0" * 64: {"tasks": []}}))
        config = PipelineConfig.load(write_config(tmp_path, fixtures_path=str(fixtures)))
        reads = []
        real_open = Path.open

        def recording_open(self, mode="r", *args, **kwargs):
            if self == fixtures and not set(mode) & set("wax+"):
                reads.append(mode)
            return real_open(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", recording_open)
        pipeline = run_all(config)
        assert pipeline.manager.provider.fixtures
        assert len(reads) == 1, reads

    def test_stale_upstream_refused(self, fixture_config):
        pipeline = run_all(fixture_config)
        target = Path(fixture_config.out_dir) / "vacancies.jsonl"
        target.write_text(target.read_text() + "\n")
        with pytest.raises(DataError, match="stale|match"):
            pipeline.run_stage("extract", force=True)

    def test_missing_upstream_refused(self, fixture_config):
        pipeline = Pipeline(fixture_config)
        with pytest.raises(DataError, match="has not been run"):
            pipeline.run_stage("weight")

    def test_dropped_roles_recorded_not_fatal(self, fixture_config):
        run_all(fixture_config)
        summary = json.loads(
            (Path(fixture_config.out_dir) / "extract_summary.json").read_text()
        )
        assert summary["roles_in"] == 10
        assert summary["roles_with_tasks"] == 10

    def test_unmapped_grades_dropped_at_rake(self, fixture_config):
        run_all(fixture_config)
        summary = json.loads((Path(fixture_config.out_dir) / "rake_summary.json").read_text())
        assert summary["dropped_unmapped_grades"] == 1
        weights = read_jsonl(Path(fixture_config.out_dir) / "raked_weights.jsonl")
        assert all(row["role_key"] != "V009" for row in weights)

    def test_raked_weights_sum_to_population(self, fixture_config):
        run_all(fixture_config)
        weights = read_jsonl(Path(fixture_config.out_dir) / "raked_weights.jsonl")
        total = math.fsum(row["weight"] for row in weights)
        assert total == pytest.approx(44000.0, rel=1e-6)

    def test_task_weight_rows_conserve_hours_and_value(self, fixture_config):
        run_all(fixture_config)
        rows = read_jsonl(Path(fixture_config.out_dir) / "task_weights.jsonl")
        by_role: dict[str, list[dict]] = {}
        for row in rows:
            by_role.setdefault(row["vacancy_id"], []).append(row)
        for role_rows in by_role.values():
            assert math.fsum(r["hours"] for r in role_rows) == pytest.approx(37.0, abs=1e-9)
            values = [r["value"] for r in role_rows]
            if values[0] is not None:
                salary = math.fsum(values)
                assert salary == pytest.approx(round(salary), abs=0.011)


TEXT = st.text(
    st.characters(exclude_categories=())
    | st.characters(categories=["Cs"])  # lone surrogates
    | st.sampled_from('"\\/\n\t\x00\x7f\u2028é€😀')
)
SCALAR = (
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**64 - 1)
    | st.floats()
    | st.floats(min_value=-2.3e-308, max_value=2.3e-308)  # subnormals
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -(2**63), 2**64 - 1])
    | TEXT
)
VALUE = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=10,
)


def assert_same(got, want):
    """Equal values of the same types, floats to the bit, dict keys in order."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, float):
        assert repr(got) == repr(want)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for one, other in zip(got, want):
            assert_same(one, other)
    else:
        assert got == want


def json_lines(path: Path) -> list:
    with path.open("r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def fingerprint(pipeline: Pipeline, stage: str) -> str:
    return json.loads(pipeline._manifest_path(stage).read_text())["params_fingerprint"]


class TestConfigKnobs:
    """Config fields that no other pipeline test, bench workload or README example sets."""

    def test_truncate_chars_caps_every_extraction_prompt(self, tmp_path, monkeypatch):
        plain = Pipeline(PipelineConfig.load(write_config(tmp_path)))
        plain.run_stage("ingest")
        plain.run_stage("extract")
        before = fingerprint(plain, "extract")
        sent = []
        complete = MockProvider.complete

        def record(provider, request):
            sent.append(request)
            return complete(provider, request)

        monkeypatch.setattr(MockProvider, "complete", record)
        cut = Pipeline(PipelineConfig.load(write_config(tmp_path, truncate_chars=120)))
        assert cut.run_stage("ingest").reused
        assert not cut.run_stage("extract").reused
        assert fingerprint(cut, "extract") != before

        fields_by_id = {
            row["vacancy_id"]: {"description": row["job_description"], "summary": row["job_summary"]}
            for row in read_jsonl(tmp_path / "out" / "vacancies.jsonl")
        }
        assert sent and all(request.request_id.startswith("extract:") for request in sent)
        longer = 0
        for request in sent:
            _, vacancy_id, field = request.request_id.split(":")
            text = request.user_prompt.split("<job_description>")[1].split("</job_description>")[0]
            original = fields_by_id[vacancy_id][field]
            assert text == original[:120]
            longer += len(original) > 120
        assert longer > 0

    def test_truncate_chars_zero_and_null_share_one_extract_fingerprint(self, tmp_path):
        # both mean "no truncation", so switching between them must not rebuild extract
        plain = Pipeline(PipelineConfig.load(write_config(tmp_path, truncate_chars=None)))
        plain.run_stage("ingest")
        plain.run_stage("extract")
        zero = Pipeline(PipelineConfig.load(write_config(tmp_path, truncate_chars=0)))
        assert zero.config.truncate_chars is None
        assert zero.run_stage("ingest").reused
        assert zero.run_stage("extract").reused
        assert fingerprint(zero, "extract") == fingerprint(plain, "extract")

    def test_small_department_is_dropped_and_listed(self, tmp_path):
        # the fixture corpus has 2 CO vacancies and 4 each in HO and HMRC
        pipeline = Pipeline(PipelineConfig.load(write_config(tmp_path, min_department_vacancies=3)))
        pipeline.run_stage("ingest")
        out = tmp_path / "out"
        issues = json.loads((out / "ingest_issues.json").read_text())
        assert issues["filtered_departments"] == ["CO"]
        assert (issues["parsed"], issues["kept"]) == (10, 8)
        departments = Counter(row["department"] for row in read_jsonl(out / "vacancies.jsonl"))
        assert departments == {"HO": 4, "HMRC": 4}

    @pytest.mark.parametrize(
        "name, first, edited",
        [
            (
                "vocab_path",
                {"departments": ["CO", "HMRC", "HO"]},
                {"departments": ["CO", "DfE", "HMRC", "HO"]},
            ),
            ("grade_map_path", {"eo": "EO"}, {"eo": "EO", "band 5": "EO"}),
        ],
    )
    def test_editing_a_reference_file_rebuilds_ingest(self, tmp_path, name, first, edited):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(first))
        config = PipelineConfig.load(write_config(tmp_path, **{name: str(path)}))
        assert not Pipeline(config).run_stage("ingest").reused
        assert Pipeline(config).run_stage("ingest").reused
        path.write_text(json.dumps(edited))
        assert not Pipeline(config).run_stage("ingest").reused


class TestJsonlCodec:
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(records=st.lists(st.dictionaries(TEXT, VALUE, max_size=4), max_size=3))
    @example(
        records=[
            {
                "ratio": math.inf,
                "low": -math.inf,
                "nan": math.nan,
                "zero": -0.0,
                "sub": 5e-324,
                "ints": [-(2**63), 2**63, 2**64 - 1],
                "text": 'quote " backslash \\ é 😀',
                "lone": ["\ud800", "\udc00x", "\udbff"],
            }
        ]
    )
    def test_read_decodes_as_json_loads(self, tmp_path, records):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, records)
        assert path.read_text("utf-8") == "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        )
        assert_same(read_jsonl(path), json_lines(path))

    def test_fixture_run_artifacts_and_cache_decode_as_json_loads(
        self, fixture_config, monkeypatch
    ):
        stored = {}
        real_put = ResponseCache.put

        def recording_put(self, fingerprint, raw):
            stored[fingerprint] = raw
            real_put(self, fingerprint, raw)

        monkeypatch.setattr(ResponseCache, "put", recording_put)
        pipeline = run_all(fixture_config)
        out = Path(fixture_config.out_dir)
        names = [name for stage in STAGE_TABLE for name in stage.outputs if name.endswith(".jsonl")]
        assert sorted(path.name for path in out.rglob("*.jsonl")) == sorted(names)
        for name in names:
            assert_same(read_jsonl(out / name), json_lines(out / name))
        # the cache holds no JSON of its own: every answer comes back as the provider gave it
        cache_dir = Path(fixture_config.cache_dir)
        assert stored and not list(cache_dir.glob("*.jsonl"))
        reader = ResponseCache(cache_dir, scope=pipeline.manager.cache.scope)
        for fingerprint, raw in stored.items():
            assert_same(reader.get(fingerprint), raw)


class ReadsMidway(list):
    """A list that reads ``path`` after handing out its first item, as a reader racing a writer."""

    def __init__(self, items, path: Path):
        super().__init__(items)
        self.path, self.seen = path, []

    def __iter__(self):
        items = list.__iter__(self)
        yield next(items)
        self.seen.append(self.path.read_bytes() if self.path.exists() else None)
        yield from items


# each writer with rows it writes and rows whose second item it cannot encode
WRITERS = {
    "jsonl": (write_jsonl, [{"x": 1}, {"x": 2}], [{"x": 1}, {"x": object()}]),
    "json": (write_json, [{"x": 1}, {"x": 2}], [{"x": 1}, {"x": object()}]),
    "csv": (lambda path, rows: write_csv(path, ["x"], rows), [[1], [2]], [[1], 5]),
}


class TestReplacingWriters:
    """Every output is written beside its target and renamed into place."""

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    @pytest.mark.parametrize("before", ["old", None])
    def test_failed_write_leaves_the_previous_file_and_no_temporary(self, tmp_path, kind, before):
        write, good, bad = WRITERS[kind]
        path = tmp_path / "out" / f"table.{kind}"
        if before:
            write(path, good)
        previous = path.read_bytes() if before else None
        with pytest.raises((TypeError, csv.Error)):
            write(path, bad)
        assert (path.read_bytes() if path.exists() else None) == previous
        assert sorted(path.parent.iterdir()) == ([path] if before else [])

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_reader_during_a_write_sees_the_old_bytes(self, tmp_path, kind):
        write, good, _ = WRITERS[kind]
        path, fresh = tmp_path / f"table.{kind}", tmp_path / f"fresh.{kind}"
        write(path, good[:1])
        old = path.read_bytes()
        rows = ReadsMidway(good, path)
        write(path, rows)
        assert rows.seen == [old]
        write(fresh, good)
        assert path.read_bytes() == fresh.read_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_line_ends_are_not_translated(self, tmp_path, monkeypatch, kind):
        # newline="\n" writes each "\n" as it is; None would write os.linesep,
        # so a manifest's bytes and hash would depend on the platform. The one
        # text layer a writer makes, by Path.open or by io.TextIOWrapper over a
        # binary file, must say so.
        write, good, _ = WRITERS[kind]
        newlines = []
        real_open, real_wrapper = Path.open, io.TextIOWrapper

        def recording_open(self, *args, **kwargs):
            bound = inspect.signature(real_open).bind(self, *args, **kwargs)
            if "b" not in bound.arguments.get("mode", "r"):
                newlines.append(bound.arguments.get("newline"))
            return real_open(self, *args, **kwargs)

        def recording_wrapper(*args, **kwargs):
            bound = inspect.signature(real_wrapper).bind(*args, **kwargs)
            newlines.append(bound.arguments.get("newline"))
            return real_wrapper(*args, **kwargs)

        monkeypatch.setattr(Path, "open", recording_open)
        monkeypatch.setattr(io, "TextIOWrapper", recording_wrapper)
        write(tmp_path / f"table.{kind}", good)
        assert newlines == ["\n"]

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_returned_digest_is_that_of_the_bytes_written(self, tmp_path, kind):
        write, good, _ = WRITERS[kind]
        path = tmp_path / f"table.{kind}"
        # enough rows that the bytes reach the hashing writer in many buffers
        assert write(path, good * 20_000) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_manifests_are_written_as_indented_json_with_a_trailing_newline(self, fixture_config):
        run_all(fixture_config)
        for path in (Path(fixture_config.out_dir) / "manifests").iterdir():
            text = path.read_text("utf-8")
            assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n", path.name


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# lists that take the indented writer's list-of-floats path, and lists that just miss it
FLOAT_LISTS = (
    st.lists(FINITE, min_size=1, max_size=2)
    | st.lists(FINITE, max_size=5).flatmap(
        lambda floats: st.integers(0, len(floats)).map(lambda at: [*floats[:at], 1, *floats[at:]])
    )
    | st.lists(st.floats(), min_size=1, max_size=3)
    | st.lists(st.floats() | st.booleans(), min_size=1, max_size=4)
)
DOCUMENT = st.recursive(
    SCALAR | st.integers() | st.sampled_from([2**64, -(2**70), 10**40]) | FLOAT_LISTS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(TEXT, inner, max_size=4)
        | st.dictionaries(st.integers(), inner, min_size=1, max_size=3)
    ),
    max_leaves=12,
)


class TestWriterBytes:
    """The writers write the bytes of ``json.dumps``: rows with ``sort_keys``, documents
    with ``sort_keys`` and ``indent=1``."""

    @staticmethod
    def assert_dumped(tmp_path, rows, document):
        # each writer also returns the SHA-256 of the bytes it wrote
        digest = write_jsonl(tmp_path / "rows.jsonl", rows)
        lines = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
        assert (tmp_path / "rows.jsonl").read_bytes() == lines.encode("utf-8")
        assert digest == hashlib.sha256((tmp_path / "rows.jsonl").read_bytes()).hexdigest()
        digest = write_json(tmp_path / "document.json", document)
        text = json.dumps(document, sort_keys=True, indent=1) + "\n"
        assert (tmp_path / "document.json").read_bytes() == text.encode("utf-8")
        assert digest == hashlib.sha256((tmp_path / "document.json").read_bytes()).hexdigest()

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        rows=st.lists(st.dictionaries(TEXT, DOCUMENT, max_size=4), max_size=4), document=DOCUMENT
    )
    @example(
        rows=[{"floats": [0.1, -0.0, 5e-324], "one": [2.5], "int": [1.5, 2, 3.5], "e": [{}, []]}],
        document={
            "mean": [0.1, -0.0, 1e300],
            "pair": [[1.0, 2.0], [3.0]],
            "odd": [math.nan, math.inf, -math.inf, True, 1.0, 2**64, None],
            "non_finite": [[0.5, math.nan], [math.inf], [-math.inf, -0.0]],
            "text": ["é😀", "\ud800", '"\\\n'],
            "empty": [{}, [], ""],
            "keys": {2: [1.0], 1: {"b": 0, "a": 1}},
        },
    )
    def test_bytes_are_those_of_json_dumps(self, tmp_path, rows, document):
        self.assert_dumped(tmp_path, rows, document)

    def test_bytes_without_the_c_accelerator(self, tmp_path, monkeypatch):
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        row = {"b": [1.5, math.nan, 2**70], "a": {"z": "é", "y": None}}
        self.assert_dumped(tmp_path, [row, {}], {"rows": [row], "floats": [0.5, -0.0]})

    @pytest.mark.parametrize("write", [write_jsonl, write_json], ids=["jsonl", "json"])
    def test_unencodable_value_raises_the_standard_type_error(self, tmp_path, write):
        rows = [{"x": {"y": [1.0, object()]}}]
        with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
            write(tmp_path / "table", rows)
        # a failed write leaves nothing behind that the next write of the same rows trips on
        rows[0]["x"]["y"][1] = 2.0
        write(tmp_path / "table", rows)
        assert (tmp_path / "table").exists()

    def test_circular_document_raises_as_json_dumps_does(self, tmp_path):
        document = {"a": [1.0]}
        document["a"].append(document)
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            write_json(tmp_path / "document.json", document)


class TestReportRoundTrip:
    @pytest.fixture
    def out_dir(self, fixture_config):
        run_all(fixture_config)
        return Path(fixture_config.out_dir)

    def read_csv(self, path):
        with path.open() as handle:
            return list(csv.DictReader(handle))

    def test_report_bytes_are_pinned(self, out_dir):
        # the report's fingerprint covers its inputs, not its outputs, so only
        # these digests see a change in how a cell is folded or formatted
        expected = {
            "band_shares.csv": "991e7823e48903e534874016f474515922f6cbd825537e433019e9804c4de1ef",
            "cluster_summary.csv": "4cfb9ae63e30e4a8d59cd031c42417e823f12f136f519fb2a128cfc930318c78",
            "decay_sensitivity.csv": "640420de1bb306172c5d4ed528f0fcaa489e16b449dac13c4fbfad4bed4271e9",
            "exposure_histogram.csv": "0eb20147be16c3c8e281975565a6cafa4340ba77ef5f56bfd09cb8304deb82fb",
            "focus_by_decile.csv": "bfc7e2b514dd6bd86dfc0edef7c85eb723db8b8ec93ca6a50dbbdc73e6c6040f",
            "redesign_comparison.csv": "4560cb57f1c8725d2874eef0dc3d334c740d2122631a4ecf8a8bf7b8172ecefc",
            "sweep.csv": "c20ff8ab9c6063c38a91527d328be48c506eed5f8dc9718594983615edd2ec22",
            "tasks_per_role.csv": "e01b80e65033e78ffe5f7f44c9aaa15dd05dd2f3d4096581a559855d176a7420",
            "taxonomy_summary.csv": "af9ea19f1bce6212c291388ff0a2f5f1a0f3fdd1689a381f2cac3a0f19200be6",
            "theme_shares.csv": "10945a8a55b6c4c776a999c3e2c114a408722c37379f7bedd06c4058c2728bfb",
        }
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (out_dir / "report").iterdir()
        }
        assert written == expected

    def test_sweep_csv_reparses_to_artifact(self, out_dir):
        artifact = {row["theta"]: row for row in read_jsonl(out_dir / "sweep.jsonl")}
        for row in self.read_csv(out_dir / "report" / "sweep.csv"):
            source = artifact[float(row["theta"])]
            assert abs(float(row["cost_reduction"]) - source["cost_reduction"]) <= 0.5
            assert abs(float(row["productivity_gain"]) - source["productivity_gain"]) <= 0.5
            if row["ratio"] == "inf":
                assert math.isinf(source["ratio"])
            else:
                assert abs(float(row["ratio"]) - source["ratio"]) <= 5e-5
            assert int(row["n_cost"]) == source["n_cost"]

    def test_band_shares_reparse(self, out_dir):
        tasks = read_jsonl(out_dir / "task_weights.jsonl")
        rows = self.read_csv(out_dir / "report" / "band_shares.csv")
        assert sum(int(row["count"]) for row in rows) == len(tasks)
        assert math.fsum(float(row["share_percent"]) for row in rows) == pytest.approx(
            100.0, abs=0.05
        )

    def test_cluster_summary_reparses(self, out_dir):
        roles = {r["vacancy_id"]: r for r in read_jsonl(out_dir / "roles.jsonl")}
        clusters = read_jsonl(out_dir / "role_clusters.jsonl")
        members: dict[str, list[float]] = {}
        for row in clusters:
            members.setdefault(row["cluster"], []).append(
                roles[row["vacancy_id"]]["exposure_mean"]
            )
        for row in self.read_csv(out_dir / "report" / "cluster_summary.csv"):
            if int(row["n_roles"]) == 0:
                continue
            means = members[row["cluster"]]
            assert abs(float(row["mean_exposure"]) - sum(means) / len(means)) <= 5e-4

    def test_redesign_columns_sum_to_hundred(self, out_dir):
        rows = self.read_csv(out_dir / "report" / "redesign_comparison.csv")
        for column in rows[0]:
            if column == "category":
                continue
            total = math.fsum(float(row[column]) for row in rows)
            assert total == pytest.approx(100.0, abs=0.1)

    def test_sensitivity_csv_reparses_to_artifact(self, out_dir):
        artifact = {
            (row["delta"], row["theta"]): row
            for row in read_jsonl(out_dir / "sensitivity.jsonl")
        }
        rows = self.read_csv(out_dir / "report" / "decay_sensitivity.csv")
        by_type = {row["saving_type"]: row for row in rows}
        for (delta, theta), source in artifact.items():
            if abs(theta - 0.8) > 1e-9:
                continue
            column = f"delta_{delta}"
            assert abs(float(by_type["cost_reduction"][column]) - source["cost_reduction"]) <= 0.5
            assert (
                abs(float(by_type["productivity_gain"][column]) - source["productivity_gain"])
                <= 0.5
            )

    def test_exposure_histogram_reparses(self, out_dir):
        tasks = read_jsonl(out_dir / "task_weights.jsonl")
        rows = self.read_csv(out_dir / "report" / "exposure_histogram.csv")
        assert sum(int(row["count"]) for row in rows) == len(tasks)
        scores = {round(row["exposure_score"], 2) for row in tasks}
        assert {float(row["score"]) for row in rows} == scores

    def test_focus_by_decile_category_shares_sum_to_hundred(self, out_dir):
        rows = self.read_csv(out_dir / "report" / "focus_by_decile.csv")
        assert rows, "decile report should not be empty on the fixture corpus"
        groups = {row["group"] for row in rows}
        assert groups <= {"bottom", "top"}
        for group in groups:
            total = math.fsum(
                float(row["share_percent"])
                for row in rows
                if row["group"] == group and row["kind"] == "category"
            )
            assert total == pytest.approx(100.0, abs=0.1)

    def test_median_freed_share_matches_oracle(self, out_dir):
        import statistics

        summary = json.loads((out_dir / "redesign_summary.json").read_text())
        plans = [
            row
            for row in read_jsonl(out_dir / "plans.jsonl")
            if row["variant"] == "focus"
        ]
        oracle = statistics.median(row["freed_share"] for row in plans)
        assert summary["median_freed_share"] == pytest.approx(oracle, abs=1e-12)


class TestProfileReader:
    def test_no_stage_after_weight_reads_descriptions_or_extracted_tasks(
        self, fixture_config, monkeypatch
    ):
        pipeline = Pipeline(fixture_config)
        after_weight = STAGES.index("weight") + 1
        for stage in STAGES[:after_weight]:
            pipeline.run_stage(stage)
        opened = []
        real_read = pipeline_module.iter_jsonl

        def recording_read(path):
            opened.append(Path(path).name)
            return real_read(path)

        monkeypatch.setattr(pipeline_module, "iter_jsonl", recording_read)
        for stage in STAGES[after_weight:]:
            pipeline.run_stage(stage)
        assert {"roles.jsonl", "task_weights.jsonl"} <= set(opened)
        assert "vacancies.jsonl" not in opened
        assert "tasks.jsonl" not in opened

    def test_weight_tables_rebuild_the_profiles_weight_built(self, fixture_config):
        pipeline = run_all(fixture_config)
        built = list(pipeline._built_profiles())
        # what redesign and report read: weight's stored numbers, nothing recomputed
        stored = list(pipeline._stored_profiles())
        assert len(built) == 10
        assert sum(profile.salary is None for profile in built) == 2
        assert stored == built
        assert all(s.weights is b.weights for s, b in zip(stored, built))

    def test_stages_after_weight_build_no_profile(self, fixture_config, monkeypatch):
        pipeline = Pipeline(fixture_config)
        calls = record_calls(monkeypatch, pipeline_module, "build_profile")
        for stage in STAGES:
            pipeline.run_stage(stage)
            if stage == "weight":
                assert len(calls) == 10
        assert len(calls) == 10

    def test_savings_reads_weight_tables_through_the_profile_reader(
        self, fixture_config, monkeypatch
    ):
        pipeline = Pipeline(fixture_config)
        for stage in STAGES[: STAGES.index("savings")]:
            pipeline.run_stage(stage)
        out = Path(fixture_config.out_dir)
        joined = iter_joined(out / "roles.jsonl", out / "task_weights.jsonl")
        calls = record_calls(monkeypatch, RoleProfile, "from_rows")
        pipeline.run_stage("savings")
        # one call per joined role, raked or not: from_rows is the one reader
        assert [role["vacancy_id"] for role, _ in calls] == [
            role["vacancy_id"] for role, _ in joined
        ]
        assert len(calls) == 10


# task rows: distinct task numbers under each of a few vacancy ids
TASK_RUNS = st.dictionaries(
    st.text(alphabet="V01", min_size=1, max_size=3),
    st.sets(st.integers(-3, 30), min_size=1, max_size=4),
    max_size=6,
)


def task_rows(runs: dict[str, set[int]]) -> list[dict]:
    """The rows of ``runs`` in key order, as a task table is written."""
    return [
        {"vacancy_id": key, "task_number": number}
        for key in sorted(runs)
        for number in sorted(runs[key])
    ]


def swap_lines(path: Path, first: int, second: int) -> None:
    lines = path.read_text("utf-8").splitlines(keepends=True)
    lines[first], lines[second] = lines[second], lines[first]
    path.write_text("".join(lines), "utf-8")


def repin(out: Path, stage: str, name: str) -> None:
    """Record ``name``'s present hash in ``stage``'s manifest, as if the stage wrote it."""
    manifest = out / "manifests" / f"{stage}.json"
    record = json.loads(manifest.read_text("utf-8"))
    record["outputs"][name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    manifest.write_text(json.dumps(record), "utf-8")


class TestOrderedTables:
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(runs=TASK_RUNS)
    def test_groups_of_ordered_rows_are_groupby_runs(self, tmp_path, runs):
        rows = task_rows(runs)
        path = tmp_path / "tasks.jsonl"
        write_jsonl(path, rows)
        expected = [
            (key, list(run)) for key, run in itertools.groupby(rows, lambda row: row["vacancy_id"])
        ]
        assert list(iter_groups(path)) == expected

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(runs=TASK_RUNS.filter(lambda runs: sum(map(len, runs.values())) > 1), data=st.data())
    def test_any_descent_or_repeat_is_a_data_error(self, tmp_path, runs, data):
        rows = task_rows(runs)
        first = data.draw(st.integers(0, len(rows) - 2))
        second = data.draw(st.integers(first + 1, len(rows) - 1))
        if data.draw(st.booleans()):
            rows[first], rows[second] = rows[second], rows[first]  # a descent
        else:
            rows[second] = rows[first]  # a repeat
        path = tmp_path / "tasks.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(DataError, match="tasks.jsonl is out of key order"):
            list(iter_groups(path))

    def test_role_table_with_a_repeated_key_is_a_data_error(self, tmp_path):
        path = tmp_path / "roles.jsonl"
        write_jsonl(path, [{"vacancy_id": "A"}, {"vacancy_id": "B"}, {"vacancy_id": "B"}])
        with pytest.raises(DataError, match="roles.jsonl is out of key order at vacancy 'B'"):
            list(iter_groups(path))

    def test_join_skips_roles_without_tasks_and_refuses_tasks_without_a_role(self, tmp_path):
        roles, tasks = tmp_path / "roles.jsonl", tmp_path / "tasks.jsonl"
        write_jsonl(roles, [{"vacancy_id": key} for key in ("A", "B", "D")])
        write_jsonl(tasks, task_rows({"A": {1, 2}, "D": {1}}))
        joined = [(role["vacancy_id"], len(rows)) for role, rows in iter_joined(roles, tasks)]
        assert joined == [("A", 2), ("D", 1)]
        write_jsonl(tasks, task_rows({"A": {1}, "C": {1}, "D": {1}}))
        with pytest.raises(DataError, match="tasks.jsonl holds vacancy 'C', which roles.jsonl"):
            list(iter_joined(roles, tasks))

    @pytest.mark.parametrize("within_role", [True, False])
    def test_swapped_task_rows_exit_two(self, tmp_path, capsys, within_role):
        config = write_config(tmp_path)
        for stage in ("ingest", "extract", "weight"):
            assert main([stage, "--config", str(config)]) == 0
        out = tmp_path / "out"
        table = out / "task_weights.jsonl"
        keys = [row["vacancy_id"] for row in read_jsonl(table)]
        run = keys.count(keys[0])
        assert run > 1
        # two tasks of the first role, or its last task and the next role's first
        first = 0 if within_role else run - 1
        swap_lines(table, first, first + 1)
        repin(out, "weight", "task_weights.jsonl")
        with pytest.raises(DataError, match="task_weights.jsonl is out of key order"):
            Pipeline(PipelineConfig.load(config)).run_stage("redesign")
        capsys.readouterr()
        assert main(["redesign", "--config", str(config)]) == 2
        assert "task_weights.jsonl is out of key order" in capsys.readouterr().err

    def test_tasks_of_a_missing_role_exit_two(self, tmp_path, capsys):
        config = write_config(tmp_path)
        for stage in ("ingest", "extract", "weight"):
            assert main([stage, "--config", str(config)]) == 0
        out = tmp_path / "out"
        roles = out / "roles.jsonl"
        lines = roles.read_text("utf-8").splitlines(keepends=True)
        missing = json.loads(lines[1])["vacancy_id"]
        roles.write_text("".join(lines[:1] + lines[2:]), "utf-8")
        repin(out, "weight", "roles.jsonl")
        assert main(["redesign", "--config", str(config)]) == 2
        assert f"task_weights.jsonl holds vacancy {missing!r}" in capsys.readouterr().err

    def test_report_checks_role_clusters_key_for_key(self, fixture_config):
        pipeline = run_all(fixture_config)
        out = Path(fixture_config.out_dir)
        clusters = out / "role_clusters.jsonl"
        lines = clusters.read_text("utf-8").splitlines(keepends=True)
        clusters.write_text("".join(lines[:-1]), "utf-8")
        repin(out, "cluster", "role_clusters.jsonl")
        with pytest.raises(DataError, match="role_clusters.jsonl does not list the roles"):
            pipeline.run_stage("report", force=True)


UP_TO_CLUSTER = STAGES[: STAGES.index("cluster") + 1]
CLUSTER_OUTPUTS = ("role_clusters.jsonl", "taxonomy.jsonl", "projection.json")


def record_embedded(monkeypatch) -> list:
    """Every text the mock provider is asked to embed, in order."""
    sent = []
    real_embed = MockProvider.embed

    def recording_embed(self, texts):
        sent.extend(texts)
        return real_embed(self, texts)

    monkeypatch.setattr(MockProvider, "embed", recording_embed)
    return sent


def run_to_cluster(config: PipelineConfig) -> Pipeline:
    pipeline = Pipeline(config)
    for stage in UP_TO_CLUSTER:
        pipeline.run_stage(stage)
    return pipeline


class TestEmbeddingCache:
    def test_warm_rerun_makes_no_embedding_calls(self, tmp_path, monkeypatch):
        cache, first, second = tmp_path / "cache", tmp_path / "out1", tmp_path / "out2"
        calls = record_calls(monkeypatch, MockProvider, "embed")
        run_to_cluster(PipelineConfig.load(write_config(tmp_path, out_dir=str(first))))
        cold_calls = len(calls)
        assert cold_calls > 0
        files = sorted(cache.iterdir())
        run_to_cluster(PipelineConfig.load(write_config(tmp_path, out_dir=str(second))))
        assert len(calls) == cold_calls
        for name in ("projection.json", "taxonomy.jsonl"):
            assert (second / name).read_bytes() == (first / name).read_bytes()
        assert sorted(cache.iterdir()) == files

    @pytest.mark.parametrize("change", ["embed_dimension", "fixtures"])
    def test_vectors_never_replayed_for_another_scope(self, tmp_path, monkeypatch, change):
        sent = record_embedded(monkeypatch)
        first = write_config(tmp_path, out_dir=str(tmp_path / "out1"), embed_dimension=16)
        run_to_cluster(PipelineConfig.load(first))
        embedded, sent[:] = list(sent), []
        assert embedded
        if change == "embed_dimension":
            overrides = {"embed_dimension": 24}
        else:
            fixtures = tmp_path / "fixtures.json"
            fixtures.write_text(json.dumps({"0" * 64: {"tasks": []}}))  # pins no request
            overrides = {"embed_dimension": 16, "fixtures_path": str(fixtures)}
        second = write_config(tmp_path, out_dir=str(tmp_path / "out2"), **overrides)
        run_to_cluster(PipelineConfig.load(second))
        assert sent == embedded

    def test_cached_row_of_another_width_exits_three(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path)
        for stage in UP_TO_CLUSTER:
            assert main([stage, "--config", str(config)]) == 0
        (segment,) = (tmp_path / "cache").glob("*.vectors")
        segment.write_bytes(segment.read_bytes()[:-8])  # the last text's row is lost
        monkeypatch.setattr(
            MockProvider, "embed", lambda self, texts: np.ones((len(texts), self.dimension + 1))
        )
        capsys.readouterr()
        assert main(["cluster", "--config", str(config), "--force"]) == 3
        assert "embedding dimension changed mid-run" in capsys.readouterr().err

    def test_torn_segment_and_index_embed_only_the_lost_texts(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        for stage in UP_TO_CLUSTER:
            assert main([stage, "--config", str(config)]) == 0
        out = tmp_path / "out"
        before = {name: (out / name).read_bytes() for name in CLUSTER_OUTPUTS}
        (segment,) = (tmp_path / "cache").glob("*.vectors")
        (index,) = (tmp_path / "cache").glob("*.vectors.index")
        last_key, _, width = index.read_text().splitlines()[-1].split()
        row_bytes = 8 * int(width)
        data = segment.read_bytes()
        rows = len(data) // row_bytes
        # a crash mid-row: that row and the two after it are lost
        segment.write_bytes(data[: (rows - 3) * row_bytes + row_bytes // 2])
        with index.open("ab") as handle:
            # half an index line: read whole, it would put a lost text at offset 0
            handle.write(f"{last_key} 0 {width}\n".encode()[:-3])
        sent = record_embedded(monkeypatch)
        assert main(["cluster", "--config", str(config), "--force"]) == 0
        assert len(sent) == 3
        assert {name: (out / name).read_bytes() for name in CLUSTER_OUTPUTS} == before
        sent.clear()
        assert main(["cluster", "--config", str(config), "--force"]) == 0
        assert sent == []


def record_kernel_runs(monkeypatch) -> tuple[list, list]:
    """Every ``np.linalg.eigh`` call and every Lloyd run, as two lists."""
    eigh_calls = record_calls(monkeypatch, np.linalg, "eigh")
    return eigh_calls, record_calls(monkeypatch, clustering, "_lloyd")


def start_all(config: Path) -> subprocess.Popen:
    """``taskshift all`` on ``config`` in a child process."""
    return subprocess.Popen(
        [sys.executable, "-m", "taskshift.cli", "all", "--config", str(config)],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finish(*runs: subprocess.Popen) -> None:
    """Wait for every child, then require that each exited 0 without a traceback."""
    ends = [(run.communicate(timeout=300)[1], run.returncode) for run in runs]
    for stderr, code in ends:
        assert code == 0, stderr
        assert "Traceback" not in stderr


class TestConcurrentRuns:
    """Two runs started together end as one run alone would, however they interleave.

    At fixture size a race that would tear a table written in place comes
    up only in some trials, so this guards rather than proves; the writer
    tests in ``TestReplacingWriters`` are the ones that fail first.
    """

    TRIALS = 3

    @pytest.fixture(scope="class")
    def solo(self, tmp_path_factory) -> tuple[dict, dict]:
        base = tmp_path_factory.mktemp("solo")
        finish(start_all(write_config(base)))
        return artifacts(base / "out"), manifests(base / "out")

    @pytest.mark.parametrize("shared_out", [True, False], ids=["one-out-dir", "two-out-dirs"])
    def test_two_runs_on_one_cache_finish_as_a_solo_run(self, tmp_path, solo, shared_out):
        for trial in range(self.TRIALS):
            base = tmp_path / str(trial)
            outs = [base / "out"] * 2 if shared_out else [base / "out0", base / "out1"]
            configs = []
            for index, out in enumerate(outs):
                (base / str(index)).mkdir(parents=True)
                configs.append(
                    write_config(base / str(index), out_dir=str(out), cache_dir=str(base / "cache"))
                )
            finish(*[start_all(config) for config in configs])
            for out in set(outs):
                assert (artifacts(out), manifests(out)) == solo, f"trial {trial}"
            assert not list(base.rglob("*.tmp")), f"trial {trial}"


class TestConcurrentConfigurations:
    """Runs of two configurations on one output directory leave it so that a later
    run of either configuration alone ends with that configuration's artifacts.

    Either run may refuse the other's upstream outputs (exit 2). What must not
    happen is a manifest that vouches for outputs built from other inputs, or
    hashed after the other run replaced them. At fixture size such a race comes
    up only in some trials, so this guards rather than proves.
    """

    TRIALS = 3
    DELTAS = (0.75, 0.5)

    @pytest.fixture(scope="class")
    def solos(self, tmp_path_factory) -> dict[float, dict]:
        found = {}
        for delta in self.DELTAS:
            base = tmp_path_factory.mktemp(f"solo-{delta}")
            finish(start_all(write_config(base, delta=delta)))
            found[delta] = artifacts(base / "out")
        return found

    def test_a_solo_rerun_after_both_ends_as_a_solo_run(self, tmp_path, solos):
        for trial in range(self.TRIALS):
            base = tmp_path / str(trial)
            shared = {"out_dir": str(base / "out"), "cache_dir": str(base / "cache")}
            runs = []
            for delta in self.DELTAS:
                (base / str(delta)).mkdir(parents=True)
                runs.append(start_all(write_config(base / str(delta), delta=delta, **shared)))
            for run in runs:
                stderr = run.communicate(timeout=300)[1]
                assert run.returncode in (0, 2) and "Traceback" not in stderr, stderr
            for delta in self.DELTAS:
                copy = base / f"copy-{delta}"
                shutil.copytree(base / "out", copy / "out")
                finish(start_all(write_config(copy, delta=delta, cache_dir=shared["cache_dir"])))
                assert artifacts(copy / "out") == solos[delta], f"trial {trial}, delta {delta}"


class TestKernelReplay:
    def test_primed_cache_run_makes_no_eigh_or_lloyd_call(self, tmp_path, monkeypatch):
        first, second = tmp_path / "out1", tmp_path / "out2"
        run_all(PipelineConfig.load(write_config(tmp_path, out_dir=str(first))))
        files = sorted((tmp_path / "cache").iterdir())
        assert any(path.name.endswith(".arrays") for path in files)
        eigh_calls, lloyd_runs = record_kernel_runs(monkeypatch)
        warm = run_all(PipelineConfig.load(write_config(tmp_path, out_dir=str(second))))
        assert (len(eigh_calls), len(lloyd_runs)) == (0, 0)
        assert warm.manager.arrays.replayed == 13  # role clusters, PCA, 1 + 10 taxonomy runs
        assert artifacts(second) == artifacts(first)
        assert sorted((tmp_path / "cache").iterdir()) == files

    def test_primed_cache_run_makes_no_matmul_call(self, tmp_path, monkeypatch):
        first, second = tmp_path / "out1", tmp_path / "out2"
        run_all(PipelineConfig.load(write_config(tmp_path, out_dir=str(first))))
        # the taxonomy's projected rows are replayed with the PCA fit
        matmul_calls = record_calls(monkeypatch, np, "matmul")
        warm = run_all(PipelineConfig.load(write_config(tmp_path, out_dir=str(second))))
        assert matmul_calls == []
        assert warm.manager.arrays.replayed == 13
        assert artifacts(second) == artifacts(first)

    def test_delta_rerun_runs_lloyd_only_for_the_role_clusters(self, tmp_path, monkeypatch):
        run_all(PipelineConfig.load(write_config(tmp_path)))
        eigh_calls, lloyd_runs = record_kernel_runs(monkeypatch)
        rerun = run_all(PipelineConfig.load(write_config(tmp_path, delta=0.5)))
        assert len(eigh_calls) == 0
        # the role points changed, the task texts did not: one k-means of 10 restarts
        assert len(lloyd_runs) == 10
        assert (rerun.manager.arrays.computed, rerun.manager.arrays.replayed) == (1, 12)
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        monkeypatch.undo()
        run_all(PipelineConfig.load(write_config(fresh, delta=0.5)))
        assert artifacts(tmp_path / "out") == artifacts(fresh / "out")

    @pytest.mark.parametrize("damage", ["torn", "resized"])
    def test_damaged_record_is_recomputed(self, tmp_path, monkeypatch, caplog, damage):
        config = write_config(tmp_path)
        for stage in UP_TO_CLUSTER:
            assert main([stage, "--config", str(config)]) == 0
        out = tmp_path / "out"
        before = {name: (out / name).read_bytes() for name in CLUSTER_OUTPUTS}
        (segment,) = (tmp_path / "cache").glob("*.arrays")
        (index,) = (tmp_path / "cache").glob("*.arrays.index")
        lines = index.read_text().splitlines()
        # records in run order: role clusters, PCA, top-level, 10 sub-cluster runs
        assert len(lines) == 13
        if damage == "torn":
            # a crash inside the last record: that sub-cluster run is lost
            segment.write_bytes(segment.read_bytes()[:-12])
        else:
            # a later line gives the PCA record another length, and wins
            key, offset, length = lines[1].split()
            with index.open("a") as handle:
                handle.write(f"{key} {offset} {int(length) - 1}\n")
        eigh_calls, lloyd_runs = record_kernel_runs(monkeypatch)
        caplog.set_level("INFO", logger="taskshift.pipeline")
        assert main(["cluster", "--config", str(config), "--force"]) == 0
        if damage == "torn":
            assert (len(eigh_calls), len(lloyd_runs)) == (0, 10)
        else:
            assert (len(eigh_calls), len(lloyd_runs)) == (1, 0)
        assert "12 PCA and k-means results replayed from the cache, 1 computed" in caplog.text
        assert {name: (out / name).read_bytes() for name in CLUSTER_OUTPUTS} == before
        eigh_calls.clear()
        lloyd_runs.clear()
        assert main(["cluster", "--config", str(config), "--force"]) == 0
        assert (len(eigh_calls), len(lloyd_runs)) == (0, 0)


# settings each refused when a config is built, whether from a file, by keyword
# or through dataclasses.replace
REFUSED_SETTINGS = {
    "seed": {"seed": -1},
    "truncate_chars": {"truncate_chars": -40},
    "label_sample_cap": {"label_sample_cap": 0},
    "max_attempts": {"max_attempts": 0},
    "max_in_flight": {"max_in_flight": 0},
    "sensitivity_deltas": {"sensitivity_deltas": []},
    "embed_dimension": {"embed_dimension": 0},
    "pca_dim": {"pca_dim": 0},
    "taxonomy_categories": {"taxonomy_categories": 0},
    "taxonomy_subclusters": {"taxonomy_subclusters": 0},
    "backoff_base": {"backoff_base": -0.5},
    "min_department_vacancies": {"min_department_vacancies": -1},
    "delta_string": {"delta": "0.5"},
    "theta_grid_string": {"theta_grid": "ab"},
    "sensitivity_deltas_string_item": {"sensitivity_deltas": [0.5, "1"]},
    "seed_float": {"seed": 1.5},
    "pca_dim_bool": {"pca_dim": True},
    "strict_fixtures_int": {"strict_fixtures": 1},
    "corpus_path_null": {"corpus_path": None},
    "population_total_nan": {"population_total": math.nan},
    "population_total_infinity": {"population_total": math.inf},
    "backoff_base_nan": {"backoff_base": math.nan},
    "population_total_beyond_float": {"population_total": 10**400},
    "theta_above_one": {"theta": 1.5},
    "new_tasks_fraction_zero": {"new_tasks_fraction": 0},
    "new_tasks_fraction_above_one": {"new_tasks_fraction": 1.5},
    "provider_unknown": {"provider": "other"},
    "provider_remote_without_url": {"provider": "remote", "remote_model": "chat"},
}


class TestCli:
    def test_success_exit_zero(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["all", "--config", str(config)]) == 0
        assert "report: built" in capsys.readouterr().out

    def test_flags_are_config_fields_and_reach_the_pipeline(self, tmp_path, monkeypatch):
        names = {field.name for field in fields(PipelineConfig)}
        own = {"stage", "config", "force", "verbose"}
        # "help" is argparse's own action
        dests = {action.dest for action in cli.build_parser()._actions} - {"help"}
        assert dests - own <= names and not own & names
        seen = []

        class Recorder:
            def __init__(self, config):
                seen.append(config)

            def run_stage(self, stage, force=False):
                return SimpleNamespace(stage=stage, reused=True, content_hash="0" * 64)

        monkeypatch.setattr(cli, "Pipeline", Recorder)
        argv = ["ingest", "--config", str(write_config(tmp_path))]
        assert main(argv + ["--theta", "0.5", "--delta", "0.6", "--seed", "3"]) == 0
        (config,) = seen
        assert (config.theta, config.delta, config.seed) == (0.5, 0.6, 3)

    def test_all_prints_each_stage_as_it_finishes(self, tmp_path, monkeypatch, capsys):
        def broken(pipeline):
            raise DataError("cluster broke")

        spec = pipeline_module._STAGE_BY_NAME["cluster"]
        monkeypatch.setitem(pipeline_module._STAGE_BY_NAME, "cluster", spec._replace(run=broken))
        assert main(["all", "--config", str(write_config(tmp_path))]) == 2
        out, err = capsys.readouterr()
        assert [line.split(":")[0] for line in out.splitlines()] == ["ingest", "extract", "weight"]
        assert err == "data error: cluster broke\n"

    def test_usage_error_exit_one_unknown_stage(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_usage_error_exit_one_bad_config_key(self, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps({"no_such_key": 1}))
        assert main(["ingest", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("flags", [["--delta", "1.5"], ["--seed", "-1"]], ids=["delta", "seed"])
    def test_usage_error_exit_one_bad_flag(self, tmp_path, flags):
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config), *flags]) == 1

    @pytest.mark.parametrize(
        "settings", list(REFUSED_SETTINGS.values()), ids=list(REFUSED_SETTINGS)
    )
    @pytest.mark.parametrize("entry", ["file", "keyword", "replace"])
    def test_usage_error_exit_one_before_any_stage_writes(self, tmp_path, capsys, entry, settings):
        if entry == "file":
            assert main(["all", "--config", str(write_config(tmp_path, **settings))]) == 1
            assert capsys.readouterr().err.count("\n") == 1
        else:
            with pytest.raises(UsageError):
                if entry == "keyword":
                    PipelineConfig(**settings)
                else:
                    replace(PipelineConfig.load(write_config(tmp_path)), **settings)
        assert not (tmp_path / "out").exists()

    def test_a_built_config_refuses_assignment(self):
        # so no setting reaches a stage without the checks a config is built with
        with pytest.raises(FrozenInstanceError):
            PipelineConfig().delta = 1.5

    def test_every_default_has_its_annotated_json_type(self):
        # every setting is checked against its annotation when a config is built
        PipelineConfig()

    def test_flag_and_keyword_values_are_stored_as_file_values_are(self):
        # -0.0 == 0.0 and lists compare in order, so the configs' JSON is compared
        plain = PipelineConfig(theta=0.0, delta=1.0, theta_grid=[0.5, 1.0], population_total=2.0)
        flagged = PipelineConfig.load(None, {"theta": -0.0, "delta": 1})
        unflagged = PipelineConfig(theta=0.0, delta=1.0)
        assert json.dumps(asdict(flagged)) == json.dumps(asdict(unflagged))
        keyword = PipelineConfig(theta=-0.0, delta=1, theta_grid=[1, 0.5, 1.0], population_total=2)
        assert json.dumps(asdict(keyword)) == json.dumps(asdict(plain))

    def test_integer_counts_as_a_number_in_config(self, tmp_path):
        config = PipelineConfig.load(write_config(tmp_path, delta=1, theta_grid=[0, 1]))
        assert config.delta == 1 and config.theta_grid == [0, 1]

    def test_integer_in_a_float_setting_makes_the_float_bytes(self, tmp_path):
        runs = []
        for name, one in (("integer", 1), ("float", 1.0)):
            base = tmp_path / name
            base.mkdir()
            config = write_config(base, delta=one, sensitivity_deltas=[0.5, one])
            assert main(["all", "--config", str(config)]) == 0
            runs.append((artifacts(base / "out"), manifests(base / "out")))
        assert runs[0] == runs[1]

    @settings(
        max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_list_settings_in_any_order_or_repetition_load_to_one_config(self, tmp_path, data):
        grid, deltas = [0.0, 0.25, 0.5, 0.8, 1.0], [0.5, 0.75, 1.0]

        def spelled(values: list, *aliases: float) -> list:
            # every value at least once, in any order, some repeated or spelled otherwise
            extra = data.draw(st.lists(st.sampled_from([*values, *aliases]), max_size=4))
            return data.draw(st.permutations([*values, *extra]))

        plain = PipelineConfig.load(
            write_config(tmp_path, theta=0.0, theta_grid=grid, sensitivity_deltas=deltas)
        )
        config = PipelineConfig.load(
            write_config(
                tmp_path,
                theta=data.draw(st.sampled_from([0.0, -0.0, 0])),
                theta_grid=spelled(grid, 1, -0.0),
                sensitivity_deltas=spelled(deltas, 1),
            )
        )
        assert config == plain
        # -0.0 == 0.0, so the stored values' text is compared too
        stored = (config.theta, config.theta_grid, config.sensitivity_deltas)
        assert repr(stored) == repr((0.0, grid, deltas))
        savings_stage = next(stage for stage in STAGE_TABLE if stage.name == "savings")
        fingerprints = {Pipeline(c)._fingerprint(savings_stage, {}) for c in (config, plain)}
        assert len(fingerprints) == 1

    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[]")
        assert main(["all", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(config) in err
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("field", ["out_dir", "cache_dir"])
    def test_directory_that_cannot_be_created_is_usage_error(self, tmp_path, capsys, field):
        blocker = tmp_path / "a file"
        blocker.write_text("")
        config = write_config(tmp_path, **{field: str(blocker / "below")})
        assert main(["all", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(blocker / "below") in err
        # no stage wrote
        assert sorted(path.name for path in tmp_path.rglob("*") if path.is_file()) == [
            "a file",
            "config.json",
        ]

    def test_data_error_exit_two_missing_corpus(self, tmp_path):
        config = write_config(tmp_path, corpus_path=str(tmp_path / "nowhere.jsonl"))
        assert main(["ingest", "--config", str(config)]) == 2

    def test_provider_error_exit_three(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["extract", "--config", str(config)]) == 0
        assert main(["weight", "--config", str(config)]) == 0

        # same configuration, but the embedding service dies mid-pipeline
        from taskshift.errors import ProviderError
        from taskshift.gateway.providers import MockProvider

        def broken_embed(self, texts):
            raise ProviderError("embedding service down")

        monkeypatch.setattr(MockProvider, "embed", broken_embed)
        assert main(["cluster", "--config", str(config)]) == 3

    def test_nan_embedding_exit_three(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        for stage in ("ingest", "extract", "weight"):
            assert main([stage, "--config", str(config)]) == 0

        from taskshift.gateway.providers import MockProvider

        real_embed = MockProvider.embed

        def nan_embed(self, texts):
            vectors = real_embed(self, texts)
            vectors[0, 0] = math.nan
            return vectors

        monkeypatch.setattr(MockProvider, "embed", nan_embed)
        assert main(["cluster", "--config", str(config)]) == 3

    def test_program_entry_freezes_before_main(self):
        probe = (
            "import gc, sys; from taskshift import cli; "
            "cli.main = lambda: print(gc.get_freeze_count()) or 0; sys.exit(cli.run())"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) > 0

    def test_main_leaves_gc_state_alone(self, tmp_path):
        # freezing here would pin every live object of the caller for good
        before = gc.get_freeze_count()
        assert main(["all", "--config", str(write_config(tmp_path))]) == 0
        assert gc.get_freeze_count() == before

    def test_console_script_is_the_program_entry(self):
        tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text("utf-8"))["project"]["scripts"]
        assert scripts == {"taskshift": "taskshift.cli:run"}

    def test_import_leaves_out_http_client(self):
        # the HTTP stack (urllib.request pulls in http.client, ssl and email)
        # is imported only when a remote provider makes a call
        probe = "import sys, taskshift.cli; print('urllib.request' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"

    @staticmethod
    def loaded_after_full_run(tmp_path: Path, module: str) -> str:
        """The exit code of a fixture ``all`` run in a child, and whether it imported ``module``."""
        config = write_config(tmp_path)
        probe = (
            "import sys; from taskshift.cli import main; "
            f"code = main(['all', '--config', {str(config)!r}]); "
            f"print(code, {module!r} in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.strip().splitlines()[-1]

    def test_full_run_leaves_out_numpy_ma(self, tmp_path):
        # np.unique(..., axis=0) imports numpy.ma; the pipeline only needs a
        # count of distinct rows and should not pay for that import
        assert self.loaded_after_full_run(tmp_path, "numpy.ma") == "0 False"

    def test_full_run_leaves_out_the_thread_pool(self, tmp_path):
        # only providers that wait on the network start a pool; for the
        # others concurrent.futures would cost resident memory and nothing else
        assert self.loaded_after_full_run(tmp_path, "concurrent.futures") == "0 False"

    def test_empty_theta_grid_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, theta_grid=[])
        with pytest.raises(UsageError, match="theta grid must hold at least one value"):
            PipelineConfig.load(config)
        assert main(["all", "--config", str(config)]) == 1
        assert capsys.readouterr().err.count("\n") == 1

    def test_off_grid_theta_reports_savings_and_sensitivity_at_theta(self, tmp_path):
        # savings sweeps the grid with theta on it, so its summary, the sensitivity
        # rows and redesign's eligible roles all describe theta itself
        config = write_config(tmp_path, theta_grid=[0.0, 0.5, 1.0])
        assert main(["all", "--config", str(config), "--theta", "0.55"]) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "savings_summary.json").read_text())
        assert summary["theta"] == 0.55
        sweep = {row["theta"]: row for row in read_jsonl(out / "sweep.jsonl")}
        assert list(sweep) == [0.0, 0.5, 0.55, 1.0]
        for field in ("cost_reduction", "productivity_gain", "n_cost", "n_productivity"):
            assert summary[field] == sweep[0.55][field], field
        theta = summary["theta"]
        at_theta = {
            row["delta"]: row for row in read_jsonl(out / "sensitivity.jsonl") if row["theta"] == theta
        }
        deltas = sorted(at_theta)
        assert len(deltas) == 3
        with (out / "report" / "decay_sensitivity.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["saving_type"] + [f"delta_{delta}" for delta in deltas]
        assert len(rows) == 4
        for saving, *cells in rows[1:]:
            assert cells == [str(round(at_theta[delta][saving])) for delta in deltas]

    def test_single_stage_requires_upstream(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["weight", "--config", str(config)]) == 2

    def test_missing_fixtures_file_is_usage_error(self, tmp_path):
        config = write_config(tmp_path, fixtures_path=str(tmp_path / "absent.json"))
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["extract", "--config", str(config)]) == 1

    def test_fixtures_file_that_is_not_an_object_is_data_error(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text("[]")
        config = write_config(tmp_path, fixtures_path=str(fixtures))
        assert main(["all", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(fixtures) in err
        # an empty object still means no fixtures
        fixtures.write_text("{}")
        assert main(["all", "--config", str(config)]) == 0

    def test_corpus_line_that_is_not_an_object_is_an_ingest_issue(self, tmp_path, data_dir):
        lines = (data_dir / "corpus.jsonl").read_text("utf-8").splitlines()
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join([*lines, "[1, 2]"]) + "\n", "utf-8")
        config = write_config(tmp_path, corpus_path=str(corpus))
        assert main(["ingest", "--config", str(config)]) == 0
        issues = json.loads((tmp_path / "out" / "ingest_issues.json").read_text("utf-8"))
        assert {
            "line": len(lines) + 1,
            "vacancy_id": None,
            "reason": "record is not an object",
        } in issues["issues"]

    @pytest.mark.parametrize("name", ["salary.csv", "grade_totals.csv"])
    @pytest.mark.parametrize(
        "last_row", [b"HO\n", b"HO,\xff\n"], ids=["one_cell", "not_utf8"]
    )
    def test_bad_reference_row_is_data_error_naming_its_line(
        self, tmp_path, data_dir, capsys, name, last_row
    ):
        table = tmp_path / name
        original = (data_dir / name).read_bytes()
        table.write_bytes(original + last_row)
        line = original.count(b"\n") + 1
        config = write_config(tmp_path, **{f"{name[:-4]}_path": str(table)})
        assert main(["all", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{table}:{line}:" in err

    @pytest.mark.parametrize("field", ["grade_map_path", "vocab_path"])
    def test_table_file_that_is_not_an_object_is_data_error(self, tmp_path, capsys, field):
        table = tmp_path / "table.json"
        table.write_text("[]")
        config = write_config(tmp_path, **{field: str(table)})
        assert main(["all", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(table) in err

    def test_fixtures_file_not_utf8_is_data_error_on_one_line(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_bytes(b"\xff\xfe{}")
        config = write_config(tmp_path, fixtures_path=str(fixtures))
        assert main(["all", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(fixtures) in err and "UTF-8" in err

    @pytest.mark.parametrize(
        "field", ["corpus_path", "stopwords_path", "grade_map_path", "vocab_path", "fixtures_path", "config"]
    )
    def test_input_file_not_utf8_is_one_line_before_any_stage_writes(
        self, tmp_path, data_dir, capsys, field
    ):
        path = tmp_path / f"{field}.input"
        line = 1
        if field == "corpus_path":
            # a Latin-1 é in the third advert's description
            rows = (data_dir / "corpus.jsonl").read_bytes().splitlines(keepends=True)
            rows[2] = rows[2].replace(b'"job_description": "', b'"job_description": "\xe9', 1)
            path.write_bytes(b"".join(rows))
            line = 3
        else:
            # a UTF-16 byte order mark
            path.write_bytes(b"\xff\xfe{}\n")
        config = write_config(tmp_path, **({} if field == "config" else {field: str(path)}))
        if field == "config":
            path = config
            path.write_bytes(b"\xff\xfe" + config.read_bytes())
        assert main(["all", "--config", str(config)]) == (1 if field == "config" else 2)
        assert list((tmp_path / "out").rglob("*")) == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}:{line}: " in err and "Traceback" not in err

    def test_input_path_that_is_a_directory_is_data_error_on_one_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        config = write_config(tmp_path, corpus_path=str(corpus))
        assert main(["all", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(corpus) in err
