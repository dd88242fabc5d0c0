import csv
import hashlib
import itertools
import json
import math
import subprocess
import sys
from collections import Counter
import socket
from dataclasses import fields
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
    pipeline.run_all()
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
        # report's own outputs; they do not depend on the out or cache paths
        expected = {
            "ingest": "dddea08482f45740d7629f70325071b5b650087831f29627c7e1da7396b4a452",
            "extract": "05e5018da564b03448a7574a1c17e0724fbaa0b4d759cbe6af45139df17f6ce4",
            "weight": "3c927ded5d21d37425d12ddbebd0ee14e50bc9cccbca8acc47707dcca448e228",
            "cluster": "871101eefd566161fc8b1eb67b24eb5febcbb60f759fca98d5604e0740911fa6",
            "rake": "a6d54680c87c30d2d2ce1705f20e7eeb632ea9d496cc1429ee9ffe77d47f96b1",
            "savings": "4059bfcbd08dd695a301555858d00777f295a3dd648c9a42131202c615e30a89",
            "redesign": "df83dbb57d4928ac6c64a35524946c6165d4d9169e73bebb75773c2a83018df1",
            "report": "8552004db0272d0a78b9cda97b2c8204d85548551a1c0f760440c1aa0260153c",
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
        undeclared = {}
        for stage in STAGE_TABLE:
            read: set = set()
            pipeline.config = FieldRecorder(fixture_config, read)
            stage.run(pipeline)
            undeclared[stage.name] = read - set(stage.params)
        assert undeclared == {stage.name: set() for stage in STAGE_TABLE}

    def test_every_config_field_is_declared_or_cannot_change_an_output(self):
        names = {field.name for field in fields(PipelineConfig)}
        declared = {name for stage in STAGE_TABLE for name in stage.params}
        assert declared <= names, declared - names
        identity: set = set()
        for provider in ("mock", "remote"):
            config = FieldRecorder(PipelineConfig(provider=provider), identity)
            pipeline_module._provider_params(config, lambda path: "")
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
        built = pipeline_module.make_manager(config, lambda path: "digest").provider
        params = pipeline_module._provider_params(config, lambda path: "digest")
        assert params.pop("provider") == provider
        if provider == "mock":
            assert params.pop("fixtures") == "digest"
            assert built.fixtures == json.loads(fixtures.read_text())
        assert {name: getattr(built, name) for name in params} == params
        # the constructor's other fields cannot change an answer
        unhashed = {field.name for field in fields(built)} - set(params)
        assert unhashed == (
            {"fixtures", "calls", "embed_calls"}
            if provider == "mock"
            else {"api_key_env", "timeout"}
        )


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

    def test_downstream_refuses_until_stale_upstream_rerun(self, tmp_path):
        config = PipelineConfig.load(write_config(tmp_path))
        run_all(config)
        changed = PipelineConfig.load(write_config(tmp_path, delta=1.0))
        pipeline = Pipeline(changed)
        # savings depends on weight, which was built under the old delta
        with pytest.raises(DataError, match="different parameters"):
            pipeline.run_stage("savings")

    def test_pinned_fixture_not_shadowed_by_cached_answer(self, tmp_path):
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
        assert not pipeline.run_stage("extract").reused
        assert pipeline.manager.provider.calls > 0
        tasks = read_jsonl(out / "tasks.jsonl")
        assert [row["task_details"] for row in tasks if row["vacancy_id"] == "V001"] == pinned

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
        assert hashed and max(hashed.values()) == 1, hashed.most_common(3)
        first = set(hashed)
        hashed.clear()
        rerun = Pipeline(fixture_config)
        assert all(artifact.reused for artifact in rerun.run_all())
        assert set(hashed) == first and max(hashed.values()) == 1, hashed.most_common(3)

    def test_fixtures_file_hashed_at_most_once_per_pipeline(self, tmp_path, monkeypatch):
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps({"0" * 64: {"tasks": []}}))
        config = PipelineConfig.load(write_config(tmp_path, fixtures_path=str(fixtures)))
        hashed: Counter = Counter()
        original = pipeline_module._sha256_file

        def counting(path):
            hashed[Path(path)] += 1
            return original(path)

        monkeypatch.setattr(pipeline_module, "_sha256_file", counting)
        pipeline = run_all(config)
        assert pipeline.manager.provider.fixtures
        assert hashed[fixtures] == 1 and max(hashed.values()) == 1, hashed.most_common(3)

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

    def test_manifests_are_written_as_indented_json_with_a_trailing_newline(self, fixture_config):
        run_all(fixture_config)
        for path in (Path(fixture_config.out_dir) / "manifests").iterdir():
            text = path.read_text("utf-8")
            assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n", path.name


class TestReportRoundTrip:
    @pytest.fixture
    def out_dir(self, fixture_config):
        run_all(fixture_config)
        return Path(fixture_config.out_dir)

    def read_csv(self, path):
        with path.open() as handle:
            return list(csv.DictReader(handle))

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
        rebuilt = list(pipeline._read_profiles("roles.jsonl", "task_weights.jsonl"))
        built = list(pipeline._read_profiles("vacancies.jsonl", "tasks.jsonl"))
        assert len(built) == 10
        assert sum(profile.salary is None for profile in built) == 2
        assert rebuilt == built


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
    def test_warm_rerun_makes_no_embedding_calls(self, tmp_path):
        cache, first, second = tmp_path / "cache", tmp_path / "out1", tmp_path / "out2"
        cold = run_to_cluster(PipelineConfig.load(write_config(tmp_path, out_dir=str(first))))
        assert cold.manager.provider.embed_calls > 0
        files = sorted(cache.iterdir())
        warm = run_to_cluster(PipelineConfig.load(write_config(tmp_path, out_dir=str(second))))
        assert warm.manager.provider.embed_calls == 0
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
    """``taskshift all`` on ``config`` in a child process.

    With one BLAS thread each: two children that each spin two OpenBLAS
    threads on two cores can take seconds instead of half of one.
    """
    return subprocess.Popen(
        [sys.executable, "-m", "taskshift.cli", "all", "--config", str(config)],
        env=child_env(OPENBLAS_NUM_THREADS="1"),
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
                return SimpleNamespace(reused=True, content_hash="0" * 64)

        monkeypatch.setattr(cli, "Pipeline", Recorder)
        argv = ["ingest", "--config", str(write_config(tmp_path))]
        assert main(argv + ["--theta", "0.5", "--delta", "0.6", "--seed", "3"]) == 0
        (config,) = seen
        assert (config.theta, config.delta, config.seed) == (0.5, 0.6, 3)

    def test_usage_error_exit_one_unknown_stage(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_usage_error_exit_one_bad_config_key(self, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps({"no_such_key": 1}))
        assert main(["ingest", "--config", str(bad)]) == 1

    def test_usage_error_exit_one_bad_delta(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config), "--delta", "1.5"]) == 1

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

    def test_off_grid_theta_reports_sensitivity_at_the_savings_grid_point(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["all", "--config", str(config), "--theta", "0.82"]) == 0
        out = tmp_path / "out"
        theta = json.loads((out / "savings_summary.json").read_text())["theta"]
        assert theta == 0.8
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
