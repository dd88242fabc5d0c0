"""Staged pipeline driver with content-addressed, resumable artifacts.

Each stage writes deterministic line-delimited outputs plus a manifest
recording input hashes, a parameter fingerprint and output hashes.
Downstream stages verify upstream manifests before running; a rerun with
unchanged inputs and parameters is a no-op, and any upstream content or
parameter change invalidates everything below it.

``STAGE_TABLE`` at the end of this module is the single place where a
stage is declared: the stages whose outputs it opens, the files it
writes and the ``PipelineConfig`` fields it reads, by their own names,
next to the method that runs it. The manifest machinery reads nothing
else.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import logging
import math
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterator

import orjson

from . import clustering, redesign, savings
from .config import PipelineConfig
from .corpus import (
    OTHER_PROFESSION,
    GradeBucket,
    Vacancy,
    join_salary,
    load_grade_map,
    load_reference_tables,
    load_vocabulary,
    parse_vacancies,
)
from .errors import DataError, UsageError
from .exposure import Band, RoleProfile, build_profile, extract_corpus, task_record
from .gateway import BatchManager, HttpProvider, MockProvider, ResponseCache, RetryPolicy
from .raking import (
    SampleRow,
    WeightedSample,
    append_other_depts,
    build_marginals,
    collapse_unsampled,
    rake,
    scale_to_population,
)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Stage:
    """One pipeline stage.

    ``params`` names the ``PipelineConfig`` fields the stage reads. Its
    fingerprint covers the value of each, except that a ``*_path`` field
    stands for the contents of its file (an unset path is left out); the
    output hashes of every stage in ``deps``, the stages whose outputs it
    opens; and, for a stage that asks the provider (``provider``), the
    provider identity of ``_provider_params``. ``run(pipeline)`` must write
    each of ``outputs`` under the output directory.
    """

    name: str
    deps: tuple[str, ...]
    outputs: tuple[str, ...]
    params: tuple[str, ...]
    run: Callable[["Pipeline"], None]
    provider: bool = False


@dataclass(frozen=True)
class StageArtifact:
    stage: str
    content_hash: str
    outputs: dict[str, str]
    reused: bool = False

    @classmethod
    def from_manifest(cls, manifest: dict, reused: bool) -> "StageArtifact":
        return cls(
            stage=manifest["stage"],
            content_hash=manifest["content_hash"],
            outputs=dict(manifest["outputs"]),
            reused=reused,
        )


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _canonical(data: object) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# the encoder ``json.dumps(record, sort_keys=True)`` would build for every row
_ROW_ENCODER = json.JSONEncoder(sort_keys=True)


@contextlib.contextmanager
def _replacing(path: Path, newline: str | None = None) -> Iterator[IO[str]]:
    """Write ``path`` through ``.<name>.<pid>.tmp`` beside it, renamed into place, so
    a reader or a concurrent run sees the old file or the whole new one. On an
    error the temporary file is removed and the target keeps its old bytes.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_jsonl(path: Path, records: list[dict]) -> None:
    with _replacing(path, newline="\n") as handle:
        for record in records:
            handle.write(_ROW_ENCODER.encode(record))
            handle.write("\n")


def decode_own(text: str | bytes) -> object:
    """Decode JSON that this program wrote itself, as ``json.loads`` would.

    orjson decodes what it accepts; what it rejects (``NaN`` and
    ``Infinity``, escaped lone surrogates) goes to ``json.loads``, which
    decodes or rejects it as before. orjson also turns an integer outside
    [-2**63, 2**64) into a float without a word, so JSON from outside the
    program stays on ``json.loads``: the corpus, provider payloads,
    fixtures, config and manifests. In a payload such an integer would fail
    validation as a ``TypeMismatch`` instead of a ``RangeViolation``; in the
    corpus an integer ``vacancy_id`` would become a float string. The
    program's own artifacts hold no such integer: theirs are counts,
    positions and task numbers, and a new-task number outside that range is
    refused when the answer is checked.
    """
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        return json.loads(text)


def iter_jsonl(path: Path) -> Iterator[dict]:
    """Decode one row at a time, so that a reader keeps only what it uses."""
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield decode_own(line)


def read_jsonl(path: Path) -> list[dict]:
    return list(iter_jsonl(path))


def iter_groups(path: Path) -> Iterator[tuple[str, list[dict]]]:
    """Each ``vacancy_id`` of a key-ordered table with its run of rows, one run at a time.

    A key that goes backwards or repeats, or a task number that does not
    increase within a run, is a ``DataError``: a tampered table is
    reported, not misjoined.
    """
    key, run = None, []
    for row in iter_jsonl(path):
        vacancy_id = row["vacancy_id"]
        number = row.get("task_number")
        if vacancy_id == key and number is not None and run[-1]["task_number"] < number:
            run.append(row)
            continue
        if run:
            if not key < vacancy_id:
                raise DataError(f"{path.name} is out of key order at vacancy {vacancy_id!r}")
            yield key, run
        key, run = vacancy_id, [row]
    if run:
        yield key, run


def iter_joined(roles: Path, tasks: Path) -> Iterator[tuple[dict, list[dict]]]:
    """Each role row with its task rows, by a merge of two key-ordered tables.

    A role with no tasks (extract drops a role whose answers held none) is
    skipped; tasks whose role is missing are a ``DataError``.
    """
    role_groups = iter_groups(roles)
    for vacancy_id, task_rows in iter_groups(tasks):
        role_id, (role,) = next((g for g in role_groups if g[0] >= vacancy_id), (None, [None]))
        if role_id != vacancy_id:
            raise DataError(f"{tasks.name} holds vacancy {vacancy_id!r}, which {roles.name} lacks")
        yield role, task_rows


def write_json(path: Path, data: object) -> None:
    """Write ``data`` as indented JSON, a piece at a time rather than as one string."""
    with _replacing(path) as handle:
        json.dump(data, handle, sort_keys=True, indent=1)
        handle.write("\n")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with _replacing(path, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def make_manager(config: PipelineConfig, hash_file: Callable[[Path], str]) -> BatchManager:
    settings = _provider_settings(config)
    if config.provider == "mock":
        fixtures = {}
        if config.fixtures_path:
            try:
                fixtures = json.loads(Path(config.fixtures_path).read_text("utf-8"))
            except OSError as exc:
                raise UsageError(f"cannot read fixtures {config.fixtures_path}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise DataError(
                    f"fixtures {config.fixtures_path} are not valid JSON: {exc.msg}"
                ) from exc
        provider = MockProvider(fixtures=fixtures, **settings)
    else:
        provider = HttpProvider(api_key_env=config.api_key_env, **settings)
    policy = RetryPolicy(
        max_attempts=config.max_attempts,
        max_in_flight=config.max_in_flight,
        backoff_base=config.backoff_base,
    )
    # cached answers are replayed only for the provider identity that gave them
    identity = _canonical(_provider_params(config, hash_file))
    scope = hashlib.sha256(identity.encode("utf-8")).hexdigest()
    cache = ResponseCache(config.cache_dir, scope=scope)
    return BatchManager(provider, cache=cache, policy=policy)


def _provider_settings(config: PipelineConfig) -> dict:
    """The provider's answer-changing constructor arguments, which ``_provider_params`` hashes."""
    if config.provider == "mock":
        return {"strict": config.strict_fixtures, "dimension": config.embed_dimension}
    return {
        "base_url": config.remote_base_url,
        "model": config.remote_model,
        "embed_model": config.remote_embed_model,
        "temperature": config.remote_temperature,
        "max_tokens": config.remote_max_tokens,
    }


def _provider_params(config: PipelineConfig, hash_file: Callable[[Path], str]) -> dict:
    params: dict = {"provider": config.provider, **_provider_settings(config)}
    if config.provider == "mock" and config.fixtures_path:
        fixtures = Path(config.fixtures_path)
        if not fixtures.exists():
            raise UsageError(f"fixtures file not found: {fixtures}")
        params["fixtures"] = hash_file(fixtures)
    return params


class Pipeline:
    def __init__(self, config: PipelineConfig):
        config.validate()
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.manifest_dir = self.out_dir / "manifests"
        self._manager: BatchManager | None = None
        self._digests: dict[Path, tuple[tuple[int, int], str]] = {}

    # -- manifest machinery -------------------------------------------------

    def _manifest_path(self, stage: str) -> Path:
        return self.manifest_dir / f"{stage}.json"

    def _load_manifest(self, stage: str) -> dict | None:
        path = self._manifest_path(stage)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text("utf-8"))
        except ValueError:
            log.warning("manifest %s is unreadable; treating stage %s as not run", path, stage)
            return None

    def _hash(self, path: Path) -> str:
        """SHA-256 of a file, read once per ``Pipeline`` while it is unchanged.

        A file counts as unchanged while its size and modification time in
        nanoseconds are. An edit that keeps both (same size, within one
        timestamp tick) while this object is in use goes unseen until the
        next invocation, which starts with an empty memo.
        """
        stat = path.stat()
        key = (stat.st_size, stat.st_mtime_ns)
        known = self._digests.get(path)
        if known is not None and known[0] == key:
            return known[1]
        digest = _sha256_file(path)
        self._digests[path] = (key, digest)
        return digest

    def _outputs_valid(self, manifest: dict) -> bool:
        for name, expected in manifest["outputs"].items():
            path = self.out_dir / name
            if not path.exists() or self._hash(path) != expected:
                return False
        return True

    def _collect_inputs(self, stage: Stage, _memo: dict | None = None) -> dict[str, str]:
        if _memo is None:
            _memo = {}
        if stage.name in _memo:
            return _memo[stage.name]
        inputs = {}
        for name in stage.params:
            raw = getattr(self.config, name)
            if not name.endswith("_path") or not raw:
                continue
            path = Path(raw)
            if not path.exists():
                raise DataError(f"input file for stage {stage.name!r} missing: {path}")
            inputs[f"file:{name}"] = self._hash(path)
        for dep in stage.deps:
            manifest = self._load_manifest(dep)
            if manifest is None:
                raise DataError(f"stage {stage.name!r} needs {dep!r}, which has not been run")
            if not self._outputs_valid(manifest):
                raise DataError(
                    f"stage {stage.name!r} refuses to run: upstream {dep!r} outputs do not "
                    "match their manifest (stale or modified); rerun the upstream stage"
                )
            upstream = _STAGE_BY_NAME[dep]
            expected = self._fingerprint(upstream, self._collect_inputs(upstream, _memo))
            if expected != manifest["params_fingerprint"]:
                raise DataError(
                    f"stage {stage.name!r} refuses to run: upstream {dep!r} was built with "
                    "different parameters or inputs than the current configuration; "
                    "rerun the upstream stage first"
                )
            for name, digest in manifest["outputs"].items():
                inputs[f"{dep}:{name}"] = digest
        _memo[stage.name] = inputs
        return inputs

    def _fingerprint(self, stage: Stage, inputs: dict[str, str]) -> str:
        params = {
            name: getattr(self.config, name)
            for name in stage.params
            if not name.endswith("_path")
        }
        if stage.provider:
            params.update(_provider_params(self.config, self._hash))
        blob = _canonical(
            {
                "stage": stage.name,
                "schema_version": SCHEMA_VERSION,
                "params": params,
                "inputs": inputs,
            }
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @property
    def manager(self) -> BatchManager:
        if self._manager is None:
            self._manager = make_manager(self.config, self._hash)
        return self._manager

    def run_stage(self, stage: str, force: bool = False) -> StageArtifact:
        """Run one stage, or no-op when its fingerprint already matches."""
        spec = _STAGE_BY_NAME.get(stage)
        if spec is None:
            raise UsageError(f"unknown stage {stage!r}; expected one of {STAGES}")
        inputs = self._collect_inputs(spec)
        fingerprint = self._fingerprint(spec, inputs)

        existing = self._load_manifest(stage)
        if (
            not force
            and existing is not None
            and existing["params_fingerprint"] == fingerprint
            and self._outputs_valid(existing)
        ):
            log.info("stage %s is up to date; skipping", stage)
            return StageArtifact.from_manifest(existing, reused=True)

        spec.run(self)

        outputs = {}
        for name in spec.outputs:
            path = self.out_dir / name
            if not path.exists():
                raise DataError(f"stage {stage!r} did not produce {name}")
            # hashed afresh; the memo then serves later checks of this output
            self._digests.pop(path, None)
            outputs[name] = self._hash(path)
        content_hash = hashlib.sha256(_canonical(outputs).encode("utf-8")).hexdigest()
        manifest = {
            "stage": stage,
            "schema_version": SCHEMA_VERSION,
            "params_fingerprint": fingerprint,
            "inputs": inputs,
            "outputs": outputs,
            "content_hash": content_hash,
            "produced_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        write_json(self._manifest_path(stage), manifest)
        return StageArtifact.from_manifest(manifest, reused=False)

    def run_all(self, force: bool = False) -> list[StageArtifact]:
        return [self.run_stage(stage, force=force) for stage in STAGES]

    # -- shared readers ------------------------------------------------------

    def _read_profiles(self, roles: str, tasks: str) -> Iterator[RoleProfile]:
        """Join a role table with its task table by ``vacancy_id``, at ``config.delta``.

        Weight joins vacancies with tasks; redesign and report join weight's
        own tables, so no stage after weight decodes a job description.
        The join is a merge (``iter_joined``): profiles are built one at a
        time in ``vacancy_id`` order, and one role's rows are held at a time.
        """
        for role, rows in iter_joined(self.out_dir / roles, self.out_dir / tasks):
            records = [
                task_record(row["task_number"], row["task_details"], row["exposure_score"])
                for row in rows
            ]
            yield build_profile(role, records, self.config.delta)

    # -- stage bodies ---------------------------------------------------------

    def _run_ingest(self) -> None:
        config = self.config
        vocab = load_vocabulary(config.vocab_path) if config.vocab_path else None
        parsed = parse_vacancies(
            config.corpus_path,
            load_grade_map(config.grade_map_path) if config.grade_map_path else None,
            vocab=vocab,
        )
        counts = Counter(vacancy.department for vacancy in parsed.vacancies)
        small = {
            dept for dept, n in counts.items() if n < config.min_department_vacancies
        }
        kept = [v for v in parsed.vacancies if v.department not in small]
        ref = load_reference_tables(
            config.fte_path,
            config.salary_path,
            config.grade_totals_path,
            config.profession_totals_path,
            population_total=config.population_total,
            vocab=vocab,
        )
        records = []
        for vacancy in sorted(kept, key=lambda v: v.vacancy_id):
            record = vacancy.to_record()
            record["salary"] = join_salary(vacancy, ref)
            records.append(record)
        write_jsonl(self.out_dir / "vacancies.jsonl", records)
        write_json(
            self.out_dir / "ingest_issues.json",
            {
                "parsed": len(parsed.vacancies),
                "kept": len(kept),
                "filtered_departments": sorted(small),
                "issues": [
                    {"line": issue.line_number, "vacancy_id": issue.vacancy_id, "reason": issue.reason}
                    for issue in parsed.issues
                ],
            },
        )

    def _run_extract(self) -> None:
        vacancies = [Vacancy.from_record(r) for r in iter_jsonl(self.out_dir / "vacancies.jsonl")]
        cap = self.config.truncate_chars
        if cap:
            for vacancy in vacancies:
                vacancy.job_description = vacancy.job_description[:cap]
                vacancy.job_summary = vacancy.job_summary[:cap]
        result = extract_corpus(vacancies, self.manager)
        rows = [
            {
                "vacancy_id": vacancy_id,
                "task_number": task.task_number,
                "task_details": task.task_details,
                "exposure_score": task.exposure,
            }
            for vacancy_id in sorted(result.tasks_by_vacancy)
            for task in result.tasks_by_vacancy[vacancy_id]
        ]
        write_jsonl(self.out_dir / "tasks.jsonl", rows)
        for report in result.reports:
            log.info(
                "extraction batch: %d submitted, %d ok, %d tokens in, %d out (%d cache hits)",
                report.submitted,
                report.succeeded,
                report.input_tokens,
                report.output_tokens,
                report.cache_hits,
            )
        # token and cache-hit counts are advisory and vary with cache warmth,
        # so they stay out of the hashed artifact
        write_json(
            self.out_dir / "extract_summary.json",
            {
                "roles_in": len(vacancies),
                "roles_with_tasks": len(result.tasks_by_vacancy),
                "dropped": [
                    {"vacancy_id": vacancy_id, "reason": reason}
                    for vacancy_id, reason in sorted(result.dropped)
                ],
                "batches": [
                    {
                        "submitted": report.submitted,
                        "succeeded": report.succeeded,
                        "failed": sorted(report.failed),
                    }
                    for report in result.reports
                ],
            },
        )

    def _run_weight(self) -> None:
        role_rows, task_rows = [], []
        for profile in self._read_profiles("vacancies.jsonl", "tasks.jsonl"):
            aggregates = profile.aggregates
            role_rows.append(
                {
                    "vacancy_id": profile.vacancy_id,
                    "title": profile.title,
                    "department": profile.department,
                    "grade": profile.grade,
                    "profession": profile.profession,
                    "salary": profile.salary,
                    "delta": profile.delta,
                    "exposure_mean": aggregates.mean,
                    "exposure_std": aggregates.std,
                    "high_share": aggregates.high_share,
                    "medium_share": aggregates.medium_share,
                    "task_count": len(profile.tasks),
                }
            )
            values = aggregates.value_per_task or [None] * len(profile.tasks)
            for task, weight, hours, value in zip(
                profile.tasks, profile.weights.normalized, aggregates.hours_per_task, values
            ):
                task_rows.append(
                    {
                        "vacancy_id": profile.vacancy_id,
                        "task_number": task.task_number,
                        "task_details": task.task_details,
                        "exposure_score": task.exposure,
                        "band": task.band.value,
                        "high": task.high,
                        "weight": weight,
                        "hours": hours,
                        "value": value,
                    }
                )
        write_jsonl(self.out_dir / "roles.jsonl", role_rows)
        write_jsonl(self.out_dir / "task_weights.jsonl", task_rows)

    def _run_cluster(self) -> None:
        config = self.config
        store = self.manager.arrays
        before = store.replayed, store.computed
        self._write_role_clusters()
        stopwords = clustering.load_stopwords(config.stopwords_path)
        # one (vacancy_id, task_number) key and one normalised text per task
        # row; task texts repeat across roles (reposted template duties), so
        # each distinct text is normalised once
        keys: list[tuple[str, int]] = []
        normalized: list[str] = []
        normalized_of: dict[str, str] = {}
        for row in iter_jsonl(self.out_dir / "task_weights.jsonl"):
            text = row["task_details"]
            if text not in normalized_of:
                normalized_of[text] = clustering.normalize_text(text, stopwords)
            keys.append((row["vacancy_id"], row["task_number"]))
            normalized.append(normalized_of[text])
        del normalized_of  # the raw texts
        unique = sorted({text for text in normalized if text})
        taxonomy, projection = clustering.build_taxonomy(
            unique,
            self.manager,
            seed=config.seed,
            n_categories=config.taxonomy_categories,
            n_subclusters=config.taxonomy_subclusters,
            pca_dim=config.pca_dim,
            sample_cap=config.label_sample_cap,
        )
        index_of = {text: index for index, text in enumerate(unique)}
        rows = []
        for (vacancy_id, task_number), text in zip(keys, normalized):
            if text:
                category, subcategory = taxonomy.assignments[index_of[text]]
                category_label, subcategory_label = taxonomy.label_of(index_of[text])
            else:
                category, subcategory = -1, -1
                category_label = subcategory_label = clustering.UNCATEGORIZED
            rows.append(
                {
                    "vacancy_id": vacancy_id,
                    "task_number": task_number,
                    "category": category,
                    "category_label": category_label,
                    "subcategory": subcategory,
                    "subcategory_label": subcategory_label,
                }
            )
        write_jsonl(self.out_dir / "taxonomy.jsonl", rows)
        write_json(self.out_dir / "projection.json", projection.to_dict())
        log.info(
            "cluster: %d PCA and k-means results replayed from the cache, %d computed",
            store.replayed - before[0],
            store.computed - before[1],
        )

    def _write_role_clusters(self) -> None:
        vacancy_ids, points = [], []
        for row in iter_jsonl(self.out_dir / "roles.jsonl"):
            vacancy_ids.append(row["vacancy_id"])
            points.append((row["exposure_mean"], row["exposure_std"]))
        clusters = clustering.cluster_roles(
            points, seed=self.config.seed, store=self.manager.arrays
        )
        write_jsonl(
            self.out_dir / "role_clusters.jsonl",
            [
                {"vacancy_id": vacancy_id, "cluster": label.value}
                for vacancy_id, label in zip(vacancy_ids, clusters.labels)
            ],
        )

    def _run_rake(self) -> None:
        config = self.config
        ref = load_reference_tables(
            config.fte_path,
            config.salary_path,
            config.grade_totals_path,
            config.profession_totals_path,
            population_total=config.population_total,
        )
        marginals = build_marginals(ref)
        known_professions = set(marginals.targets["profession"])
        rows = []
        dropped_unmapped = 0
        for role in iter_jsonl(self.out_dir / "roles.jsonl"):
            if role["grade"] == GradeBucket.UNMAPPED.value:
                dropped_unmapped += 1
                continue
            profession = role["profession"]
            rows.append(
                SampleRow(
                    role_key=role["vacancy_id"],
                    department=role["department"],
                    grade=role["grade"],
                    profession=profession if profession in known_professions else OTHER_PROFESSION,
                )
            )
        if not rows:
            raise DataError("no rakeable roles (all grades unmapped?)")
        sample = WeightedSample.unit(rows)
        marginals = collapse_unsampled(marginals, sample, "profession", OTHER_PROFESSION)
        sample = append_other_depts(sample, marginals)
        raked = rake(sample, marginals)
        scaled = scale_to_population(raked, marginals.population_total)
        write_jsonl(
            self.out_dir / "raked_weights.jsonl",
            sorted(
                (
                    {
                        "role_key": row.role_key,
                        "department": row.department,
                        "grade": row.grade,
                        "profession": row.profession,
                        "weight": float(weight),
                    }
                    for row, weight in zip(scaled.rows, scaled.weights)
                ),
                key=lambda record: record["role_key"],
            ),
        )
        write_json(
            self.out_dir / "rake_summary.json",
            {
                "converged": scaled.converged,
                "iterations": scaled.iterations,
                "history": scaled.history,
                "population_total": marginals.population_total,
                "dropped_unmapped_grades": dropped_unmapped,
                "rows": len(scaled.rows),
            },
        )

    def _build_role_inputs(self) -> list[savings.RoleInput]:
        """Each raked role's scores in task order, salary and weight, by the profiles' join."""
        weights = {
            row["role_key"]: row["weight"]
            for row in iter_jsonl(self.out_dir / "raked_weights.jsonl")
        }
        joined = iter_joined(self.out_dir / "roles.jsonl", self.out_dir / "task_weights.jsonl")
        return [
            savings.RoleInput(
                role_key=role["vacancy_id"],
                exposures=tuple(row["exposure_score"] for row in rows),
                salary=role["salary"],
                weight=weights[role["vacancy_id"]],
            )
            for role, rows in joined
            # a role dropped before raking (e.g. unmapped grade) has no weight
            if role["vacancy_id"] in weights
        ]

    def _run_savings(self) -> None:
        config = self.config
        inputs = self._build_role_inputs()
        if not inputs:
            raise DataError("no roles available for the savings sweep")
        curve = savings.sweep(inputs, theta_grid=config.theta_grid, delta=config.delta)
        write_jsonl(self.out_dir / "sweep.jsonl", curve.to_rows())
        # the main curve is the sensitivity curve at config.delta; sweep it once
        other_deltas = [delta for delta in config.sensitivity_deltas if delta != config.delta]
        sensitivity = savings.decay_sensitivity(
            inputs, deltas=other_deltas, theta_grid=config.theta_grid
        )
        sensitivity[config.delta] = curve
        sensitivity_rows = []
        for delta in config.sensitivity_deltas:
            for row in sensitivity[delta].to_rows():
                sensitivity_rows.append({"delta": delta, **row})
        write_jsonl(self.out_dir / "sensitivity.jsonl", sensitivity_rows)

        at = min(range(len(curve.thetas)), key=lambda i: abs(curve.thetas[i] - config.theta))
        write_json(
            self.out_dir / "savings_summary.json",
            {
                "theta": curve.thetas[at],
                "cost_reduction": curve.cost_reduction[at],
                "productivity_gain": curve.productivity_gain[at],
                "productivity_upper": curve.productivity_upper[at],
                "freed_hours_per_week": curve.freed_hours[at],
                "n_cost": curve.n_cost[at],
                "n_productivity": curve.n_productivity[at],
                "n_no_impact": curve.n_no_impact[at],
                "n_missing_salary": curve.n_missing_salary,
            },
        )

    def _run_redesign(self) -> None:
        config = self.config
        eligible = redesign.eligible_roles(
            self._read_profiles("roles.jsonl", "task_weights.jsonl"), config.theta
        )
        sampled = redesign.stratified_sample(
            eligible, fraction=config.new_tasks_fraction, seed=config.seed
        )
        plans_by_variant: dict[str, dict[str, redesign.RedesignPlan]] = {}
        failures: dict[str, dict[str, str]] = {}
        for variant, bulk, roles in (
            (redesign.FOCUS, redesign.select_focus_bulk, eligible),
            (redesign.AUGMENT_REORDER, redesign.reorder_plan_bulk, eligible),
            (redesign.NEW_TASKS, redesign.new_tasks_plan_bulk, sampled),
        ):
            plans_by_variant[variant], failures[variant] = bulk(roles, self.manager)

        focus_plans = plans_by_variant[redesign.FOCUS]
        ordered_focus = [focus_plans[key] for key in sorted(focus_plans)]
        themes, theme_failures = redesign.tag_themes(
            [plan.reasoning for plan in ordered_focus], self.manager
        )
        for plan, tags in zip(ordered_focus, themes):
            plan.themes = tags

        plans = sorted(
            (plan for collection in plans_by_variant.values() for plan in collection.values()),
            key=lambda plan: (plan.role_key, plan.variant),
        )
        for plan in plans:
            redesign.check_plan(plan)
        write_jsonl(self.out_dir / "plans.jsonl", [plan.to_record() for plan in plans])

        freed = [plan.freed_share for plan in ordered_focus]
        write_json(
            self.out_dir / "redesign_summary.json",
            {
                "eligible": len(eligible),
                "sampled_for_new_tasks": len(sampled),
                "failures": {variant: dict(sorted(f.items())) for variant, f in failures.items()},
                "theme_failures": {str(k): v for k, v in sorted(theme_failures.items())},
                "theme_shares": redesign.theme_shares(themes),
                "median_freed_share": statistics.median(freed) if freed else None,
            },
        )

    def _run_report(self) -> None:
        report_dir = self.out_dir / "report"
        config = self.config

        # each table is reduced to what the report uses while it is read:
        # counters, each cluster's role means and stds, and the eligible profiles
        score_counts: Counter[float] = Counter()
        band_counts: Counter[Band] = Counter()
        count_hist: Counter[int] = Counter()
        stats_of: dict[str, list[tuple[float, float]]] = {}

        def tallied(profiles: Iterator[RoleProfile]) -> Iterator[RoleProfile]:
            # role_clusters.jsonl holds one row per role of roles.jsonl, in order
            clusters = iter_jsonl(self.out_dir / "role_clusters.jsonl")
            for profile, row in itertools.zip_longest(profiles, clusters):
                if profile is None or row is None or row["vacancy_id"] != profile.vacancy_id:
                    raise DataError("role_clusters.jsonl does not list the roles of roles.jsonl")
                for task in profile.tasks:
                    score_counts[round(task.exposure, 2)] += 1
                    band_counts[task.band] += 1
                count_hist[len(profile.tasks)] += 1
                aggregates = profile.aggregates
                stats_of.setdefault(row["cluster"], []).append((aggregates.mean, aggregates.std))
                yield profile

        eligible = redesign.eligible_roles(
            tallied(self._read_profiles("roles.jsonl", "task_weights.jsonl")), config.theta
        )
        total_tasks = sum(score_counts.values())
        write_csv(
            report_dir / "exposure_histogram.csv",
            ["score", "count"],
            [[f"{score:.2f}", count] for score, count in sorted(score_counts.items())],
        )
        write_csv(
            report_dir / "band_shares.csv",
            ["band", "count", "share_percent"],
            [
                [band.value, band_counts[band], f"{100.0 * band_counts[band] / total_tasks:.2f}"]
                for band in Band
            ],
        )
        write_csv(
            report_dir / "tasks_per_role.csv",
            ["task_count", "n_roles"],
            [[count, n] for count, n in sorted(count_hist.items())],
        )

        cluster_rows = []
        for name in (cluster.value for cluster in clustering.ExposureCluster):
            if name not in stats_of:
                cluster_rows.append([name, 0, "", "", "", ""])
                continue
            means, stds = zip(*stats_of[name])
            cluster_rows.append(
                [
                    name,
                    len(means),
                    f"{math.fsum(means) / len(means):.3f}",
                    f"{math.fsum(stds) / len(stds):.3f}",
                    f"{max(means):.3f}",
                    f"{min(means):.3f}",
                ]
            )
        write_csv(
            report_dir / "cluster_summary.csv",
            ["cluster", "n_roles", "mean_exposure", "mean_std_exposure", "highest_exposure", "lowest_exposure"],
            cluster_rows,
        )

        # category labels are kept only for the tasks of eligible roles,
        # the only roles with plans
        eligible_ids = {profile.vacancy_id for profile in eligible}
        category_of: dict[tuple[str, int], str] = {}
        tax_counts: Counter[tuple[str, str]] = Counter()
        for row in iter_jsonl(self.out_dir / "taxonomy.jsonl"):
            tax_counts[(row["category_label"], row["subcategory_label"])] += 1
            if row["vacancy_id"] in eligible_ids:
                category_of[(row["vacancy_id"], row["task_number"])] = row["category_label"]
        write_csv(
            report_dir / "taxonomy_summary.csv",
            ["category_label", "subcategory_label", "n_tasks"],
            [[cat, sub, n] for (cat, sub), n in sorted(tax_counts.items())],
        )

        def _money(value: float) -> str:
            return str(round(value))

        write_csv(
            report_dir / "sweep.csv",
            [
                "theta",
                "cost_reduction",
                "productivity_gain",
                "productivity_upper",
                "ratio",
                "n_cost",
                "n_productivity",
                "n_no_impact",
            ],
            [
                [
                    f"{row['theta']:.2f}",
                    _money(row["cost_reduction"]),
                    _money(row["productivity_gain"]),
                    _money(row["productivity_upper"]),
                    "inf" if math.isinf(row["ratio"]) else f"{row['ratio']:.4f}",
                    row["n_cost"],
                    row["n_productivity"],
                    row["n_no_impact"],
                ]
                for row in iter_jsonl(self.out_dir / "sweep.jsonl")
            ],
        )

        # savings reports at the grid point nearest config.theta
        theta = json.loads((self.out_dir / "savings_summary.json").read_text("utf-8"))["theta"]
        by_delta = {
            row["delta"]: row
            for row in iter_jsonl(self.out_dir / "sensitivity.jsonl")
            if row["theta"] == theta
        }
        deltas = sorted(by_delta)
        write_csv(
            report_dir / "decay_sensitivity.csv",
            ["saving_type"] + [f"delta_{delta}" for delta in deltas],
            [
                [saving] + [_money(by_delta[delta][saving]) for delta in deltas]
                for saving in ("cost_reduction", "productivity_gain", "productivity_upper")
            ],
        )

        plans_by_variant: dict[str, dict[str, redesign.RedesignPlan]] = {}
        for record in iter_jsonl(self.out_dir / "plans.jsonl"):
            plan = redesign.RedesignPlan.from_record(record)
            plans_by_variant.setdefault(plan.variant, {})[plan.role_key] = plan
        shift = redesign.time_shift_report(eligible, plans_by_variant, category_of)
        columns = ["pre_automation", "post_automation"] + [
            variant for variant in redesign.VARIANTS if variant in plans_by_variant
        ]
        write_csv(
            report_dir / "redesign_comparison.csv",
            ["category"] + [f"{column}_percent" for column in columns],
            [
                [row["category"]] + [f"{100.0 * row.get(column, 0.0):.2f}" for column in columns]
                for row in shift
            ],
        )

        summary = json.loads((self.out_dir / "redesign_summary.json").read_text("utf-8"))
        write_csv(
            report_dir / "theme_shares.csv",
            ["theme", "share_percent"],
            [
                [theme, f"{100.0 * share:.2f}"]
                for theme, share in sorted(summary["theme_shares"].items())
            ],
        )

        # focus-task make-up of the top and bottom weighted salary deciles
        raked = {
            row["role_key"]: row["weight"]
            for row in iter_jsonl(self.out_dir / "raked_weights.jsonl")
        }
        focus_plans = plans_by_variant.get(redesign.FOCUS, {})
        salaried = {
            profile.vacancy_id: profile.salary
            for profile in eligible
            if profile.salary is not None
            and profile.vacancy_id in focus_plans
            and profile.vacancy_id in raked
        }
        decile_rows: list[list] = []
        if salaried:
            deciles = redesign.salary_deciles(salaried, raked)
            for group, wanted in (("bottom", 1), ("top", 10)):
                members = sorted(key for key, decile in deciles.items() if decile == wanted)
                total = math.fsum(raked[key] for key in members)
                if total <= 0:
                    continue
                category_mass: dict[str, float] = {}
                theme_mass: dict[str, float] = {}
                for key in members:
                    plan = focus_plans[key]
                    label = category_of.get((key, plan.focus_task), clustering.UNCATEGORIZED)
                    category_mass[label] = category_mass.get(label, 0.0) + raked[key]
                    for theme in plan.themes:
                        theme_mass[theme] = theme_mass.get(theme, 0.0) + raked[key]
                for label, mass in sorted(category_mass.items()):
                    decile_rows.append([group, "category", label, f"{100.0 * mass / total:.2f}"])
                for theme, mass in sorted(theme_mass.items()):
                    decile_rows.append([group, "theme", theme, f"{100.0 * mass / total:.2f}"])
        write_csv(
            report_dir / "focus_by_decile.csv",
            ["group", "kind", "label", "share_percent"],
            decile_rows,
        )


STAGE_TABLE: tuple[Stage, ...] = (
    Stage(
        "ingest",
        deps=(),
        outputs=("vacancies.jsonl", "ingest_issues.json"),
        params=(
            "corpus_path",
            "fte_path",
            "salary_path",
            "grade_totals_path",
            "profession_totals_path",
            "grade_map_path",
            "vocab_path",
            "min_department_vacancies",
            "population_total",
        ),
        run=Pipeline._run_ingest,
    ),
    Stage(
        "extract",
        deps=("ingest",),
        outputs=("tasks.jsonl", "extract_summary.json"),
        params=("truncate_chars",),
        run=Pipeline._run_extract,
        provider=True,
    ),
    Stage(
        "weight",
        deps=("ingest", "extract"),
        outputs=("roles.jsonl", "task_weights.jsonl"),
        params=("delta",),
        run=Pipeline._run_weight,
    ),
    Stage(
        "cluster",
        deps=("weight",),
        outputs=("role_clusters.jsonl", "taxonomy.jsonl", "projection.json"),
        params=(
            "seed",
            "taxonomy_categories",
            "taxonomy_subclusters",
            "pca_dim",
            "label_sample_cap",
            "stopwords_path",
        ),
        run=Pipeline._run_cluster,
        provider=True,
    ),
    Stage(
        "rake",
        deps=("weight",),
        outputs=("raked_weights.jsonl", "rake_summary.json"),
        params=(
            "fte_path",
            "salary_path",
            "grade_totals_path",
            "profession_totals_path",
            "population_total",
        ),
        run=Pipeline._run_rake,
    ),
    Stage(
        "savings",
        deps=("weight", "rake"),
        outputs=("sweep.jsonl", "sensitivity.jsonl", "savings_summary.json"),
        params=("delta", "theta", "theta_grid", "sensitivity_deltas"),
        run=Pipeline._run_savings,
    ),
    Stage(
        "redesign",
        deps=("weight",),
        outputs=("plans.jsonl", "redesign_summary.json"),
        params=("theta", "delta", "seed", "new_tasks_fraction"),
        run=Pipeline._run_redesign,
        provider=True,
    ),
    Stage(
        "report",
        deps=("weight", "cluster", "rake", "savings", "redesign"),
        outputs=(
            "report/exposure_histogram.csv",
            "report/band_shares.csv",
            "report/tasks_per_role.csv",
            "report/cluster_summary.csv",
            "report/taxonomy_summary.csv",
            "report/sweep.csv",
            "report/decay_sensitivity.csv",
            "report/redesign_comparison.csv",
            "report/theme_shares.csv",
            "report/focus_by_decile.csv",
        ),
        params=("theta", "delta"),
        run=Pipeline._run_report,
    ),
)

STAGES = tuple(stage.name for stage in STAGE_TABLE)
_STAGE_BY_NAME = {stage.name: stage for stage in STAGE_TABLE}
