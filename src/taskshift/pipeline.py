"""Staged pipeline driver with content-addressed, resumable artifacts.

Each stage returns its outputs, and ``Pipeline.run_stage`` alone writes them, hashing
the bytes as it writes, with a manifest of input hashes, parameter fingerprint and output hashes.
Downstream stages verify upstream manifests before running; a rerun with
unchanged inputs and parameters is a no-op, and any upstream content or
parameter change invalidates everything below it.

``STAGE_TABLE`` at the end of this module is the single place where a
stage is declared: the stages whose outputs it opens, the files it writes
(for the report, the tables that ``report.py`` declares and formats) and
the ``PipelineConfig`` fields it reads by name, next to the method that
runs it. The manifest machinery reads nothing else.
"""

from __future__ import annotations

import contextlib
import csv
import fcntl
import functools
import hashlib
import io
import itertools
import json
import logging
import math
import os
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple

import orjson

from . import clustering, redesign, report, savings
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
from .exposure import RoleProfile, build_profile, extract_corpus, task_record
from .gateway import BatchManager, HttpProvider, MockProvider, ResponseCache, RetryPolicy
from .inputs import read_object
from .raking import (
    SampleRow,
    append_other_depts,
    build_marginals,
    collapse_unsampled,
    rake,
    scale_to_population,
)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
# the fields a run reads back from a manifest, with their types; one that lacks any is unreadable
_MANIFEST_FIELDS = {"stage": str, "params_fingerprint": str, "outputs": dict, "content_hash": str}


class Stage(NamedTuple):
    """One pipeline stage.

    ``params`` names exactly the ``PipelineConfig`` fields that ``run`` reads. Its
    fingerprint covers the value of each, except that a ``*_path`` field stands for the
    contents of its file (an unset path is left out); the output hashes of every stage in
    ``deps``, the stages whose outputs it opens; and, for a stage that asks the provider
    (``provider``), the provider identity of ``build_provider``. ``run(pipeline)`` writes
    nothing: it returns each of ``outputs`` by name, a ``.jsonl`` as a list of row dicts,
    a ``.json`` as an object and a ``.csv`` as a ``(header, rows)`` pair.
    """

    name: str
    deps: tuple[str, ...]
    outputs: tuple[str, ...]
    params: tuple[str, ...]
    run: Callable[["Pipeline"], dict[str, object]]
    provider: bool = False


class StageArtifact(NamedTuple):
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


# the settings ``json.dumps(value, sort_keys=True)`` encodes with
_ROW_SETTINGS = json.JSONEncoder(sort_keys=True)


class _HashingWriter(io.BufferedWriter):
    """A file's buffered writer that feeds each buffer the text layer passes it to a SHA-256."""

    def __init__(self, raw: IO[bytes]):
        super().__init__(raw, 1 << 16)  # a system call per 8 of the text layer's 8 KiB pieces
        self.digest = hashlib.sha256()

    def write(self, data: bytes) -> int:
        self.digest.update(data)
        return super().write(data)


@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[tuple[IO[str], "hashlib._Hash"]]:
    """Write ``path`` through ``.<name>.<pid>.tmp`` beside it, renamed into place, so a
    reader or a concurrent run sees the old file or the whole new one; on an error the
    temporary file goes and the target keeps its old bytes. Each ``\n`` is written as it is,
    on every platform. Gives the handle and a SHA-256 fed the bytes as they are written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("wb", buffering=0) as raw:
            hashing = _HashingWriter(raw)
            with io.TextIOWrapper(hashing, encoding="utf-8", newline="\n") as handle:
                yield handle, hashing.digest
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _row_encoder() -> Callable[[object, int], Iterable[str]]:
    """The encoder that ``json.dumps(value, sort_keys=True)`` builds for each call,
    built once per file instead: ``"".join(encode(value, 0))`` is that call's text.

    It is the C encoder where the ``_json`` accelerator is present, else the
    pure-Python one that ``json.dumps`` falls back to. Each file gets its own,
    because the C encoder's ``markers`` dict of open containers keeps their
    ids after an encoding error.
    """
    if json.encoder.c_make_encoder is None:
        return _ROW_SETTINGS.iterencode
    settings = _ROW_SETTINGS
    return json.encoder.c_make_encoder(
        {},
        settings.default,
        json.encoder.encode_basestring_ascii,
        settings.indent,
        settings.key_separator,
        settings.item_separator,
        settings.sort_keys,
        settings.skipkeys,
        settings.allow_nan,
    )


def write_jsonl(path: Path, records: list[dict]) -> str:
    """One ``json.dumps(record, sort_keys=True)`` line per record; ``records`` is only iterated."""
    encode = _row_encoder()
    with _replacing(path) as (handle, digest):
        write = handle.write
        for record in records:
            write("".join(encode(record, 0)) + "\n")
    return digest.hexdigest()


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


def write_json(path: Path, data: object) -> str:
    """Write ``json.dumps(data, sort_keys=True, indent=1)`` and a newline, a piece at a
    time rather than as one string."""
    with _replacing(path) as (handle, digest):
        _write_indented(handle.write, data, "\n", set())
        handle.write("\n")
    return digest.hexdigest()


def _write_indented(
    write: Callable[[str], object], value: object, newline: str, open_ids: set[int]
) -> None:
    """Write ``value`` as ``json.dumps(value, sort_keys=True, indent=1)`` spells it at
    the depth whose line break and indent is ``newline``.

    Non-empty lists, tuples and dicts with only ``str`` keys are walked here,
    and a list of finite floats is one join of ``float.__repr__``, the text
    json gives each of them. Any other value goes to ``json.dumps``: a dict
    with other keys indented to this depth, a scalar or an empty container
    as it is. ``open_ids`` holds the containers being written, so a circular
    one raises as ``json.dumps`` does.
    """
    if not (isinstance(value, (list, tuple, dict)) and value):
        write(json.dumps(value))
        return
    if id(value) in open_ids:
        raise ValueError("Circular reference detected")
    inner = newline + " "
    if isinstance(value, dict):
        items = sorted(value.items())
        if not all(isinstance(key, str) for key, _ in items):
            write(json.dumps(value, sort_keys=True, indent=1).replace("\n", newline))
            return
        opening, closing = "{", "}"
        pieces = ((json.encoder.encode_basestring_ascii(key) + ": ", item) for key, item in items)
    else:
        items = list(value)
        if set(map(type, items)) == {float} and all(map(math.isfinite, items)):
            write("[" + inner + ("," + inner).join(map(float.__repr__, items)) + newline + "]")
            return
        opening, closing = "[", "]"
        pieces = zip(itertools.repeat(""), items)
    open_ids.add(id(value))
    separator = opening + inner
    for prefix, item in pieces:
        write(separator + prefix)
        _write_indented(write, item, inner, open_ids)
        separator = "," + inner
    write(newline + closing)
    open_ids.discard(id(value))


def write_csv(path: Path, header: list[str], rows: list[list]) -> str:
    with _replacing(path) as (handle, digest):
        csv.writer(handle, lineterminator="\n").writerows(itertools.chain([header], rows))
    return digest.hexdigest()


def build_provider(config: PipelineConfig) -> tuple[MockProvider | HttpProvider, dict]:
    """The configured provider and the identity that provider-stage fingerprints and the
    cache scope hash: its name, its answer-changing constructor arguments and, for a mock
    with a fixtures file, the SHA-256 of the bytes it parsed from one read of the file."""
    if config.provider == "remote":
        settings = {
            "base_url": config.remote_base_url,
            "model": config.remote_model,
            "embed_model": config.remote_embed_model,
            "temperature": config.remote_temperature,
            "max_tokens": config.remote_max_tokens,
        }
        provider = HttpProvider(api_key_env=config.api_key_env, **settings)
        return provider, {"provider": config.provider, **settings}
    settings = {"strict": config.strict_fixtures, "dimension": config.embed_dimension}
    identity = {"provider": config.provider, **settings}
    fixtures = {}
    if config.fixtures_path:
        # a missing fixtures file is a usage error, like a missing config file
        fixtures, text = read_object(config.fixtures_path, "fixtures", unreadable=UsageError)
        identity["fixtures"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return MockProvider(fixtures=fixtures, **settings), identity


class Pipeline:
    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.manifest_dir = self.out_dir / "manifests"
        self._digests: dict[Path, tuple[tuple[int, int], str]] = {}
        for kind, directory in (("out", config.out_dir), ("cache", config.cache_dir)):
            if directory is None:  # a cache of None keeps answers in a temporary store
                continue
            try:
                Path(directory).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise UsageError(f"cannot create {kind} directory {directory}: {exc}") from exc

    # -- manifest machinery -------------------------------------------------

    def _manifest_path(self, stage: str) -> Path:
        return self.manifest_dir / f"{stage}.json"

    def _load_manifest(self, stage: str) -> dict | None:
        path = self._manifest_path(stage)
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text("utf-8"))
        except ValueError:
            manifest = None
        well_formed = isinstance(manifest, dict) and all(
            isinstance(manifest.get(key), kind) for key, kind in _MANIFEST_FIELDS.items()
        )
        if not well_formed:
            log.warning("manifest %s is unreadable; treating stage %s as not run", path, stage)
            return None
        return manifest

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
            try:
                inputs[f"file:{name}"] = self._hash(Path(raw))
            except OSError as exc:  # missing, a directory, unreadable
                raise DataError(f"cannot read input file for stage {stage.name!r}: {exc}") from exc
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
            params.update(self._provider[1])
        blob = _canonical(
            {
                "stage": stage.name,
                "schema_version": SCHEMA_VERSION,
                "params": params,
                "inputs": inputs,
            }
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @functools.cached_property
    def _provider(self) -> tuple[MockProvider | HttpProvider, dict]:
        """The provider and its identity, built once per ``Pipeline``."""
        return build_provider(self.config)

    @functools.cached_property
    def manager(self) -> BatchManager:
        config = self.config
        provider, identity = self._provider
        policy = RetryPolicy(config.max_attempts, config.max_in_flight, config.backoff_base)
        # cached answers are replayed only for the provider identity that gave them
        scope = hashlib.sha256(_canonical(identity).encode("utf-8")).hexdigest()
        cache = ResponseCache(config.cache_dir, scope=scope)
        return BatchManager(provider, cache=cache, policy=policy)

    @functools.cached_property
    def _stopwords(self) -> frozenset[str]:
        """The cluster stage's stopwords, read once per ``Pipeline``."""
        return clustering.load_stopwords(self.config.stopwords_path)

    def run_stage(self, stage: str, force: bool = False) -> StageArtifact:
        """Run one stage, or no-op when its fingerprint already matches.

        Stages of runs on one output directory take turns: each holds an
        exclusive ``flock`` on the directory from reading its inputs' manifests
        to writing its own, so no other run replaces an input before it is
        read or an output before it is hashed.
        """
        spec = _STAGE_BY_NAME.get(stage)
        if spec is None:
            raise UsageError(f"unknown stage {stage!r}; expected one of {STAGES}")
        descriptor = os.open(self.out_dir, os.O_RDONLY)
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX)
            return self._run_locked(spec, force)
        finally:
            os.close(descriptor)  # and with it the lock

    def _run_locked(self, spec: Stage, force: bool) -> StageArtifact:
        stage = spec.name
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

        produced = spec.run(self)
        if produced.keys() != set(spec.outputs):
            raise DataError(f"stage {stage!r} returned {sorted(produced)}, not {spec.outputs}")
        outputs = {}
        for name in spec.outputs:  # popped, so each output's rows go once written
            path, content = self.out_dir / name, produced.pop(name)
            if path.suffix == ".jsonl":
                outputs[name] = write_jsonl(path, content)
            elif path.suffix == ".json":
                outputs[name] = write_json(path, content)
            else:
                outputs[name] = write_csv(path, *content)
            stat = path.stat()  # the digest of the bytes written serves every later check
            self._digests[path] = ((stat.st_size, stat.st_mtime_ns), outputs[name])
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

    def run_all(self, force: bool = False) -> Iterator[StageArtifact]:
        """Run every stage in order, yielding each one's artifact as it finishes.

        The files that a later stage reads whole, the fixtures and the
        stopwords, are read first, so that a bad one stops the run before
        any writes; the first stage reads the corpus, the tables and the
        lists before it writes. A generator runs nothing until it is iterated.
        """
        self._provider
        self._stopwords
        for stage in STAGES:
            yield self.run_stage(stage, force=force)

    # -- shared readers ------------------------------------------------------

    def _built_profiles(self) -> Iterator[RoleProfile]:
        """Weight's profiles: ``vacancies.jsonl`` joined with ``tasks.jsonl`` by
        ``vacancy_id``, each profile built at ``config.delta``.

        The join is a merge (``iter_joined``): profiles are built one at a time
        in ``vacancy_id`` order, and one role's rows are held at a time.
        """
        joined = iter_joined(self.out_dir / "vacancies.jsonl", self.out_dir / "tasks.jsonl")
        for role, rows in joined:
            records = [
                task_record(row["task_number"], row["task_details"], row["exposure_score"])
                for row in rows
            ]
            yield build_profile(role, records, self.config.delta)

    def _stored_profiles(self) -> Iterator[RoleProfile]:
        """The profiles that weight wrote, read back from its own two tables.

        Savings, redesign and report read them this way: each profile comes
        from the numbers weight stored (``RoleProfile.from_rows``), so no stage
        after weight decodes a job description or recomputes a band or
        aggregate. The join is the same merge as :meth:`_built_profiles`.
        """
        joined = iter_joined(self.out_dir / "roles.jsonl", self.out_dir / "task_weights.jsonl")
        for role, rows in joined:
            yield RoleProfile.from_rows(role, rows)

    # -- stage bodies ---------------------------------------------------------

    def _run_ingest(self) -> dict[str, object]:
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
        return {
            "vacancies.jsonl": [
                {**vacancy.to_record(), "salary": join_salary(vacancy, ref)}
                for vacancy in sorted(kept, key=lambda v: v.vacancy_id)
            ],
            "ingest_issues.json": {
                "parsed": len(parsed.vacancies),
                "kept": len(kept),
                "filtered_departments": sorted(small),
                "issues": [
                    {"line": issue.line_number, "vacancy_id": issue.vacancy_id, "reason": issue.reason}
                    for issue in parsed.issues
                ],
            },
        }

    def _run_extract(self) -> dict[str, object]:
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
        return {
            "tasks.jsonl": rows,
            "extract_summary.json": {
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
        }

    def _run_weight(self) -> dict[str, object]:
        role_rows, task_rows = [], []
        for profile in self._built_profiles():
            role, tasks = profile.to_rows()
            role_rows.append(role)
            task_rows.extend(tasks)
        return {"roles.jsonl": role_rows, "task_weights.jsonl": task_rows}

    def _run_cluster(self) -> dict[str, object]:
        config = self.config
        store = self.manager.arrays
        before = store.replayed, store.computed
        vacancy_ids, points = [], []
        for row in iter_jsonl(self.out_dir / "roles.jsonl"):
            vacancy_ids.append(row["vacancy_id"])
            points.append((row["exposure_mean"], row["exposure_std"]))
        labels = clustering.cluster_roles(points, seed=config.seed, store=store).labels
        del points  # each role's id and label are kept, their rows made on return
        stopwords = self._stopwords
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
        log.info(
            "cluster: %d PCA and k-means results replayed from the cache, %d computed",
            store.replayed - before[0],
            store.computed - before[1],
        )
        return {
            "role_clusters.jsonl": [
                {"vacancy_id": vacancy_id, "cluster": label.value}
                for vacancy_id, label in zip(vacancy_ids, labels)
            ],
            "taxonomy.jsonl": rows,
            "projection.json": projection.to_dict(),
        }

    def _run_rake(self) -> dict[str, object]:
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
        marginals = collapse_unsampled(marginals, rows, "profession", OTHER_PROFESSION)
        rows = append_other_depts(rows, marginals)
        raked = rake(rows, marginals)
        weights = scale_to_population(raked.weights, marginals.population_total)
        return {
            "raked_weights.jsonl": sorted(
                (
                    {
                        "role_key": row.role_key,
                        "department": row.department,
                        "grade": row.grade,
                        "profession": row.profession,
                        "weight": float(weight),
                    }
                    for row, weight in zip(rows, weights)
                ),
                key=lambda record: record["role_key"],
            ),
            "rake_summary.json": {
                "converged": raked.converged,
                "iterations": raked.iterations,
                "history": raked.history,
                "population_total": marginals.population_total,
                "dropped_unmapped_grades": dropped_unmapped,
                "rows": len(rows),
            },
        }

    def _build_role_inputs(self) -> list[savings.RoleInput]:
        """Each raked role's scores in task order, salary and weight, from the stored profiles."""
        weights = {
            row["role_key"]: row["weight"]
            for row in iter_jsonl(self.out_dir / "raked_weights.jsonl")
        }
        return [
            savings.RoleInput(
                role_key=profile.vacancy_id,
                exposures=tuple(task.exposure for task in profile.tasks),
                salary=profile.salary,
                weight=weights[profile.vacancy_id],
            )
            for profile in self._stored_profiles()
            # a role dropped before raking (e.g. unmapped grade) has no weight
            if profile.vacancy_id in weights
        ]

    def _run_savings(self) -> dict[str, object]:
        config = self.config
        inputs = self._build_role_inputs()
        if not inputs:
            raise DataError("no roles available for the savings sweep")
        # the grid is swept with theta on it, so the summary is taken at theta itself;
        # the main curve is the sensitivity curve at config.delta; each rate is swept once
        thetas = sorted({*config.theta_grid, config.theta})
        curves = {
            delta: savings.sweep(inputs, theta_grid=thetas, delta=delta)
            for delta in dict.fromkeys([config.delta, *config.sensitivity_deltas])
        }
        curve = curves[config.delta]
        at = curve.thetas.index(config.theta)
        return {
            "sweep.jsonl": curve.to_rows(),
            "sensitivity.jsonl": [
                {"delta": d, **r} for d in config.sensitivity_deltas for r in curves[d].to_rows()
            ],
            "savings_summary.json": {
                "theta": config.theta,
                "cost_reduction": curve.cost_reduction[at],
                "productivity_gain": curve.productivity_gain[at],
                "productivity_upper": curve.productivity_upper[at],
                "freed_hours_per_week": curve.freed_hours[at],
                "n_cost": curve.n_cost[at],
                "n_productivity": curve.n_productivity[at],
                "n_no_impact": curve.n_no_impact[at],
                "n_missing_salary": curve.n_missing_salary,
            },
        }

    def _run_redesign(self) -> dict[str, object]:
        config = self.config
        eligible = redesign.eligible_roles(self._stored_profiles(), config.theta)
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
        freed = [plan.freed_share for plan in ordered_focus]
        return {
            "plans.jsonl": [plan.to_record() for plan in plans],
            "redesign_summary.json": {
                "eligible": len(eligible),
                "sampled_for_new_tasks": len(sampled),
                "failures": {variant: dict(sorted(f.items())) for variant, f in failures.items()},
                "theme_failures": {str(k): v for k, v in sorted(theme_failures.items())},
                "theme_shares": redesign.theme_shares(themes),
                "median_freed_share": statistics.median(freed) if freed else None,
            },
        }

    def _run_report(self) -> dict[str, object]:
        out = self.out_dir
        gathered = report.Gathered(
            profiles=self._stored_profiles(),
            clusters=iter_jsonl(out / "role_clusters.jsonl"),
            taxonomy=iter_jsonl(out / "taxonomy.jsonl"),
            sweep=iter_jsonl(out / "sweep.jsonl"),
            sensitivity=iter_jsonl(out / "sensitivity.jsonl"),
            plans=iter_jsonl(out / "plans.jsonl"),
            redesign_summary=json.loads((out / "redesign_summary.json").read_text("utf-8")),
            raked=iter_jsonl(out / "raked_weights.jsonl"),
            theta=self.config.theta,
        )
        return {name: cells(gathered) for name, cells in report.TABLES.items()}


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
        params=("theta", "seed", "new_tasks_fraction"),
        run=Pipeline._run_redesign,
        provider=True,
    ),
    Stage(
        "report",
        deps=("weight", "cluster", "rake", "savings", "redesign"),
        outputs=tuple(report.TABLES),
        params=("theta",),
        run=Pipeline._run_report,
    ),
)

STAGES = tuple(stage.name for stage in STAGE_TABLE)
_STAGE_BY_NAME = {stage.name: stage for stage in STAGE_TABLE}
