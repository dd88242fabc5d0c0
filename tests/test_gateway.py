import concurrent.futures
import dataclasses
import hashlib
import http.client
import json
import sys
import threading
import time
import tracemalloc
import urllib.request
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskshift import prompts

from taskshift.errors import (
    EnumViolation,
    MissingField,
    ProviderError,
    ProviderRefused,
    RangeViolation,
    SchemaInvalid,
    TypeMismatch,
    UsageError,
)
from taskshift.gateway import (
    BatchManager,
    HttpProvider,
    MockProvider,
    ProviderResult,
    ResponseCache,
    RetryPolicy,
    Schema,
    StructuredRequest,
    request_fingerprint,
    validate_payload,
)
from taskshift.gateway import batch, providers
from taskshift.prompts import (
    TASK_EXTRACTION_SCHEMA,
    TASK_MIX_SCHEMA,
    THEME_FLAGS_SCHEMA,
    task_extraction_request,
)

from conftest import record_calls

SUPPORT_OFFICER_DESCRIPTION = """The support officer keeps the programme running. This includes:
- Arrange programme meetings and capture minutes with clear owners for actions
- Prepare outline packs for the delivery board ahead of each cycle
- Help keep programme controls current and assemble progress reports
- Keep delivery plans and the risk and issue register up to date
- Curate the log of internal and external stakeholder contacts
- Organise programme files with consistent version control
- Track programme spend and assist with budget preparation
"""


def reconciles(report) -> bool:
    """Every submitted request ended as one response or one failure entry."""
    return report.submitted == report.succeeded + len(report.failed)


def tasks_payload(*scores):
    return {
        "tasks": [
            {"task_number": i, "task_details": f"task {i}", "exposure_score": s}
            for i, s in enumerate(scores, start=1)
        ]
    }


def extraction_request(request_id, text="- Do one thing\n- Do another thing"):
    return task_extraction_request(request_id, text)


class TestValidatePayload:
    def test_in_range_accepted(self):
        payload = validate_payload(json.dumps(tasks_payload(0.8)), TASK_EXTRACTION_SCHEMA)
        assert payload["tasks"][0]["exposure_score"] == 0.8

    def test_below_range_rejected(self):
        with pytest.raises(RangeViolation):
            validate_payload(json.dumps(tasks_payload(-0.1)), TASK_EXTRACTION_SCHEMA)

    def test_above_range_rejected(self):
        with pytest.raises(RangeViolation):
            validate_payload(json.dumps(tasks_payload(1.3)), TASK_EXTRACTION_SCHEMA)

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected(self, score):
        with pytest.raises(RangeViolation, match="not a finite number"):
            validate_payload(json.dumps(tasks_payload(score)), TASK_EXTRACTION_SCHEMA)

    def test_integer_beyond_float_range_is_range_checked(self):
        with pytest.raises(RangeViolation, match="above maximum"):
            validate_payload(json.dumps(tasks_payload(10**400)), TASK_EXTRACTION_SCHEMA)

    def test_missing_field_named(self):
        raw = json.dumps({"tasks": [{"task_number": 1, "exposure_score": 0.5}]})
        with pytest.raises(MissingField, match=r"tasks\[0\].task_details"):
            validate_payload(raw, TASK_EXTRACTION_SCHEMA)

    def test_type_mismatch(self):
        raw = json.dumps(
            {"tasks": [{"task_number": "one", "task_details": "x", "exposure_score": 0.5}]}
        )
        with pytest.raises(TypeMismatch):
            validate_payload(raw, TASK_EXTRACTION_SCHEMA)

    def test_enum_violation_for_unknown_category(self):
        raw = json.dumps(
            {
                "tasks": [
                    {"task_number": 1, "task_details": "x", "task_category": "finance_magic"}
                ]
            }
        )
        with pytest.raises(EnumViolation, match="finance_magic"):
            validate_payload(raw, TASK_MIX_SCHEMA)

    def test_integer_enum_violation_on_theme_flags(self):
        payload = {name.name: 0 for name in THEME_FLAGS_SCHEMA.fields}
        payload["human_centric_leadership"] = 2
        with pytest.raises(EnumViolation):
            validate_payload(json.dumps(payload), THEME_FLAGS_SCHEMA)

    def test_not_json_rejected(self):
        with pytest.raises(SchemaInvalid):
            validate_payload("not json at all", TASK_EXTRACTION_SCHEMA)

    def test_validation_stable_under_serialization(self):
        payload = validate_payload(json.dumps(tasks_payload(0.2, 0.9)), TASK_EXTRACTION_SCHEMA)
        assert validate_payload(json.dumps(payload), TASK_EXTRACTION_SCHEMA) == payload


PROMPT_SCHEMAS = [value for value in vars(prompts).values() if isinstance(value, Schema)]
PROMPT_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.characters(categories=["Cs"])  # lone surrogates
    | st.sampled_from('"\\\n\t\x00é€😀')
)


def reference_fingerprint(system_prompt, user_prompt, schema):
    """``request_fingerprint`` as it was written before the schema text was stored."""
    blob = json.dumps(
        {"system": system_prompt, "user": user_prompt, "schema": schema.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestFingerprint:
    def test_stable_and_sensitive(self):
        a = request_fingerprint("sys", "user", TASK_EXTRACTION_SCHEMA)
        assert a == request_fingerprint("sys", "user", TASK_EXTRACTION_SCHEMA)
        assert a != request_fingerprint("sys", "user!", TASK_EXTRACTION_SCHEMA)
        assert a != request_fingerprint("sys", "user", TASK_MIX_SCHEMA)

    def test_independent_of_request_id(self):
        assert extraction_request("a").fingerprint() == extraction_request("b").fingerprint()

    @settings(max_examples=200, deadline=None)
    @given(
        schema=st.sampled_from(PROMPT_SCHEMAS),
        system=PROMPT_TEXT,
        user=PROMPT_TEXT,
    )
    def test_equals_dump_of_whole_request(self, schema, system, user):
        assert request_fingerprint(system, user, schema) == reference_fingerprint(
            system, user, schema
        )

    def test_prompt_schema_texts_are_pinned(self):
        # every request fingerprint, and so every cache key, splices these texts in
        expected = {
            "TASK_EXTRACTION_SCHEMA": "e8a94894b4323d15b1c8981d0ce08f86ba3883047ec6ef3dc6a8ae27cda9a11f",
            "CLUSTER_LABEL_SCHEMA": "7a0624379b1461fbbd4924f21abb596140745ec3c451900be20639f5ce1525d9",
            "FOCUS_CHOICE_SCHEMA": "9ac916f0a79750e9c16edb34d811855249d37a0be81a8c79834f5b638abffb15",
            "THEME_FLAGS_SCHEMA": "ac8d3a8f8d0bb1a65701554fe4ff2906c8b7eab0f700442ebcb582dc3a94692f",
            "TASK_REWRITE_SCHEMA": "d9262f37399aee1bd79d7a3be053c2d208431ff426bc3074f02a7cf55fe1fc28",
            "TASK_MIX_SCHEMA": "8dc53f7a6874bc2591cbe1681c050e57f28b74ba9bca874167d8566027d30560",
        }
        digests = {
            name: hashlib.sha256(getattr(prompts, name).canonical().encode("utf-8")).hexdigest()
            for name in expected
        }
        assert digests == expected

    def test_stored_canonical_text_leaves_equality_and_hash_alone(self):
        for schema in PROMPT_SCHEMAS:
            twin = Schema(schema.name, schema.fields)
            object.__setattr__(twin, "_canonical", "something else")
            assert twin == schema and hash(twin) == hash(schema)
            assert repr(twin) == repr(schema)
            assert Schema(schema.name + "!", schema.fields) != schema
        assert [spec.name for spec in dataclasses.fields(Schema)] == ["name", "fields"]


class TestMockProvider:
    def test_fixture_payload_returned_verbatim(self):
        request = extraction_request("r1")
        payload = tasks_payload(0.1, 0.4)
        provider = MockProvider(fixtures={request.fingerprint(): payload})
        assert json.loads(provider.complete(request).raw) == payload

    def test_strict_miss_is_provider_error(self):
        provider = MockProvider(strict=True)
        with pytest.raises(ProviderError):
            provider.complete(extraction_request("r1"))

    def test_fingerprint_taken_only_with_fixtures(self, monkeypatch):
        pinned = extraction_request("pinned")
        payload = tasks_payload(0.1, 0.4)
        fixtures = {pinned.fingerprint(): payload}
        taken = []
        original = providers.request_fingerprint

        def counting(*args):
            taken.append(args)
            return original(*args)

        monkeypatch.setattr(providers, "request_fingerprint", counting)
        MockProvider().complete(extraction_request("free", "- a\n- b"))
        assert taken == []
        assert json.loads(MockProvider(fixtures=fixtures).complete(pinned).raw) == payload
        assert len(taken) == 1
        with pytest.raises(ProviderError):
            MockProvider(strict=True).complete(pinned)
        with pytest.raises(ProviderError):
            MockProvider(fixtures=fixtures, strict=True).complete(extraction_request("miss", "- c"))

    def test_seven_task_fixture_returns_seven_tasks(self, monkeypatch):
        request = task_extraction_request("support", SUPPORT_OFFICER_DESCRIPTION)
        payload = tasks_payload(*([0.5] * 7))
        provider = MockProvider(fixtures={request.fingerprint(): payload})
        calls = record_calls(monkeypatch, provider, "complete")
        (response,), report = BatchManager(provider).submit_batch([request])
        assert report.failed == [] and len(calls) == 1
        assert len(response.payload["tasks"]) == 7

    def test_synthesizer_extracts_bullets_deterministically(self):
        provider = MockProvider()
        request = task_extraction_request("support", SUPPORT_OFFICER_DESCRIPTION)
        first = provider.complete(request).raw
        second = provider.complete(request).raw
        assert first == second
        assert len(json.loads(first)["tasks"]) == 7


class TestSubmitBatch:
    def test_happy_path_three_requests(self, manager):
        requests = [extraction_request(f"r{i}", f"- a thing {i}\n- b thing {i}") for i in range(3)]
        responses, report = manager.submit_batch(requests)
        assert [r.request_id for r in responses] == ["r0", "r1", "r2"]
        assert report.failed == []
        assert report.submitted == report.succeeded == 3
        assert reconciles(report)
        assert report.input_tokens > 0 and report.output_tokens > 0

    def test_out_of_range_fixture_fails_with_schema_class(self):
        request = extraction_request("bad")
        provider = MockProvider(fixtures={request.fingerprint(): tasks_payload(1.3)})
        manager = BatchManager(provider, policy=RetryPolicy(backoff_base=0.0))
        responses, report = manager.submit_batch([request])
        assert responses == []
        assert report.failed == [("bad", "RangeViolation")]
        assert reconciles(report)

    def test_duplicate_request_ids_rejected(self, manager):
        with pytest.raises(UsageError):
            manager.submit_batch([extraction_request("same"), extraction_request("same")])

    def test_results_keyed_by_request_id_not_arrival(self):
        requests = [extraction_request(f"r{i}", f"- x {i}\n- y {i}") for i in range(32)]
        manager = BatchManager(MockProvider(), policy=RetryPolicy(max_in_flight=16))
        responses, _ = manager.submit_batch(requests)
        assert [r.request_id for r in responses] == [r.request_id for r in requests]

    def test_counts_reconcile_with_mixed_failures(self):
        good = extraction_request("good")
        bad = extraction_request("bad", "- only\n- fine")
        provider = MockProvider(
            fixtures={
                good.fingerprint(): tasks_payload(0.5, 0.6),
                bad.fingerprint(): tasks_payload(2.0),
            }
        )
        manager = BatchManager(provider, policy=RetryPolicy(backoff_base=0.0))
        responses, report = manager.submit_batch([good, bad])
        assert report.submitted == 2 and report.succeeded == 1 and len(report.failed) == 1
        assert reconciles(report)


class TestBulkScaleBatch:
    def test_report_reconciles_at_bulk_scale(self):
        # a realistic full-corpus batch volume
        @dataclass
        class ConstantProvider:
            raw: str = json.dumps({"tasks": []})

            def complete(self, request):
                return ProviderResult(self.raw, 1, 1)

            def embed(self, texts):
                raise NotImplementedError

        requests = [
            StructuredRequest(f"r{i}", "s", "u", TASK_EXTRACTION_SCHEMA)
            for i in range(216_548)
        ]
        manager = BatchManager(ConstantProvider(), policy=RetryPolicy(max_in_flight=1))
        responses, report = manager.submit_batch(requests)
        assert report.submitted == 216_548
        assert report.succeeded + len(report.failed) == 216_548
        assert len(responses) == 216_548
        assert reconciles(report)


class TestCaching:
    def test_warm_cache_makes_zero_provider_calls(self, tmp_path, monkeypatch):
        provider = MockProvider()
        calls = record_calls(monkeypatch, provider, "complete")
        cache = ResponseCache(tmp_path / "cache")
        manager = BatchManager(provider, cache=cache)
        requests = [extraction_request(f"r{i}", f"- p {i}\n- q {i}") for i in range(4)]
        first, _ = manager.submit_batch(requests)
        calls_after_cold = len(calls)
        second, report = manager.submit_batch(requests)
        assert len(calls) == calls_after_cold
        assert report.cache_hits == 4
        assert [r.raw for r in first] == [r.raw for r in second]

    def test_corrupt_cache_entry_refetched(self, tmp_path):
        provider = MockProvider()
        cache = ResponseCache(tmp_path / "cache")
        manager = BatchManager(provider, cache=cache)
        request = extraction_request("r")
        manager.submit_batch([request])
        cache.put(request.fingerprint(), "{broken")
        responses, report = manager.submit_batch([request])
        assert len(responses) == 1
        assert report.cache_hits == 0

    def test_batch_of_pure_hits_creates_no_file(self, tmp_path, monkeypatch):
        requests = [extraction_request(f"r{i}", f"- p {i}\n- q {i}") for i in range(4)]
        BatchManager(MockProvider(), cache=ResponseCache(tmp_path)).submit_batch(requests)
        before = sorted(tmp_path.iterdir())
        provider = MockProvider()
        calls = record_calls(monkeypatch, provider, "complete")
        _, report = BatchManager(provider, cache=ResponseCache(tmp_path)).submit_batch(requests)
        assert report.cache_hits == 4 and calls == []
        assert sorted(tmp_path.iterdir()) == before

    def test_torn_last_line_skipped_and_refetched(self, tmp_path, monkeypatch):
        requests = [extraction_request(f"r{i}", f"- p {i}\n- q {i}") for i in range(2)]
        first, _ = BatchManager(MockProvider(), cache=ResponseCache(tmp_path)).submit_batch(requests)
        (segment,) = tmp_path.glob("*.answers")
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) - 20])  # a crash mid-record: the last answer is lost
        provider = MockProvider()
        calls = record_calls(monkeypatch, provider, "complete")
        second, report = BatchManager(provider, cache=ResponseCache(tmp_path)).submit_batch(
            requests
        )
        assert len(calls) == 1 and report.cache_hits == 1
        assert [r.raw for r in second] == [r.raw for r in first]
        # a crash mid-index-line: the refetched answer's line loses its newline
        index = sorted(tmp_path.glob("*.answers.index"))[-1]
        index.write_bytes(index.read_bytes()[:-1])
        provider = MockProvider()
        calls = record_calls(monkeypatch, provider, "complete")
        third, report = BatchManager(provider, cache=ResponseCache(tmp_path)).submit_batch(
            requests
        )
        assert len(calls) == 1 and report.cache_hits == 1
        assert [r.raw for r in third] == [r.raw for r in first]

    def test_round_trip_keeps_any_text_and_skips_torn_last_line(self, tmp_path):
        raws = {
            "lone": "\ud800 high, \udc00 low",
            "wide": "é € 😀 \u2028",
            "escapes": 'quote " backslash \\ slash / tab \t nul \x00',
            "numbers": '{"ratio": Infinity, "big": 18446744073709551616}',
        }
        writer = ResponseCache(tmp_path, scope="s:")
        for key, raw in raws.items():
            writer.put(key, raw)
        writer.put("torn", "lost")
        (index,) = tmp_path.glob("*.answers.index")
        index.write_bytes(index.read_bytes()[:-3])  # a crash mid-append of the last line
        reader = ResponseCache(tmp_path, scope="s:")
        assert {key: reader.get(key) for key in raws} == raws
        assert reader.get("torn") is None

    def test_two_writers_write_two_segments_a_reader_sees_both(self, tmp_path):
        one, two = ResponseCache(tmp_path), ResponseCache(tmp_path)
        assert one.get("a") is None and two.get("b") is None
        one.put("a", "first")
        two.put("b", "second")
        assert len(list(tmp_path.glob("*.answers"))) == 2
        assert len(list(tmp_path.glob("*.answers.index"))) == 2
        reader = ResponseCache(tmp_path)
        assert (reader.get("a"), reader.get("b")) == ("first", "second")

    def test_reopened_cache_reads_only_the_answer_asked_for(self, tmp_path):
        writer = ResponseCache(tmp_path)
        for number in range(200):
            writer.put(f"k{number}", f"{number:05d}" * 2000)  # 10 KB each
        tracemalloc.start()
        try:
            answer = ResponseCache(tmp_path).get("k123")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert answer == "00123" * 2000
        assert peak < 200_000

    def test_scope_separates_providers(self, tmp_path):
        ResponseCache(tmp_path, scope="mock:").put("k", "answer")
        assert ResponseCache(tmp_path, scope="remote:").get("k") is None
        assert ResponseCache(tmp_path, scope="mock:").get("k") == "answer"

    def test_manager_without_cache_keeps_answers_in_a_temporary_store(self, monkeypatch):
        provider = MockProvider()
        calls = record_calls(monkeypatch, provider, "complete")
        manager = BatchManager(provider)
        requests = [extraction_request(f"r{i}") for i in range(3)]
        responses, report = manager.submit_batch(requests)
        assert [r.request_id for r in responses] == ["r0", "r1", "r2"]
        assert len(calls) == 1 and report.cache_hits == 2

    def test_duplicates_in_inline_batch_make_one_call(self, tmp_path, monkeypatch):
        provider = MockProvider()
        calls = record_calls(monkeypatch, provider, "complete")
        manager = BatchManager(provider, cache=ResponseCache(tmp_path))
        requests = [extraction_request("first"), extraction_request("again")]
        responses, report = manager.submit_batch(requests)
        assert [r.request_id for r in responses] == ["first", "again"]
        assert len(calls) == 1 and report.cache_hits == 1
        assert reconciles(report)


@dataclass
class SleepyProvider:
    """Waits briefly per call, as a remote provider waits on the network."""

    waits_on_io = True
    threads: set = field(default_factory=set)

    def complete(self, request):
        self.threads.add(threading.get_ident())
        time.sleep(0.005)
        return MockProvider().complete(request)

    def embed(self, texts):
        self.threads.add(threading.get_ident())
        time.sleep(0.005)
        return MockProvider(dimension=8).embed(texts)


@dataclass
class VaryingProvider:
    """Gives each call a new answer, as a remote endpoint may even at temperature 0."""

    waits_on_io = True
    calls: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def complete(self, request):
        with self.lock:
            self.calls += 1
            answer = self.calls
        time.sleep(0.005)
        task = {"task_number": 1, "task_details": f"answer {answer}", "exposure_score": 0.5}
        return ProviderResult(json.dumps({"tasks": [task]}), 1, 1)

    def embed(self, texts):
        raise NotImplementedError


@dataclass
class ReversingProvider:
    """Sleeps longer for earlier requests, so a pool finishes them last."""

    order: list
    waits_on_io = True
    finished: list = field(default_factory=list)

    def complete(self, request):
        position = self.order.index(request.request_id)
        time.sleep(0.02 * (len(self.order) - position))
        self.finished.append(request.request_id)
        return MockProvider().complete(request)

    def embed(self, texts):
        raise NotImplementedError


class ThreadRecordingCache(ResponseCache):
    """Records the thread of every lookup and store."""

    def __init__(self, directory):
        super().__init__(directory)
        self.threads = {"get": set(), "put": set()}

    def get(self, fingerprint):
        self.threads["get"].add(threading.get_ident())
        return super().get(fingerprint)

    def put(self, fingerprint, raw):
        self.threads["put"].add(threading.get_ident())
        super().put(fingerprint, raw)


class TestConcurrency:
    def test_io_bound_provider_uses_pool_and_keeps_order(self, tmp_path):
        requests = [extraction_request(f"r{i}", f"- x {i}\n- y {i}") for i in range(32)]
        cache = ResponseCache(tmp_path)
        BatchManager(MockProvider(), cache=cache).submit_batch(requests[:8])
        provider = SleepyProvider()
        manager = BatchManager(provider, cache=cache, policy=RetryPolicy(max_in_flight=4))
        responses, report = manager.submit_batch(requests)
        assert [r.request_id for r in responses] == [r.request_id for r in requests]
        assert threading.get_ident() not in provider.threads
        assert len(provider.threads) > 1
        assert report.cache_hits == 8 and report.submitted == report.succeeded == 32
        assert reconciles(report)

    def test_identical_requests_on_the_pool_make_one_call(self, tmp_path):
        requests = [extraction_request(f"r{i}") for i in range(4)]
        provider = VaryingProvider()
        policy = RetryPolicy(max_in_flight=4)
        cold, _ = BatchManager(provider, ResponseCache(tmp_path), policy).submit_batch(requests)
        assert provider.calls == 1
        assert len({response.raw for response in cold}) == 1
        rerun = BatchManager(provider, ResponseCache(tmp_path), policy)
        warm, report = rerun.submit_batch(requests)
        assert provider.calls == 1 and report.cache_hits == 4
        assert [response.raw for response in warm] == [response.raw for response in cold]

    def test_pool_retries_refused_calls_and_raises_other_errors(self):
        refused = set()

        class RefusingOnce(SleepyProvider):
            def complete(self, request):
                if request.request_id not in refused:
                    refused.add(request.request_id)
                    raise ProviderError("refused once")
                return super().complete(request)

        class Broken(SleepyProvider):
            def complete(self, request):
                raise RuntimeError("not a provider failure")

        requests = [extraction_request(f"r{i}", f"- x {i}\n- y {i}") for i in range(8)]
        policy = RetryPolicy(max_in_flight=4, backoff_base=0)
        responses, report = BatchManager(RefusingOnce(), policy=policy).submit_batch(requests)
        assert len(refused) == report.succeeded == 8
        assert [r.request_id for r in responses] == [r.request_id for r in requests]
        with pytest.raises(RuntimeError, match="not a provider failure"):
            BatchManager(Broken(), policy=policy).submit_batch(requests)

    def test_pool_threads_never_touch_the_cache(self, tmp_path):
        requests = [extraction_request(f"r{i}", f"- x {i}\n- y {i}") for i in range(32)]
        BatchManager(MockProvider(), cache=ResponseCache(tmp_path)).submit_batch(requests[:8])
        provider, cache = SleepyProvider(), ThreadRecordingCache(tmp_path)
        manager = BatchManager(provider, cache=cache, policy=RetryPolicy(max_in_flight=8))
        _, report = manager.submit_batch(requests)
        assert report.cache_hits == 8 and len(provider.threads) > 1
        assert cache.threads == {"get": {threading.get_ident()}, "put": {threading.get_ident()}}

    def test_answers_are_stored_in_request_order_whatever_the_finishing_order(self, tmp_path):
        requests = [extraction_request(f"r{i}", f"- x {i}\n- y {i}") for i in range(8)]
        order = [request.request_id for request in requests]
        stored = []
        for run in ("one", "two"):
            provider = ReversingProvider(order)
            manager = BatchManager(
                provider, ResponseCache(tmp_path / run), RetryPolicy(max_in_flight=8)
            )
            responses, _ = manager.submit_batch(requests)
            assert provider.finished != order
            (segment,) = (tmp_path / run).glob("*.answers")
            index = segment.with_name(segment.name + ".index")
            stored.append((segment.read_bytes(), index.read_bytes()))
        assert stored[0] == stored[1]
        segment, index = stored[0]
        assert segment == "".join(response.raw for response in responses).encode("utf-8")
        offsets = [int(line.split()[1]) for line in index.splitlines()]
        reader = ResponseCache(tmp_path / "one")
        assert offsets == [reader.find(request.fingerprint())[1] for request in requests]
        assert offsets == sorted(offsets)

    def test_warm_batch_on_the_pool_path_makes_no_call_and_starts_no_pool(
        self, tmp_path, monkeypatch
    ):
        requests = [extraction_request(f"r{i}", f"- x {i}\n- y {i}") for i in range(8)]
        BatchManager(MockProvider(), cache=ResponseCache(tmp_path)).submit_batch(requests)

        def refuse(*args, **kwargs):
            raise AssertionError("a batch of cache hits started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        provider = SleepyProvider()
        manager = BatchManager(
            provider, cache=ResponseCache(tmp_path), policy=RetryPolicy(max_in_flight=8)
        )
        responses, report = manager.submit_batch(requests)
        assert report.cache_hits == len(responses) == 8 and not provider.threads

    def test_concurrent_puts_land_whole_in_one_segment(self, tmp_path):
        requests = [extraction_request(f"r{i}", f"- x {i}\n- y {i}") for i in range(200)]
        manager = BatchManager(
            SleepyProvider(), cache=ResponseCache(tmp_path), policy=RetryPolicy(max_in_flight=8)
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            responses, _ = manager.submit_batch(requests)
        finally:
            sys.setswitchinterval(interval)
        (segment,) = tmp_path.glob("*.answers")
        index = segment.with_name(segment.name + ".index")
        assert sorted(tmp_path.iterdir()) == [segment, index]
        lines = index.read_bytes().split(b"\n")
        assert lines[-1] == b"" and len(set(lines[:-1])) == 200
        reader = ResponseCache(tmp_path)
        for request, response in zip(requests, responses):
            assert reader.get(request.fingerprint()) == response.raw

    def test_in_process_provider_runs_on_calling_thread(self):
        seen = set()

        class Recording(MockProvider):
            def complete(self, request):
                seen.add(threading.get_ident())
                return super().complete(request)

        requests = [extraction_request(f"r{i}", f"- x {i}\n- y {i}") for i in range(8)]
        BatchManager(Recording(), policy=RetryPolicy(max_in_flight=8)).submit_batch(requests)
        assert seen == {threading.get_ident()}

    def test_io_bound_provider_embeds_on_pool_threads(self):
        texts = [f"text {i}" for i in range(64)]
        provider = SleepyProvider()
        manager = BatchManager(provider, policy=RetryPolicy(max_in_flight=4))
        rows = manager.embed_texts(texts, chunk_size=4)
        assert threading.get_ident() not in provider.threads
        assert len(provider.threads) > 1
        assert stored_matrix(rows).tobytes() == MockProvider(dimension=8).embed(texts).tobytes()


@dataclass
class FlakyProvider:
    """Fails the first ``failures`` completions, then delegates to a mock."""

    failures: int
    calls: int = 0

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise ProviderError("transient")
        return MockProvider().complete(request)

    def embed(self, texts):
        raise ProviderError("embedding down")


class TestRetry:
    def test_transient_failures_retried_to_success(self):
        provider = FlakyProvider(failures=2)
        manager = BatchManager(provider, policy=RetryPolicy(max_attempts=3, backoff_base=0.0))
        responses, report = manager.submit_batch([extraction_request("r")])
        assert len(responses) == 1
        assert provider.calls == 3

    def test_exhausted_retries_become_failure_entry(self):
        provider = FlakyProvider(failures=99)
        manager = BatchManager(provider, policy=RetryPolicy(max_attempts=3, backoff_base=0.0))
        responses, report = manager.submit_batch([extraction_request("r")])
        assert responses == []
        assert report.failed == [("r", "ProviderError")]

    def test_one_backoff_sleep_per_wave(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(batch.time, "sleep", sleeps.append)
        provider = FlakyProvider(failures=99)
        manager = BatchManager(provider, policy=RetryPolicy(max_attempts=3, backoff_base=0.5))
        _, report = manager.submit_batch([extraction_request(f"r{i}") for i in range(4)])
        assert len(report.failed) == 4 and provider.calls == 3
        assert sleeps == [0.5, 1.0]

    def test_check_failing_every_attempt_becomes_failure_entry(self, tmp_path, monkeypatch):
        provider = MockProvider()
        calls = record_calls(monkeypatch, provider, "complete")
        manager = BatchManager(
            provider, cache=ResponseCache(tmp_path), policy=RetryPolicy(backoff_base=0.0)
        )
        seen = []

        def check(index, payload):
            seen.append(index)
            raise RangeViolation("$.tasks", "never good enough")

        requests = [extraction_request("r0", "- a\n- b"), extraction_request("r1", "- c\n- d")]
        responses, report = manager.submit_batch(requests, check=check)
        assert responses == []
        assert report.failed == [("r0", "RangeViolation"), ("r1", "RangeViolation")]
        # without a nudge each retry repeats the same bytes, straight to the provider
        assert seen == [0, 1] * 3 and len(calls) == 6 and report.cache_hits == 0
        assert reconciles(report)

    def test_nudged_retry_is_looked_up_in_the_cache(self, tmp_path, monkeypatch):
        request = extraction_request("r", "- a\n- b")
        bad = tasks_payload(0.5)
        provider = MockProvider(fixtures={request.fingerprint(): bad})
        calls = record_calls(monkeypatch, MockProvider, "complete")
        cache = ResponseCache(tmp_path)
        manager = BatchManager(provider, cache=cache, policy=RetryPolicy(backoff_base=0.0))

        def check(index, payload):
            if len(payload["tasks"]) < 2:
                raise MissingField("$.tasks", "too few tasks")

        cold, cold_report = manager.submit_batch([request], check=check, nudge="list two")
        assert len(calls) == 2 and cold_report.cache_hits == 0
        warm = BatchManager(MockProvider(strict=True), cache=ResponseCache(tmp_path))
        again, warm_report = warm.submit_batch([request], check=check, nudge="list two")
        assert len(calls) == 2 and warm_report.cache_hits == 2
        assert [r.raw for r in again] == [r.raw for r in cold]
        assert cold[0].request_id == "r" and len(cold[0].payload["tasks"]) == 2

    def test_refused_call_is_sent_again_as_it_was(self, tmp_path, monkeypatch):
        @dataclass
        class RefusingOnce(MockProvider):
            """Refuses each request id's first call, records every prompt it is sent."""

            prompts: list = field(default_factory=list)
            refused: set = field(default_factory=set)

            def complete(self, request):
                self.prompts.append(request.user_prompt)
                if request.request_id not in self.refused:
                    self.refused.add(request.request_id)
                    raise ProviderRefused("provider returned HTTP 429: Too Many Requests")
                return super().complete(request)

        requests = [extraction_request(f"r{i}", f"- task {i}\n- other {i}") for i in range(5)]
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0)
        provider = RefusingOnce()
        cold = BatchManager(provider, cache=ResponseCache(tmp_path), policy=policy)
        answers, report = cold.submit_batch(requests, nudge="list two")
        assert len(answers) == 5 and report.failed == []
        warm = BatchManager(MockProvider(strict=True), cache=ResponseCache(tmp_path), policy=policy)
        calls = record_calls(monkeypatch, warm.provider, "complete")
        again, warm_report = warm.submit_batch(requests, nudge="list two")
        assert calls == [] and warm_report.cache_hits == 5
        assert [r.raw for r in again] == [r.raw for r in answers]
        # no reply was seen, so no nudge: the same bytes twice
        assert provider.prompts == [r.user_prompt for r in requests] * 2


def stored_matrix(rows):
    """Every row ``embed_texts`` returned, read back into one matrix."""
    matrix = np.empty(rows.shape)
    rows.readinto(0, matrix)
    return matrix


@dataclass
class ChunkFailingProvider(MockProvider):
    """Fails every chunk that starts with a text in ``failing``; records what it is sent."""

    failing: frozenset = frozenset()
    sent: list = field(default_factory=list)

    def embed(self, texts):
        self.sent.append(list(texts))
        if texts[0] in self.failing:
            raise ProviderError("chunk down")
        return super().embed(texts)


class TestEmbeddings:
    def test_empty_text_rejected(self, manager):
        with pytest.raises(UsageError):
            manager.embed_texts(["fine", ""])

    def test_no_texts_rejected(self, manager):
        with pytest.raises(UsageError):
            manager.embed_texts([])

    def test_identical_strings_identical_vectors(self, manager):
        vectors = stored_matrix(manager.embed_texts(["same text", "same text", "other"]))
        assert np.array_equal(vectors[0], vectors[1])
        assert not np.array_equal(vectors[0], vectors[2])

    def test_count_and_dimension_preserved(self):
        manager = BatchManager(MockProvider(dimension=32))
        texts = [f"task text {i}" for i in range(500)]
        vectors = manager.embed_texts(texts, chunk_size=64)
        assert vectors.shape == (500, 32)

    def test_embed_failure_names_indexes(self):
        manager = BatchManager(FlakyProvider(failures=0), policy=RetryPolicy(backoff_base=0.0))
        with pytest.raises(ProviderError, match=r"\[0, 1\]"):
            manager.embed_texts(["a", "b"])

    def test_non_finite_vectors_are_provider_error(self):
        class NanProvider(MockProvider):
            def embed(self, texts):
                vectors = super().embed(texts)
                vectors[0, 0] = np.nan
                return vectors

        with pytest.raises(ProviderError, match="finite"):
            BatchManager(NanProvider(dimension=4)).embed_texts(["a", "b"])

    def test_one_dimensional_vectors_are_provider_error(self):
        class FlatProvider(MockProvider):
            def embed(self, texts):
                return np.zeros(len(texts))

        with pytest.raises(ProviderError, match="2-D"):
            BatchManager(FlatProvider()).embed_texts(["a", "b"])

    def test_dimension_change_is_provider_error(self):
        class GrowingProvider(MockProvider):
            def embed(self, texts):
                self.dimension += 1
                return super().embed(texts)

        with pytest.raises(ProviderError, match="dimension changed mid-run"):
            BatchManager(GrowingProvider(dimension=4)).embed_texts(["a", "b", "c"], chunk_size=2)

    def test_failed_chunks_retry_in_waves_with_one_sleep_per_wave(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(batch.time, "sleep", sleeps.append)
        texts = [f"text {i}" for i in range(6)]
        provider = ChunkFailingProvider(dimension=4, failing=frozenset({"text 0", "text 2"}))
        manager = BatchManager(provider, policy=RetryPolicy(max_attempts=3, backoff_base=0.5))
        with pytest.raises(ProviderError, match=r"texts \[0, 1, 2, 3\]"):
            manager.embed_texts(texts, chunk_size=2)
        c0, c1, c2 = texts[0:2], texts[2:4], texts[4:6]
        assert provider.sent == [c0, c1, c2, c0, c1, c0, c1]
        assert sleeps == [0.5, 1.0]

    def test_rerun_embeds_only_the_chunk_that_failed(self, tmp_path, monkeypatch):
        texts = ["a", "b", "c", "d"]
        failing = ChunkFailingProvider(dimension=4, failing=frozenset({"a"}))
        manager = BatchManager(
            failing, cache=ResponseCache(tmp_path, scope="s:"), policy=RetryPolicy(backoff_base=0.0)
        )
        with pytest.raises(ProviderError, match=r"texts \[0, 1\]"):
            manager.embed_texts(texts, chunk_size=2)
        healthy = MockProvider(dimension=4)
        calls = record_calls(monkeypatch, healthy, "embed")
        rows = BatchManager(healthy, cache=ResponseCache(tmp_path, scope="s:")).embed_texts(
            texts, chunk_size=2
        )
        assert len(calls) == 1
        assert stored_matrix(rows).tobytes() == MockProvider(dimension=4).embed(texts).tobytes()


def http_provider(reply: dict) -> HttpProvider:
    """An HTTP provider whose every request gets ``reply`` without a network call."""
    provider = HttpProvider(base_url="http://localhost:9", model="m")
    provider._post = lambda path, body: reply
    return provider


class TestHttpEmbeddings:
    def test_ragged_vectors_are_provider_error(self):
        reply = {"data": [{"embedding": [0.1, 0.2]}, {"embedding": [0.3]}]}
        with pytest.raises(ProviderError, match="malformed embedding"):
            BatchManager(http_provider(reply)).embed_texts(["a", "b"])

    def test_non_numeric_vectors_are_provider_error(self):
        reply = {"data": [{"embedding": ["x", None]}]}
        with pytest.raises(ProviderError, match="malformed embedding"):
            BatchManager(http_provider(reply)).embed_texts(["a"])

    def test_one_row_short_is_provider_error(self):
        reply = {"data": [{"embedding": [0.1, 0.2]}]}
        with pytest.raises(ProviderError, match="wrong number"):
            BatchManager(http_provider(reply)).embed_texts(["a", "b"])

    def test_nan_from_server_json_is_provider_error(self):
        # json.loads accepts the bare NaN token some servers emit
        reply = json.loads('{"data": [{"embedding": [NaN, 1.0]}, {"embedding": [0.5, 1.0]}]}')
        manager = BatchManager(http_provider(reply))
        with pytest.raises(ProviderError, match="finite"):
            manager.embed_texts(["a", "b"])


class BrokenReply:
    """An HTTP response whose body read returns ``body`` or raises it."""

    def __init__(self, body):
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self):
        if isinstance(self.body, Exception):
            raise self.body
        return self.body


class TestHttpTransport:
    @pytest.mark.parametrize(
        "body",
        [
            http.client.IncompleteRead(b'{"data": [{"embed'),
            ConnectionResetError(104, "Connection reset by peer"),
            b"\xff\xfe not UTF-8",
        ],
        ids=["torn-body", "reset-during-read", "not-utf8"],
    )
    def test_failure_while_reading_reply_is_retried_provider_error(self, monkeypatch, body):
        opened = []

        def urlopen(request, timeout):
            opened.append(request)
            return BrokenReply(body)

        monkeypatch.setenv("TASKSHIFT_API_KEY", "key")
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        provider = HttpProvider(base_url="http://localhost:9", model="m")
        manager = BatchManager(provider, policy=RetryPolicy(max_attempts=3, backoff_base=0.0))
        with pytest.raises(ProviderError, match="transport failure"):
            manager.embed_texts(["a"])
        assert len(opened) == 3

    def test_null_message_content_becomes_failure_entry(self):
        posts = []
        provider = HttpProvider(base_url="http://localhost:9", model="m")
        reply = {"choices": [{"message": {"content": None}}]}
        provider._post = lambda path, body: posts.append(path) or reply
        manager = BatchManager(provider, policy=RetryPolicy(max_attempts=3, backoff_base=0.0))
        responses, report = manager.submit_batch([extraction_request("r")])
        assert responses == [] and report.failed == [("r", "ProviderError")]
        assert posts == ["/chat/completions"] * 3

    @pytest.mark.parametrize(
        "reply_usage, tokens",
        [
            ({"usage": None}, (0, 0)),
            ({"usage": {"prompt_tokens": None, "completion_tokens": 5}}, (0, 5)),
            ({"usage": []}, None),
            ({"usage": {"prompt_tokens": "abc", "completion_tokens": 5}}, None),
            ({"usage": {"prompt_tokens": 7, "completion_tokens": 2.0}}, None),
        ],
        ids=["usage-null", "count-null", "usage-list", "count-text", "count-float"],
    )
    def test_malformed_usage_counts_zero_or_is_retried_provider_error(self, reply_usage, tokens):
        posts = []
        provider = HttpProvider(base_url="http://localhost:9", model="m")
        reply = {
            "choices": [{"message": {"content": json.dumps(tasks_payload(0.5))}}],
            **reply_usage,
        }
        provider._post = lambda path, body: posts.append(path) or reply
        manager = BatchManager(provider, policy=RetryPolicy(max_attempts=3, backoff_base=0.0))
        responses, report = manager.submit_batch([extraction_request("r")])
        if tokens is None:
            assert responses == [] and report.failed == [("r", "ProviderError")]
            assert posts == ["/chat/completions"] * 3
        else:
            assert [response.request_id for response in responses] == ["r"]
            assert (report.input_tokens, report.output_tokens) == tokens
            assert posts == ["/chat/completions"]
