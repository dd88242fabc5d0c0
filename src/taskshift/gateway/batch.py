"""Batch submission with retries, caching and, for remote providers, threads.

Every request yields exactly one response or one failure entry; results
come back in input order (keyed by request_id, never by arrival). Schema
validation runs on every payload, including cache hits. Only providers
whose calls wait on I/O (``waits_on_io``) get a thread pool, bounded by
``max_in_flight`` and fed the cache misses alone; every other provider
runs in one ordered loop.

A request fails when the provider raises, when its reply fails the
schema, or when the caller's ``check`` rejects the payload. Failed
requests are sent again in waves, at most ``max_attempts`` attempts in
all, with one backoff sleep before a wave that follows a failed provider
call. With a ``nudge``, attempt k carries a note naming the attempt and
the nudge, and is looked up in the cache first. Without one, a retry
repeats the same bytes, whose answer was never stored, so each request
is looked up in the cache once.

Embeddings go through a :class:`SegmentStore` in the cache directory,
under the cache's provider scope (a temporary file when there is no
cache): only texts it does not hold are sent to the provider, and
``embed_texts`` returns the rows of every text as stored, to be read
back in chunks, so no caller holds the whole n×d matrix.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ..errors import ProviderError, SchemaInvalid, UsageError
from .cache import EmbeddingRows, ResponseCache, SegmentStore
from .providers import Provider, StructuredRequest, StructuredResponse
from .schema import validate_payload

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    max_in_flight: int = 8
    backoff_base: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1 or self.max_in_flight < 1:
            raise UsageError("retry policy requires at least one attempt and one slot")


@dataclass
class BatchReport:
    submitted: int = 0
    succeeded: int = 0
    failed: list[tuple[str, str]] = field(default_factory=list)
    input_tokens: int = 0
    output_tokens: int = 0
    cache_hits: int = 0

    def reconciles(self) -> bool:
        return self.submitted == self.succeeded + len(self.failed)


@dataclass
class _Outcome:
    response: StructuredResponse | None = None
    error_class: str = ""
    input_tokens: int = 0
    output_tokens: int = 0


class BatchManager:
    """Runs structured-request batches against one provider."""

    def __init__(
        self,
        provider: Provider,
        cache: ResponseCache | None = None,
        policy: RetryPolicy | None = None,
    ):
        self.provider = provider
        self.cache = cache
        self.policy = policy or RetryPolicy()
        # embeddings share the chat cache's directory and provider scope;
        # without a cache they are spooled to a temporary file
        if cache is None:
            self.embeddings = SegmentStore(None)
        else:
            self.embeddings = SegmentStore(cache.directory, cache.scope)

    def submit_batch(
        self,
        requests: Sequence[StructuredRequest],
        check: Callable[[int, dict], object] | None = None,
        nudge: str = "",
    ) -> tuple[list[StructuredResponse], BatchReport]:
        """Answer each request, retrying failures; see the module docstring.

        ``check(index, payload)`` may raise :class:`SchemaInvalid` to reject
        the reply to ``requests[index]``; its return value is ignored.
        """
        ids = [request.request_id for request in requests]
        if len(set(ids)) != len(ids):
            raise UsageError("request_id values must be unique within a batch")

        report = BatchReport(submitted=len(requests))
        policy = self.policy
        # threads help only while calls wait on the network; for in-process
        # providers they would contend for the GIL, and the ordered loop lets
        # a duplicate later in the batch hit the first one's answer
        pooled = policy.max_in_flight > 1 and getattr(self.provider, "waits_on_io", False)
        sent = list(requests)
        fingerprints = [request.fingerprint() for request in sent]
        replies: list[StructuredResponse | None] = [None] * len(sent)
        errors = [""] * len(sent)
        pending: Sequence[int] = range(len(sent))
        throttled = False
        for attempt in range(1, policy.max_attempts + 1):
            if not pending:
                break
            if throttled and policy.backoff_base > 0:
                time.sleep(policy.backoff_base * 2 ** (attempt - 2))
            if attempt > 1 and nudge:
                note = f"\n(attempt {attempt}: the previous reply violated the rules; {nudge})"
                for index in pending:
                    original = requests[index]
                    sent[index] = replace(original, user_prompt=original.user_prompt + note)
                    fingerprints[index] = sent[index].fingerprint()
            # a plain retry repeats bytes whose answer was never stored
            lookup = attempt == 1 or bool(nudge)
            fetched: list[tuple[int, _Outcome]] = []
            misses: list[int] = []
            for index in pending:
                if lookup:
                    replies[index] = self._from_cache(sent[index], fingerprints[index])
                if replies[index] is not None:
                    report.cache_hits += 1
                elif pooled:
                    misses.append(index)
                else:
                    fetched.append((index, self._fetch(sent[index], fingerprints[index], attempt)))
            if misses:
                with ThreadPoolExecutor(max_workers=min(policy.max_in_flight, len(misses))) as pool:
                    outcomes = pool.map(
                        lambda index: self._fetch(sent[index], fingerprints[index], attempt),
                        misses,
                    )
                    fetched.extend(zip(misses, outcomes))
            throttled = False
            for index, outcome in fetched:
                report.input_tokens += outcome.input_tokens
                report.output_tokens += outcome.output_tokens
                replies[index] = outcome.response
                errors[index] = outcome.error_class
                throttled = throttled or outcome.response is None
            if check is not None:
                for index in pending:
                    if replies[index] is None:
                        continue
                    try:
                        check(index, replies[index].payload)
                    except SchemaInvalid as exc:
                        log.info("request %s attempt %d rejected: %s", ids[index], attempt, exc)
                        replies[index] = None
                        errors[index] = exc.error_class
            pending = [index for index in pending if replies[index] is None]

        responses: list[StructuredResponse] = []
        for request_id, reply, error_class in zip(ids, replies, errors):
            if reply is None:
                report.failed.append((request_id, error_class))
            else:
                responses.append(reply)
        report.succeeded = len(responses)
        return responses, report

    def _from_cache(
        self, request: StructuredRequest, fingerprint: str
    ) -> StructuredResponse | None:
        if self.cache is None:
            return None
        raw = self.cache.get(fingerprint)
        if raw is None:
            return None
        try:
            payload = validate_payload(raw, request.output_schema)
        except SchemaInvalid:
            log.warning("cache entry for %s is invalid; refetching", request.request_id)
            return None
        return StructuredResponse(request.request_id, payload, raw)

    def _fetch(self, request: StructuredRequest, fingerprint: str, attempt: int) -> _Outcome:
        """One provider call; a schema-valid reply is stored in the cache."""
        outcome = _Outcome()
        try:
            result = self.provider.complete(request)
            outcome.input_tokens = result.input_tokens
            outcome.output_tokens = result.output_tokens
            payload = validate_payload(result.raw, request.output_schema)
        except SchemaInvalid as exc:
            outcome.error_class = exc.error_class
            log.info("request %s attempt %d rejected: %s", request.request_id, attempt, exc)
        except ProviderError as exc:
            outcome.error_class = "ProviderError"
            log.info("request %s attempt %d failed: %s", request.request_id, attempt, exc)
        else:
            if self.cache is not None:
                self.cache.put(fingerprint, result.raw)
            outcome.response = StructuredResponse(request.request_id, payload, result.raw)
        return outcome

    def embed_texts(self, texts: Sequence[str], chunk_size: int = 256) -> EmbeddingRows:
        """Embed texts, sending only those not in the embedding store.

        The misses go to the provider once each, in text order, in chunks of
        ``chunk_size``; a failed chunk is retried, and exhaustion raises
        :class:`ProviderError` naming the failed indexes. Every chunk must
        be a finite 2-D matrix with one row per text, as wide as every
        other row, stored ones included. Returns the rows of all texts, in
        order, as stored.
        """
        if not texts:
            raise UsageError("embed_texts requires at least one text")
        if any(not text for text in texts):
            empties = [index for index, text in enumerate(texts) if not text]
            raise UsageError(f"empty texts at indexes {empties}")
        store = self.embeddings
        locations = [store.find(text) for text in texts]
        widths = {location[2] for location in locations if location is not None}
        if len(widths) > 1:
            raise ProviderError("embedding dimension changed mid-run")
        width = widths.pop() if widths else None
        misses = list(dict.fromkeys(t for t, location in zip(texts, locations) if location is None))
        for start in range(0, len(misses), chunk_size):
            chunk = misses[start : start + chunk_size]
            vectors = self._embed_chunk(texts, chunk)
            if width is None:
                width = vectors.shape[1]
            elif vectors.shape[1] != width:
                raise ProviderError("embedding dimension changed mid-run")
            store.append(chunk, np.ascontiguousarray(vectors), width)
        if misses:
            locations = [location or store.find(text) for text, location in zip(texts, locations)]
        return EmbeddingRows(store, locations)

    def _embed_chunk(self, texts: Sequence[str], chunk: list[str]) -> np.ndarray:
        """One chunk of embeddings with the batch retry policy, checked."""
        error: Exception | None = None
        for attempt in range(1, self.policy.max_attempts + 1):
            try:
                vectors = self.provider.embed(chunk)
                break
            except ProviderError as exc:
                error = exc
                if attempt < self.policy.max_attempts and self.policy.backoff_base > 0:
                    time.sleep(self.policy.backoff_base * 2 ** (attempt - 1))
        else:
            sent = set(chunk)
            failed = [index for index, text in enumerate(texts) if text in sent]
            raise ProviderError(f"embedding failed for texts {failed}: {error}")
        try:
            vectors = np.asarray(vectors, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ProviderError(f"provider returned malformed embeddings: {exc}") from exc
        if vectors.ndim != 2:
            raise ProviderError(f"provider returned {vectors.ndim}-D embeddings, not 2-D")
        if vectors.shape[0] != len(chunk):
            raise ProviderError("provider returned wrong number of embeddings")
        if not np.isfinite(vectors).all():
            raise ProviderError("provider returned embeddings that are not finite")
        return vectors
