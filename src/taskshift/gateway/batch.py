"""Batch submission with retries, caching and, for remote providers, threads.

Every request yields exactly one response or one failure entry; results
come back in input order (keyed by request_id, never by arrival). Schema
validation runs on every payload, including cache hits. Chat requests and
embedding chunks share one attempt loop and one dispatch: only providers
whose calls wait on I/O (``waits_on_io``) get a thread pool, bounded by
``max_in_flight``; every other provider runs in one ordered loop.

A request fails when the provider raises, when its reply fails the
schema, or when the caller's ``check`` rejects the payload. Failed
requests and chunks are sent again in waves, at most ``max_attempts``
attempts in all, with one backoff sleep before a wave that follows a
failed provider call. With a ``nudge``, attempt k carries a note naming
the attempt and the nudge, and is looked up in the cache first. Without
one, a retry repeats the same bytes, whose answer was never stored, so
each request is looked up in the cache once. A manager built without a
cache keeps its answers in an anonymous temporary one.

Embeddings go through a :class:`SegmentStore` in the cache directory,
under the cache's provider scope (a temporary file when the cache has
none): only texts it does not hold are sent to the provider, and
``embed_texts`` returns the rows of every text as stored, to be read
back in chunks, so no caller holds the whole n×d matrix. The numeric
kernels' results go through ``arrays``, an :class:`ArrayStore` in the same
directory under the numeric identity's scope.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from ..errors import ProviderError, SchemaInvalid, UsageError
from .cache import ArrayStore, EmbeddingRows, ResponseCache, SegmentStore
from .providers import Provider, StructuredRequest, StructuredResponse
from .schema import validate_payload

log = logging.getLogger(__name__)

T = TypeVar("T")


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


@dataclass
class _Outcome:
    response: StructuredResponse | None = None
    error_class: str = ""
    input_tokens: int = 0
    output_tokens: int = 0
    cached: bool = False


class BatchManager:
    """Runs structured-request batches against one provider."""

    def __init__(
        self,
        provider: Provider,
        cache: ResponseCache | None = None,
        policy: RetryPolicy | None = None,
    ):
        self.provider = provider
        self.cache = cache if cache is not None else ResponseCache(None)
        self.policy = policy or RetryPolicy()
        # embeddings share the chat cache's directory and provider scope
        self.embeddings = SegmentStore(self.cache.directory, self.cache.scope)
        self.arrays = ArrayStore(self.cache.directory)

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
        sent = list(requests)
        fingerprints = [request.fingerprint() for request in sent]
        replies: list[StructuredResponse | None] = [None] * len(sent)
        errors = [""] * len(sent)

        def wave(attempt: int, pending: Sequence[int]) -> tuple[list[int], bool]:
            if attempt > 1 and nudge:
                note = f"\n(attempt {attempt}: the previous reply violated the rules; {nudge})"
                for index in pending:
                    original = requests[index]
                    sent[index] = replace(original, user_prompt=original.user_prompt + note)
                    fingerprints[index] = sent[index].fingerprint()
            # a plain retry repeats bytes whose answer was never stored
            lookup = attempt == 1 or bool(nudge)
            throttled = False
            for index, outcome in self._dispatch(
                pending, lambda index: self._fetch(sent[index], fingerprints[index], attempt, lookup)
            ):
                report.cache_hits += outcome.cached
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
            return [index for index in pending if replies[index] is None], throttled

        self._attempts(len(sent), wave)
        responses: list[StructuredResponse] = []
        for request_id, reply, error_class in zip(ids, replies, errors):
            if reply is None:
                report.failed.append((request_id, error_class))
            else:
                responses.append(reply)
        report.succeeded = len(responses)
        return responses, report

    def _fetch(
        self, request: StructuredRequest, fingerprint: str, attempt: int, lookup: bool
    ) -> _Outcome:
        """A cache lookup if ``lookup``, else one provider call, whose valid reply is stored."""
        if lookup and (raw := self.cache.get(fingerprint)) is not None:
            try:
                payload = validate_payload(raw, request.output_schema)
            except SchemaInvalid:
                log.warning("cache entry for %s is invalid; refetching", request.request_id)
            else:
                return _Outcome(StructuredResponse(request.request_id, payload, raw), cached=True)
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
            self.cache.put(fingerprint, result.raw)
            outcome.response = StructuredResponse(request.request_id, payload, result.raw)
        return outcome

    def embed_texts(self, texts: Sequence[str], chunk_size: int = 256) -> EmbeddingRows:
        """Embed texts, sending only those not in the embedding store.

        The misses go to the provider once each, in text order, in chunks of
        ``chunk_size``, in the attempt waves of :meth:`submit_batch`; each
        reply is checked and stored on the calling thread, in chunk order.
        Then a chunk still failing raises :class:`ProviderError` naming its
        texts' indexes. Returns the rows of all texts, in order, as stored.
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
        chunks = [misses[start : start + chunk_size] for start in range(0, len(misses), chunk_size)]
        error: ProviderError | None = None

        def embed(index: int) -> object:
            try:
                return self.provider.embed(chunks[index])
            except ProviderError as exc:
                return exc

        def wave(attempt: int, pending: Sequence[int]) -> tuple[list[int], bool]:
            nonlocal error, width
            failed = []
            for index, reply in self._dispatch(pending, embed):
                if isinstance(reply, ProviderError):
                    log.info("embedding chunk %d attempt %d failed: %s", index, attempt, reply)
                    error = reply
                    failed.append(index)
                    continue
                vectors = _checked_rows(reply, len(chunks[index]), width)
                width = vectors.shape[1]
                store.append(chunks[index], vectors, width)
            return failed, bool(failed)

        if failed := self._attempts(len(chunks), wave):
            lost = {text for index in failed for text in chunks[index]}
            indexes = [index for index, text in enumerate(texts) if text in lost]
            raise ProviderError(f"embedding failed for texts {indexes}: {error}")
        if misses:
            locations = [location or store.find(text) for text, location in zip(texts, locations)]
        return EmbeddingRows(store, locations)

    def _attempts(
        self, count: int, wave: Callable[[int, Sequence[int]], tuple[list[int], bool]]
    ) -> Sequence[int]:
        """Run ``wave(attempt, pending)`` over ``range(count)``; return the indexes left.

        ``wave`` returns the indexes still pending and whether a provider call failed.
        """
        policy = self.policy
        pending: Sequence[int] = range(count)
        throttled = False
        for attempt in range(1, policy.max_attempts + 1):
            if not pending:
                break
            if throttled and policy.backoff_base > 0:
                time.sleep(policy.backoff_base * 2 ** (attempt - 2))
            pending, throttled = wave(attempt, pending)
        return pending

    def _dispatch(self, indexes: Sequence[int], call: Callable[[int], T]) -> Iterator[tuple[int, T]]:
        """Yield ``(index, call(index))`` in index order.

        Threads help only while calls wait on the network; for in-process
        providers they would contend for the GIL, and the ordered loop lets
        a duplicate later in a batch hit the first one's answer.
        """
        if self.policy.max_in_flight > 1 and getattr(self.provider, "waits_on_io", False):
            # imported here: only providers that wait on the network start a pool
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=min(self.policy.max_in_flight, len(indexes))) as pool:
                yield from zip(indexes, pool.map(call, indexes))
        else:
            for index in indexes:
                yield index, call(index)


def _checked_rows(reply: object, count: int, width: int | None) -> np.ndarray:
    """The reply as a float64 C-contiguous matrix: 2-D, ``count`` finite rows, ``width`` wide."""
    try:
        vectors = np.ascontiguousarray(reply, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric rows
        raise ProviderError(f"provider returned malformed embeddings: {exc}") from exc
    if vectors.ndim != 2:
        raise ProviderError(f"provider returned {vectors.ndim}-D embeddings, not 2-D")
    if vectors.shape[0] != count:
        raise ProviderError("provider returned wrong number of embeddings")
    if not np.isfinite(vectors).all():
        raise ProviderError("provider returned embeddings that are not finite")
    if width is not None and vectors.shape[1] != width:
        raise ProviderError("embedding dimension changed mid-run")
    return vectors
