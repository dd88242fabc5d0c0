"""Batch submission with retries, caching and, for remote providers, threads.

Every request gets exactly one reply, lined up with the requests by index:
the checked value of its payload, or ``None`` and a failure entry. Schema
validation runs on every payload, including cache hits. Chat requests and
embedding chunks share one attempt loop and one dispatch, which sends only
what the cache lacks, once per distinct request. Only providers whose calls
wait on I/O (``waits_on_io``) get a thread pool, bounded by ``max_in_flight``,
whose threads only call the provider; every other provider runs in one ordered
loop. Each reply is checked and stored on the calling thread, in input order.

A request fails when the provider raises, when its reply fails the
schema, or when the caller's ``check`` rejects the payload. Failed
requests and chunks are sent again in waves, at most ``max_attempts``
attempts in all, with one backoff sleep before a wave that follows a
failed provider call. With a ``nudge``, attempt k carries a note naming
the attempt and the nudge, and is looked up in the cache first, unless the
provider refused the last attempt (``ProviderRefused``). A refused request,
like any retry without a nudge, repeats the bytes last sent, whose answer
was never stored, so an answer won after a refusal is stored under the
request that a warm rerun sends first. A manager built without a cache
keeps its answers in an anonymous temporary one.

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
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from ..errors import ProviderError, ProviderRefused, SchemaInvalid, UsageError
from .cache import ArrayStore, EmbeddingRows, ResponseCache, SegmentStore
from .providers import Provider, StructuredRequest
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
    ) -> tuple[list, BatchReport]:
        """Answer each request, retrying failures; see the module docstring.

        Returns one reply per request, in request order: what
        ``check(index, payload)`` returns for the payload that answered
        ``requests[index]`` (the payload itself without a ``check``), or
        ``None`` when every attempt failed; ``report.failed`` names those
        requests in the same order. ``check`` rejects a payload by raising
        :class:`SchemaInvalid`; a ``None`` from it raises :class:`UsageError`.
        """
        ids = [request.request_id for request in requests]
        if len(set(ids)) != len(ids):
            raise UsageError("request_id values must be unique within a batch")

        report = BatchReport(submitted=len(requests))
        sent = list(requests)
        fingerprints = [request.fingerprint() for request in sent]
        replies: list = [None] * len(sent)
        errors = [""] * len(sent)
        # whether the provider refused the last attempt, so that no reply was seen
        refused = [False] * len(sent)

        def settle(group: list[int], raw: str) -> SchemaInvalid | None:
            """Give each index of ``group`` the payload of ``raw``, or return why it fails."""
            try:
                payload = validate_payload(raw, sent[group[0]].output_schema)
            except SchemaInvalid as exc:
                return exc
            for index in group:
                replies[index] = payload

        def wave(attempt: int, pending: Sequence[int]) -> tuple[list[int], bool]:
            if attempt > 1 and nudge:
                note = f"\n(attempt {attempt}: the previous reply violated the rules; {nudge})"
                for index in pending:
                    if refused[index]:  # sent again as it was
                        continue
                    original = requests[index]
                    sent[index] = original._replace(user_prompt=original.user_prompt + note)
                    fingerprints[index] = sent[index].fingerprint()
            groups: dict[str, list[int]] = {}
            for index in pending:
                groups.setdefault(fingerprints[index], []).append(index)
            misses = []
            for fingerprint, group in groups.items():
                # a retry without a new nudge repeats bytes with no passing answer stored
                fresh = attempt == 1 or (nudge and not refused[group[0]])
                if fresh and (raw := self.cache.get(fingerprint)) is not None:
                    if settle(group, raw) is None:
                        report.cache_hits += len(group)
                        continue
                    log.warning("cache entry for %s is invalid; refetching", ids[group[0]])
                misses.append(group)
            throttled = False
            for group, result in self._dispatch(
                misses, lambda group: self.provider.complete(sent[group[0]])
            ):
                for index in group:
                    refused[index] = isinstance(result, ProviderRefused)
                if isinstance(result, ProviderError):
                    error = result
                else:
                    report.input_tokens += result.input_tokens
                    report.output_tokens += result.output_tokens
                    if (error := settle(group, result.raw)) is None:
                        self.cache.put(fingerprints[group[0]], result.raw)
                        report.cache_hits += len(group) - 1  # the duplicates
                        continue
                log.info("request %s attempt %d failed: %s", ids[group[0]], attempt, error)
                throttled = True
                for index in group:
                    errors[index] = error.error_class
            if check is not None:
                for index in pending:
                    if replies[index] is None:
                        continue
                    try:
                        value = check(index, replies[index])
                    except SchemaInvalid as exc:
                        log.info("request %s attempt %d rejected: %s", ids[index], attempt, exc)
                        replies[index] = None
                        errors[index] = exc.error_class
                        continue
                    if value is None:
                        raise UsageError(
                            f"check returned None for {ids[index]}; it rejects by raising SchemaInvalid"
                        )
                    replies[index] = value
            return [index for index in pending if replies[index] is None], throttled

        self._attempts(len(sent), wave)
        report.failed = [(ids[i], errors[i]) for i, reply in enumerate(replies) if reply is None]
        report.succeeded = len(replies) - len(report.failed)
        return replies, report

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

        def wave(attempt: int, pending: Sequence[int]) -> tuple[list[int], bool]:
            nonlocal error, width
            failed = []
            for index, reply in self._dispatch(
                pending, lambda index: self.provider.embed(chunks[index])
            ):
                if isinstance(reply, ProviderError):
                    log.info("embedding chunk %d attempt %d failed: %s", index, attempt, reply)
                    error = reply
                    failed.append(index)
                    continue
                vectors = _checked_rows(reply, len(chunks[index]), width)
                width = vectors.shape[1]
                store.append(chunks[index], [vectors], width)
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

    def _dispatch(
        self, items: Sequence[T], call: Callable[[T], object]
    ) -> Iterator[tuple[T, object]]:
        """Yield ``(item, call(item))`` in item order, a raised :class:`ProviderError` as the value.

        Threads help only while calls wait on the network; for in-process
        providers they would contend for the GIL.
        """

        def guarded(item: T) -> object:
            try:
                return call(item)
            except ProviderError as exc:
                return exc

        workers = min(self.policy.max_in_flight, len(items))
        if workers > 1 and getattr(self.provider, "waits_on_io", False):
            # imported here: only providers that wait on the network start a pool
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                # a failure is raised in the worker and read from its future: one
                # returned as a value would stay bound in the worker's frame, which
                # its traceback reaches, a reference cycle per failed call
                futures = [pool.submit(call, item) for item in items]
                try:
                    for item, future in zip(items, futures):
                        failure = future.exception()
                        yield item, failure if isinstance(failure, ProviderError) else future.result()
                finally:
                    pool.shutdown(cancel_futures=True)
        else:
            for item in items:
                yield item, guarded(item)


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
