"""Provider abstraction, schema validation, batching and caching."""

from .batch import BatchManager, BatchReport, RetryPolicy
from .cache import ArrayStore, EmbeddingRows, ResponseCache, SegmentStore
from .providers import (
    HttpProvider,
    MockProvider,
    Provider,
    ProviderResult,
    StructuredRequest,
    request_fingerprint,
    stable_hash,
    subseed,
)
from .schema import FieldSpec, Schema, validate, validate_payload

__all__ = [
    "BatchManager",
    "BatchReport",
    "RetryPolicy",
    "ResponseCache",
    "ArrayStore",
    "EmbeddingRows",
    "SegmentStore",
    "HttpProvider",
    "MockProvider",
    "Provider",
    "ProviderResult",
    "StructuredRequest",
    "request_fingerprint",
    "stable_hash",
    "subseed",
    "FieldSpec",
    "Schema",
    "validate",
    "validate_payload",
]
