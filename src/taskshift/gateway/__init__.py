"""Provider abstraction, schema validation, batching and caching."""

from .batch import BatchManager, BatchReport, RetryPolicy
from .cache import EmbeddingRows, ResponseCache, SegmentStore
from .providers import (
    HttpProvider,
    MockProvider,
    Provider,
    ProviderResult,
    StructuredRequest,
    StructuredResponse,
    request_fingerprint,
    stable_hash,
)
from .schema import FieldSpec, Schema, validate, validate_payload

__all__ = [
    "BatchManager",
    "BatchReport",
    "RetryPolicy",
    "ResponseCache",
    "EmbeddingRows",
    "SegmentStore",
    "HttpProvider",
    "MockProvider",
    "Provider",
    "ProviderResult",
    "StructuredRequest",
    "StructuredResponse",
    "request_fingerprint",
    "stable_hash",
    "FieldSpec",
    "Schema",
    "validate",
    "validate_payload",
]
