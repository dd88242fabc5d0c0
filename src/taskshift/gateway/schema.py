"""Declarative output schemas and payload validation.

Every provider response is validated against the schema attached to its
request before anything downstream touches it. Violations raise the named
error classes from :mod:`taskshift.errors` with a JSON-path style location.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from ..errors import EnumViolation, MissingField, RangeViolation, SchemaInvalid, TypeMismatch

KINDS = ("string", "number", "integer", "object", "array")


@dataclass(frozen=True)
class FieldSpec:
    """One named field: scalar with constraints, or a nested container."""

    name: str
    kind: str
    required: bool = True
    minimum: float | None = None
    maximum: float | None = None
    choices: tuple = ()
    item: "FieldSpec | None" = None
    fields: tuple["FieldSpec", ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")

    def to_dict(self) -> dict:
        spec: dict = {"name": self.name, "kind": self.kind, "required": self.required}
        if self.minimum is not None:
            spec["minimum"] = self.minimum
        if self.maximum is not None:
            spec["maximum"] = self.maximum
        if self.choices:
            spec["choices"] = list(self.choices)
        if self.item is not None:
            spec["item"] = self.item.to_dict()
        if self.fields:
            spec["fields"] = [f.to_dict() for f in self.fields]
        return spec


@dataclass(frozen=True)
class Schema:
    """A named object schema; the root payload must be a JSON object."""

    name: str
    fields: tuple[FieldSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.fields:
            raise ValueError("schema must declare at least one field")
        # every request fingerprint splices this text in; kept out of the
        # dataclass fields, so equality and hashing do not see it
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        object.__setattr__(self, "_canonical", canonical)

    def to_dict(self) -> dict:
        return {"name": self.name, "fields": [f.to_dict() for f in self.fields]}

    def canonical(self) -> str:
        return self._canonical


def validate(payload: object, schema: Schema) -> dict:
    """Validate a decoded payload tree; returns it unchanged on success."""
    if not isinstance(payload, dict):
        raise TypeMismatch("$", f"expected object, got {type(payload).__name__}")
    _validate_fields(payload, schema.fields, "$")
    return payload


def validate_payload(raw: str, schema: Schema) -> dict:
    """Decode raw provider text as JSON and validate it against ``schema``."""
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaInvalid("$", f"payload is not valid JSON: {exc.msg}") from exc
    return validate(payload, schema)


def _validate_fields(obj: dict, specs: tuple[FieldSpec, ...], path: str) -> None:
    for spec in specs:
        where = f"{path}.{spec.name}"
        if spec.name not in obj:
            if spec.required:
                raise MissingField(where, "required field absent")
            continue
        _validate_value(obj[spec.name], spec, where)


def _validate_value(value: object, spec: FieldSpec, path: str) -> None:
    if spec.kind == "string":
        if not isinstance(value, str):
            raise TypeMismatch(path, f"expected string, got {type(value).__name__}")
        if spec.choices and value not in spec.choices:
            raise EnumViolation(path, f"{value!r} not in {sorted(spec.choices)}")
    elif spec.kind in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatch(path, f"expected {spec.kind}, got {type(value).__name__}")
        if spec.kind == "integer" and not isinstance(value, int):
            raise TypeMismatch(path, f"expected integer, got {type(value).__name__}")
        if spec.choices:
            if value not in spec.choices:
                raise EnumViolation(path, f"{value!r} not in {sorted(spec.choices)}")
            return
        # NaN passes both range checks; an int beyond float range is finite
        if isinstance(value, float) and not math.isfinite(value):
            raise RangeViolation(path, f"{value} is not a finite number")
        if spec.minimum is not None and value < spec.minimum:
            raise RangeViolation(path, f"{value} below minimum {spec.minimum}")
        if spec.maximum is not None and value > spec.maximum:
            raise RangeViolation(path, f"{value} above maximum {spec.maximum}")
    elif spec.kind == "object":
        if not isinstance(value, dict):
            raise TypeMismatch(path, f"expected object, got {type(value).__name__}")
        _validate_fields(value, spec.fields, path)
    elif spec.kind == "array":
        if not isinstance(value, list):
            raise TypeMismatch(path, f"expected array, got {type(value).__name__}")
        if spec.item is None:
            return
        for index, element in enumerate(value):
            _validate_value(element, spec.item, f"{path}[{index}]")
