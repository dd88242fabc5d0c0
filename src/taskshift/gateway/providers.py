"""Provider abstraction: structured chat calls and text embeddings.

Providers return raw payload text plus token usage; validation happens in
the batch manager. The mock provider is fully deterministic: fixtures are
keyed by request fingerprint, and unknown requests either fail (strict
mode) or fall through to a rule-based synthesizer that derives a plausible
payload from the request itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Protocol, Sequence

import numpy as np

from ..errors import ProviderError, ProviderRefused
from .schema import Schema

_TASK_LINE_RE = re.compile(r"^\s*(-?\d+)\.\s+(.*\S)\s*$", re.MULTILINE)
_BULLET_RE = re.compile(r"^\s*(?:[-*•]|\d+\.)\s+(.*\S)\s*$")


class StructuredRequest(NamedTuple):
    """One chat-style call expecting a schema-conformant reply."""

    request_id: str
    system_prompt: str
    user_prompt: str
    output_schema: Schema

    def fingerprint(self) -> str:
        return request_fingerprint(self.system_prompt, self.user_prompt, self.output_schema)


class StructuredResponse(NamedTuple):
    request_id: str
    payload: dict
    raw: str


class ProviderResult(NamedTuple):
    raw: str
    input_tokens: int = 0
    output_tokens: int = 0


def request_fingerprint(system_prompt: str, user_prompt: str, schema: Schema) -> str:
    """Stable content hash of (system prompt, user prompt, schema).

    The blob is ``json.dumps({"system": ..., "user": ..., "schema":
    schema.to_dict()}, sort_keys=True, separators=(",", ":"))``, spliced
    from the schema's stored canonical text in key order.
    """
    blob = (
        '{"schema":'
        + schema.canonical()
        + ',"system":'
        + json.dumps(system_prompt)
        + ',"user":'
        + json.dumps(user_prompt)
        + "}"
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def subseed(seed: int, name: str) -> int:
    """A seed for the random draw called ``name`` within a run seeded with ``seed``."""
    return (seed * 1_000_003 + stable_hash(name)) % 2**63


class Provider(Protocol):
    """Anything that can answer structured requests and embed text.

    A provider whose calls wait on the network sets a true class attribute
    ``waits_on_io``; the batch manager runs only those on threads. ``embed``
    returns one row per text, and the batch manager checks the rows.
    """

    def complete(self, request: StructuredRequest) -> ProviderResult: ...

    def embed(self, texts: Sequence[str]) -> np.ndarray | list[list[float]]: ...


@dataclass
class MockProvider:
    """Deterministic in-process provider for tests and dry runs.

    ``fixtures`` maps request fingerprints to payload dicts, returned
    verbatim. Misses raise in strict mode; otherwise the synthesizer
    builds a payload from the request text and schema. Embeddings are
    hash-seeded pseudo-random vectors, identical for identical strings.
    """

    waits_on_io: ClassVar[bool] = False

    fixtures: dict[str, dict] = field(default_factory=dict)
    strict: bool = False
    dimension: int = 768

    def complete(self, request: StructuredRequest) -> ProviderResult:
        if self.fixtures and (fingerprint := request.fingerprint()) in self.fixtures:
            payload = self.fixtures[fingerprint]
        elif self.strict:
            raise ProviderError(f"no fixture for request {request.request_id}")
        else:
            payload = synthesize_payload(request)
        raw = json.dumps(payload, sort_keys=True)
        prompt_chars = len(request.system_prompt) + len(request.user_prompt)
        return ProviderResult(raw, input_tokens=prompt_chars // 4, output_tokens=len(raw) // 4)

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        vectors = np.empty((len(texts), self.dimension))
        for row, text in enumerate(texts):
            rng = np.random.default_rng(stable_hash("embed:" + text))
            vectors[row] = rng.standard_normal(self.dimension)
        return vectors


def synthesize_payload(request: StructuredRequest) -> dict:
    """Rule-based default payload for a fixture miss, keyed on schema name."""
    name = request.output_schema.name
    if name == "task_extraction":
        return _synthesize_tasks(request.user_prompt)
    if name == "cluster_label":
        listed = _tasks_between(request.user_prompt, "tasks")
        return {"label": _label_from_texts([text for _, text in listed])}
    if name == "focus_choice":
        listed = _tasks_between(request.user_prompt, "tasks")
        number = min(number for number, _ in listed)
        text = dict(listed)[number]
        return {
            "task_number": number,
            "reasoning": f"Concentrating effort on '{text}' compounds the value "
            "of the remaining human-led work.",
        }
    if name == "theme_flags":
        reasoning = _between(request.user_prompt, "reasoning")
        names = [spec.name for spec in request.output_schema.fields]
        seed = stable_hash("themes:" + reasoning)
        count = 1 + seed % 3
        chosen = {names[(seed // (13**rank)) % len(names)] for rank in range(count)}
        return {name_: 1 if name_ in chosen else 0 for name_ in names}
    if name == "task_rewrite":
        listed = _tasks_between(request.user_prompt, "tasks")
        return {
            "tasks": [
                {"task_number": number, "label": "No change", "new_task_details": text}
                for number, text in listed
            ]
        }
    if name == "task_mix":
        listed = _tasks_between(request.user_prompt, "remaining_tasks")
        categories = _category_choices(request.output_schema)
        return {
            "tasks": [
                {
                    "task_number": number,
                    "task_details": text,
                    "task_category": categories[stable_hash("cat:" + text) % len(categories)],
                }
                for number, text in listed
            ]
        }
    raise ProviderError(f"no synthesizer for schema {name!r}")


def _score_for(text: str) -> float:
    return (stable_hash("score:" + text.strip().lower()) % 11) / 10.0


def _between(prompt: str, tag: str) -> str:
    match = re.search(rf"<{tag}>(.*?)</{tag}>", prompt, re.DOTALL)
    if match is None:
        raise ProviderError(f"prompt lacks <{tag}> block")
    return match.group(1)


def _tasks_between(prompt: str, tag: str) -> list[tuple[int, str]]:
    block = _between(prompt, tag)
    listed = [(int(num), text) for num, text in _TASK_LINE_RE.findall(block)]
    if not listed:
        raise ProviderError(f"no task lines inside <{tag}> block")
    return listed


def _synthesize_tasks(prompt: str) -> dict:
    body = _between(prompt, "job_description")
    candidates = []
    for line in body.splitlines():
        match = _BULLET_RE.match(line)
        if match:
            candidates.append(match.group(1))
    if len(candidates) < 2:
        candidates = [
            sentence.strip()
            for sentence in re.split(r"(?<=[.!?])\s+", body)
            if len(sentence.split()) >= 4
        ]
    tasks = [
        {
            "task_number": position,
            "task_details": text.rstrip("."),
            "exposure_score": _score_for(text.rstrip(".")),
        }
        for position, text in enumerate(candidates, start=1)
    ]
    return {"tasks": tasks}


def _label_from_texts(texts: Sequence[str]) -> str:
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(word for word in re.findall(r"[a-z]+", text.lower()) if len(word) > 3)
    if not counts:
        return "General Tasks"
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return " ".join(word.capitalize() for word, _ in ranked[:2])


def _category_choices(schema: Schema) -> tuple:
    for spec in schema.fields:
        if spec.kind == "array" and spec.item is not None:
            for inner in spec.item.fields:
                if inner.name == "task_category":
                    return inner.choices
    raise ProviderError("task_mix schema lacks category choices")


@dataclass
class HttpProvider:
    """Minimal chat-completions + embeddings HTTP client.

    Credentials come from the environment variable named by ``api_key_env``;
    sampling is pinned to the most deterministic settings the endpoint
    offers (temperature 0).
    """

    waits_on_io: ClassVar[bool] = True

    base_url: str
    model: str
    embed_model: str = ""
    api_key_env: str = "TASKSHIFT_API_KEY"
    temperature: float = 0.0
    max_tokens: int = 4096
    timeout: float = 120.0

    def build_chat_body(self, request: StructuredRequest) -> dict:
        return {
            "model": self.model,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "response_format": {"type": "json_object"},
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {
                    "role": "user",
                    "content": request.user_prompt
                    + "\n\nRespond with a single JSON object conforming to: "
                    + request.output_schema.canonical(),
                },
            ],
        }

    def complete(self, request: StructuredRequest) -> ProviderResult:
        data = self._post("/chat/completions", self.build_chat_body(request))
        try:
            raw = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed completion response: {exc}") from exc
        if not isinstance(raw, str):
            raise ProviderError(f"malformed completion response: content is {type(raw).__name__}")
        # token counts are advisory: a missing or null one counts as 0
        usage = data.get("usage")
        usage = {} if usage is None else usage
        if not isinstance(usage, dict):
            raise ProviderError(f"malformed completion response: usage is {type(usage).__name__}")
        counts = [usage.get(key) for key in ("prompt_tokens", "completion_tokens")]
        counts = [0 if count is None else count for count in counts]
        if any(type(count) is not int for count in counts):
            raise ProviderError(f"malformed completion response: token counts {counts!r}")
        return ProviderResult(raw, input_tokens=counts[0], output_tokens=counts[1])

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        data = self._post("/embeddings", {"model": self.embed_model or self.model, "input": list(texts)})
        try:
            return [entry["embedding"] for entry in data["data"]]
        except (KeyError, TypeError) as exc:
            raise ProviderError(f"malformed embedding response: {exc}") from exc

    def _post(self, path: str, body: dict) -> dict:
        # imported here: urllib.request pulls in http.client, ssl and email,
        # which no run with an in-process provider needs
        import http.client
        import urllib.error
        import urllib.request

        key = os.environ.get(self.api_key_env)
        if not key:
            raise ProviderError(f"environment variable {self.api_key_env} is not set")
        request = urllib.request.Request(
            self.base_url.rstrip("/") + path,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json", "Authorization": f"Bearer {key}"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise ProviderRefused(f"provider returned HTTP {exc.code}: {exc.reason}") from exc
        # OSError covers URLError, timeouts and resets; IncompleteRead is an HTTPException
        except (OSError, http.client.HTTPException, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProviderRefused(f"provider transport failure: {exc}") from exc
