"""Response cache kept as append-only JSONL segments.

Each process that stores an answer appends ``[key, raw]`` lines to a
segment of its own, created exclusively under a unique name (time plus
pid), so concurrent runs never write the same file and a run with no
misses creates none. On first use every ``*.jsonl`` segment in the
directory is read, in name order, into memory; the last record for a key
wins. A line that does not decode is the torn tail of a crashed run and
is skipped, so its entry is simply fetched again.

Keys are request fingerprints, qualified by ``scope``: a digest of the
provider identity, so answers from one provider, model or fixture table
are never replayed for another.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from pathlib import Path
from typing import BinaryIO

import orjson


def decode_own(text: str | bytes) -> object:
    """Decode JSON that this program wrote itself, as ``json.loads`` would.

    orjson decodes what it accepts; what it rejects (``NaN`` and
    ``Infinity``, escaped lone surrogates, a torn line) goes to
    ``json.loads``, which decodes or rejects it as before. orjson also turns
    an integer outside [-2**63, 2**64) into a float without a word, so JSON
    from outside the program stays on ``json.loads``: the corpus, provider
    payloads, fixtures, config and manifests. In a payload such an integer
    would fail validation as a ``TypeMismatch`` instead of a
    ``RangeViolation``; in the corpus an integer ``vacancy_id`` would become
    a float string. The program's own artifacts and cache lines hold no such
    integer: theirs are counts, positions and task numbers, and a new-task
    number outside that range is refused when the answer is checked.
    """
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        return json.loads(text)


class ResponseCache:
    def __init__(self, directory: str | Path, scope: str = ""):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.scope = scope
        self._entries: dict[str, str] | None = None
        self._segment: BinaryIO | None = None
        self._lock = threading.Lock()

    def get(self, fingerprint: str) -> str | None:
        return self._loaded().get(self.scope + fingerprint)

    def put(self, fingerprint: str, raw: str) -> None:
        key = self.scope + fingerprint
        line = (json.dumps([key, raw]) + "\n").encode("utf-8")
        entries = self._loaded()
        with self._lock:
            if self._segment is None:
                self._segment = self._create_segment()
            self._segment.write(line)
            self._segment.flush()
            entries[key] = raw

    def _loaded(self) -> dict[str, str]:
        if self._entries is None:
            with self._lock:
                if self._entries is None:
                    self._entries = self._read_segments()
        return self._entries

    def _read_segments(self) -> dict[str, str]:
        entries: dict[str, str] = {}
        for path in sorted(self.directory.glob("*.jsonl")):
            with path.open("rb") as handle:
                for line in handle:
                    try:
                        key, raw = decode_own(line)
                    except (ValueError, TypeError):
                        continue
                    entries[key] = raw
        return entries

    def _create_segment(self) -> BinaryIO:
        while True:
            path = self.directory / f"{time.time_ns():020d}-{os.getpid()}.jsonl"
            try:
                handle = path.open("xb")
            except FileExistsError:
                continue
            weakref.finalize(self, handle.close)
            return handle
