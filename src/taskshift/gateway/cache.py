"""Response cache kept as append-only JSONL segments, and an embedding store.

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

Embeddings live in the same directory, one vector per key, where the key
is a keyed BLAKE2b digest of the text under the same ``scope``. Each
process that stores a vector writes two files of its own, created the
same way: ``<name>.vectors`` holds the rows as raw native-endian float64
bytes, back to back, and ``<name>.vectors.index`` holds one
``<key> <byte offset> <width>`` line per row, appended only after the
row's bytes are written. Neither matches the chat reader's ``*.jsonl``
glob. On first use every index is read, in name order (the last record
for a key wins), but no vector is: rows are read back on demand, a chunk
at a time. A crash can leave a torn tail, an index line without its
newline or a record whose row runs past the end of its segment; either
is skipped, so the text is embedded again.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import weakref
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np
import orjson

from ..errors import DataError


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


# a vector's place in the store: segment number, byte offset, width in floats
Location = tuple[int, int, int]


class EmbeddingStore:
    """Float64 embedding rows keyed by scope + text; see the module docstring.

    Without a ``directory`` the rows go to an anonymous temporary file and
    the index is kept in memory only, so callers read rows back the same
    way whether or not a cache is configured. One store is used by one
    thread at a time.
    """

    def __init__(self, directory: str | Path | None, scope: str = ""):
        self.directory = None if directory is None else Path(directory)
        scope_key = hashlib.blake2b(scope.encode("utf-8", "surrogatepass")).digest()
        self._hasher = hashlib.blake2b(digest_size=16, key=scope_key)
        self._entries: dict[bytes, Location] | None = None
        self._segments: list[BinaryIO | Path] = []  # a path until its first read
        self._own: tuple[int, BinaryIO, BinaryIO | None] | None = None
        self._end = 0

    def find(self, text: str) -> Location | None:
        return self._loaded().get(self._key(text))

    def append(self, texts: Sequence[str], vectors: np.ndarray) -> None:
        """Store one row of ``vectors`` per text; the rows are written before their index lines."""
        entries = self._loaded()
        if self._own is None:
            self._own = self._create_segment()
        number, segment, index = self._own
        rows = np.ascontiguousarray(vectors, dtype=np.float64)
        width = rows.shape[1]
        segment.seek(self._end)
        _write_all(segment, memoryview(rows).cast("B"))
        lines = []
        for row, text in enumerate(texts):
            key = self._key(text)
            offset = self._end + row * width * 8
            lines.append(f"{key.hex()} {offset} {width}\n")
            entries[key] = (number, offset, width)
        if index is not None:
            _write_all(index, "".join(lines).encode("ascii"))
        self._end += rows.nbytes

    def read(self, segment: int, offset: int, out: memoryview) -> None:
        """Fill ``out`` with the bytes stored in ``segment`` from ``offset`` on."""
        handle = self._segments[segment]
        if isinstance(handle, Path):
            handle = self._segments[segment] = handle.open("rb", buffering=0)
            weakref.finalize(self, handle.close)
        handle.seek(offset)
        while out:
            got = handle.readinto(out)
            if not got:
                raise DataError(f"embedding segment {handle.name} ends before its indexed rows")
            out = out[got:]

    def _key(self, text: str) -> bytes:
        hasher = self._hasher.copy()
        hasher.update(text.encode("utf-8", "surrogatepass"))
        return hasher.digest()

    def _loaded(self) -> dict[bytes, Location]:
        if self._entries is None:
            self._entries = self._read_indexes()
        return self._entries

    def _read_indexes(self) -> dict[bytes, Location]:
        entries: dict[bytes, Location] = {}
        if self.directory is None:
            return entries
        for index in sorted(self.directory.glob("*.vectors.index")):
            segment = index.with_suffix("")
            try:
                size = segment.stat().st_size
            except FileNotFoundError:
                continue
            number = len(self._segments)
            self._segments.append(segment)
            with index.open("rb") as handle:
                for line in handle:
                    try:
                        key, offset, width = line.split()
                        location = (number, int(offset), int(width))
                        key = bytes.fromhex(key.decode("ascii"))
                    except ValueError:
                        continue
                    # a line without its newline, or a row cut short, is a torn tail
                    if line.endswith(b"\n") and location[1] + 8 * location[2] <= size:
                        entries[key] = location
        return entries

    def _create_segment(self) -> tuple[int, BinaryIO, BinaryIO | None]:
        if self.directory is None:
            segment, index = tempfile.TemporaryFile(buffering=0), None
        else:
            while True:
                stem = f"{time.time_ns():020d}-{os.getpid()}.vectors"
                try:
                    segment = (self.directory / stem).open("x+b", buffering=0)
                except FileExistsError:
                    continue
                index = (self.directory / f"{stem}.index").open("xb", buffering=0)
                weakref.finalize(self, index.close)
                break
        weakref.finalize(self, segment.close)
        self._segments.append(segment)
        return len(self._segments) - 1, segment, index


class EmbeddingRows:
    """n embedding rows in an :class:`EmbeddingStore`, in text order, read on demand.

    Only each row's location is held; ``readinto`` copies a run of rows
    into a caller's buffer, one read per stretch of rows that lie back to
    back in one segment.
    """

    def __init__(self, store: EmbeddingStore, locations: Sequence[Location]):
        self._store = store
        self._segments = np.array([location[0] for location in locations], dtype=np.int64)
        self._offsets = np.array([location[1] for location in locations], dtype=np.int64)
        self.shape = (len(locations), locations[0][2])

    def readinto(self, start: int, out: np.ndarray) -> None:
        """Fill ``out``, a C-contiguous float64 (m, d) array, with rows ``start`` on."""
        stop = start + out.shape[0]
        segments, offsets = self._segments[start:stop], self._offsets[start:stop]
        row_bytes = 8 * self.shape[1]
        breaks = (segments[1:] != segments[:-1]) | (offsets[1:] != offsets[:-1] + row_bytes)
        bounds = [0, *(np.flatnonzero(breaks) + 1).tolist(), len(segments)]
        for first, end in zip(bounds, bounds[1:]):
            view = memoryview(out[first:end]).cast("B")
            self._store.read(int(segments[first]), int(offsets[first]), view)


def _write_all(handle: BinaryIO, data: memoryview | bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[handle.write(view) :]
