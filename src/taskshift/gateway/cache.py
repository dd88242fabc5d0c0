"""Provider answers and embedding rows, kept in one append-only segment store.

A :class:`SegmentStore` maps a text, under a ``scope``, to one record of
bytes. The key is a 16-byte BLAKE2b digest of the text, keyed by a digest
of the scope: the provider identity, so records from one provider, model
or fixture table are never replayed for another. Each process that stores
a record writes two files of its own, created exclusively under a unique
name (time plus pid), so concurrent runs never write the same file and a
run with no misses creates none: ``<name><suffix>`` holds the records
back to back, and ``<name><suffix>.index`` holds one
``<key> <byte offset> <length>`` line per record, appended only after the
record's bytes are written. On first use every index with the store's
suffix is read, in name order (the last record for a key wins), but no
record is: records are read back on demand. A crash can leave a torn
tail, an index line without its newline or a record that runs past the
end of its segment; either is skipped, so that entry is fetched again.

Three stores share a cache directory. Chat answers (:class:`ResponseCache`)
go to ``.answers`` segments as UTF-8 with ``surrogatepass``, so any
``str`` round-trips, with lengths in bytes. Embedding rows go to
``.vectors`` segments as raw native-endian float64, with lengths (widths)
in floats. Both are scoped by the provider identity. The results of the
taxonomy's numeric kernels (:class:`ArrayStore`) go to ``.arrays``
segments as raw float64 too, keyed by a digest of the kernel's inputs and
scoped by :func:`numeric_identity`, so a result is replayed only where
recomputing it gives the same bits. Chat ``*.jsonl`` segments written by
earlier versions are ignored, so the first run after upgrading asks the
provider again.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import tempfile
import threading
import time
import weakref
from pathlib import Path
from typing import BinaryIO, Callable, Sequence

import numpy as np

from ..errors import DataError

# a record's place in the store: segment number, byte offset, length in units
Location = tuple[int, int, int]


class SegmentStore:
    """Records keyed by scope + text; see the module docstring.

    ``suffix`` names the segments and ``unit`` is the size in bytes of one
    unit of a record's length; the defaults are the embedding store's.
    Without a ``directory`` the records go to an anonymous temporary file
    and the index is kept in memory only, so callers read records back the
    same way whether or not a cache is configured. One lock keeps each
    append and read whole (a seek and the write or read after it) and
    loads the index once, should callers share a store between threads.
    """

    suffix = ".vectors"
    unit = 8

    def __init__(self, directory: str | Path | None, scope: str = ""):
        self.directory = None if directory is None else Path(directory)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.scope = scope
        scope_key = hashlib.blake2b(scope.encode("utf-8", "surrogatepass")).digest()
        self._hasher = hashlib.blake2b(digest_size=16, key=scope_key)
        self._entries: dict[bytes, Location] | None = None
        self._segments: list[BinaryIO | Path] = []  # a path until its first read
        self._own: tuple[int, BinaryIO, BinaryIO | None] | None = None
        self._end = 0
        self._lock = threading.Lock()

    def find(self, text: str) -> Location | None:
        return self._loaded().get(self._key(text))

    def append(
        self, texts: Sequence[str], parts: Sequence[bytes | np.ndarray], length: int
    ) -> None:
        """Store ``parts``, written back to back, as one record of ``length`` units per text.

        The records are written before their index lines.
        """
        views = [memoryview(part).cast("B") for part in parts]
        entries = self._loaded()
        with self._lock:
            if self._own is None:
                self._own = self._create_segment()
            number, segment, index = self._own
            segment.seek(self._end)
            for view in views:
                _write_all(segment, view)
            lines = []
            for position, text in enumerate(texts):
                key = self._key(text)
                offset = self._end + position * length * self.unit
                lines.append(f"{key.hex()} {offset} {length}\n")
                entries[key] = (number, offset, length)
            if index is not None:
                _write_all(index, "".join(lines).encode("ascii"))
            self._end += sum(len(view) for view in views)

    def read(self, segment: int, offset: int, out: memoryview) -> None:
        """Fill ``out`` with the bytes stored in ``segment`` from ``offset`` on."""
        with self._lock:
            handle = self._segments[segment]
            if isinstance(handle, Path):
                handle = self._segments[segment] = handle.open("rb", buffering=0)
                weakref.finalize(self, handle.close)
            handle.seek(offset)
            while out:
                got = handle.readinto(out)
                if not got:
                    raise DataError(f"cache segment {handle.name} ends before its indexed records")
                out = out[got:]

    def _key(self, text: str) -> bytes:
        hasher = self._hasher.copy()
        hasher.update(text.encode("utf-8", "surrogatepass"))
        return hasher.digest()

    def _loaded(self) -> dict[bytes, Location]:
        if self._entries is None:
            with self._lock:
                if self._entries is None:
                    self._entries = self._read_indexes()
        return self._entries

    def _read_indexes(self) -> dict[bytes, Location]:
        entries: dict[bytes, Location] = {}
        if self.directory is None:
            return entries
        for index in sorted(self.directory.glob(f"*{self.suffix}.index")):
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
                        key, offset, length = line.split()
                        location = (number, int(offset), int(length))
                        key = bytes.fromhex(key.decode("ascii"))
                    except ValueError:
                        continue
                    # a line without its newline, or a record cut short, is a torn tail
                    if line.endswith(b"\n") and location[1] + self.unit * location[2] <= size:
                        entries[key] = location
        return entries

    def _create_segment(self) -> tuple[int, BinaryIO, BinaryIO | None]:
        if self.directory is None:
            segment, index = tempfile.TemporaryFile(buffering=0), None
        else:
            while True:
                stem = f"{time.time_ns():020d}-{os.getpid()}{self.suffix}"
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


class ResponseCache(SegmentStore):
    """Raw provider answers keyed by scope + request fingerprint."""

    suffix = ".answers"
    unit = 1

    def get(self, fingerprint: str) -> str | None:
        location = self.find(fingerprint)
        if location is None:
            return None
        segment, offset, length = location
        data = bytearray(length)
        self.read(segment, offset, memoryview(data))
        return data.decode("utf-8", "surrogatepass")

    def put(self, fingerprint: str, raw: str) -> None:
        data = raw.encode("utf-8", "surrogatepass")
        self.append([fingerprint], [data], len(data))


# the environment variables OpenBLAS takes its thread count from
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _openblas(name: str) -> ctypes._CFuncPtr | None:
    """The function ``name`` of the OpenBLAS bundled with numpy's wheel; ``None`` where none exports it."""
    libraries = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libraries.glob("libscipy_openblas64_*.so")):
        try:
            return getattr(ctypes.CDLL(str(path)), name)
        except (OSError, AttributeError):
            continue
    return None


def blas_thread_count() -> int | None:
    """The thread count of the OpenBLAS bundled with numpy's wheel, asked of the library.

    OpenBLAS reads its environment variables once, when numpy is loaded,
    so a variable set later does not change this count. ``None`` where no
    bundled OpenBLAS exports the query.
    """
    query = _openblas("scipy_openblas_get_num_threads64_")
    if query is None:
        return None
    query.restype = ctypes.c_int
    return int(query())


def use_one_blas_thread() -> None:
    """Make numpy's bundled OpenBLAS compute on one thread, whenever numpy was loaded.

    ``eigh`` gives other bits on other thread counts, and on the taxonomy's
    matrices a second thread buys little wall time for much more CPU time
    and a GEMM buffer of its own. Does nothing where no bundled OpenBLAS
    exports the setter.
    """
    setter = _openblas("scipy_openblas_set_num_threads64_")
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter(1)


def numeric_identity() -> str:
    """What sets the bits of a numeric kernel's result besides its inputs.

    numpy's version; its BLAS entry (build, version and the CPU kernel
    OpenBLAS chose); the SIMD extensions numpy's own loops dispatch to; and
    what sets OpenBLAS's thread count: the count the library reports, its
    environment variables and the CPUs this process may use. ``eigh`` bits
    change with any of them. All are equal for every process started the
    same way on one machine.
    """
    config = np.show_config(mode="dicts")
    if hasattr(os, "sched_getaffinity"):
        cpus: object = sorted(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    identity = {
        "numpy": np.__version__,
        "blas": config["Build Dependencies"]["blas"],
        "simd": config.get("SIMD Extensions"),
        "threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "blas_threads": blas_thread_count(),
        "cpus": cpus,
    }
    return json.dumps(identity, sort_keys=True)


class ArrayStore(SegmentStore):
    """Float64 results of deterministic numeric kernels, scoped by :func:`numeric_identity`.

    A record is the result's arrays raveled back to back; its key is a
    text the caller builds from a digest of every input of the kernel.
    ``replayed`` and ``computed`` count the results read back and stored.
    """

    suffix = ".arrays"

    def __init__(self, directory: str | Path | None):
        super().__init__(directory, numeric_identity())
        self.replayed = 0
        self.computed = 0

    def replay(
        self, key: str, shapes: Sequence[tuple[int, ...]], compute: Callable[[], Sequence[object]]
    ) -> list[np.ndarray]:
        """The float64 arrays stored under ``key``, one per shape; else ``compute()``'s, stored.

        A record whose length does not fit ``shapes`` counts as a miss. A
        replay returns views into the record it read; a miss writes the
        computed arrays back to back as the record, without first joining
        them into one, and returns them. Either way the arrays hold the
        bytes that were stored.
        """
        sizes = [math.prod(shape) for shape in shapes]
        length = sum(sizes)
        location = self.find(key)
        if location is None or location[2] != length:
            arrays = [
                np.ascontiguousarray(part, dtype=np.float64).reshape(shape)
                for part, shape in zip(compute(), shapes)
            ]
            self.append([key], arrays, length)
            self.computed += 1
            return arrays
        record = np.empty(length)
        self.read(location[0], location[1], memoryview(record).cast("B"))
        self.replayed += 1
        bounds = np.cumsum(sizes)[:-1]
        return [part.reshape(shape) for part, shape in zip(np.split(record, bounds), shapes)]


class EmbeddingRows:
    """n embedding rows in a :class:`SegmentStore`, in text order, read on demand.

    Only each row's location is held; ``readinto`` copies a run of rows
    into a caller's buffer, one read per stretch of rows that lie back to
    back in one segment.
    """

    def __init__(self, store: SegmentStore, locations: Sequence[Location]):
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
