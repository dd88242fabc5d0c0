"""The one reader of the input files that a configuration names, all UTF-8 text.

A file that cannot be read, a byte that is not UTF-8, JSON that does not parse
and a JSON file that is not an object each raise one ``DataError`` naming the
file, with ``path:line`` for the byte, or the error class the caller passes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from .errors import DataError


def read_lines(
    path: str | Path, what: str, newline: str | None = None, error=DataError, unreadable=None
) -> Iterator[str]:
    """Each line of ``path`` (``what`` in errors) as it is decoded, with universal newlines
    unless ``newline`` is given; a file that cannot be read raises ``unreadable`` or ``error``."""
    try:
        with Path(path).open(encoding="utf-8", newline=newline) as handle:
            yield from handle
    except UnicodeDecodeError as exc:
        # the decoder reads by blocks, so its error does not tell the line; a byte below
        # 0x80 is never inside a longer UTF-8 sequence, so the line holding the bad byte
        # is the first to lose bytes when decoded with them ignored
        with Path(path).open("rb") as handle:
            lines = enumerate(handle, start=1)
            line = next((n for n, raw in lines if raw.decode("utf-8", "ignore").encode() != raw), 0)
        raise error(f"{path}:{line}: {what} is not UTF-8 ({exc.reason})") from exc
    except OSError as exc:
        raise (unreadable or error)(f"cannot read {what} {path}: {exc}") from exc


def read_object(path: str | Path, what: str, error=DataError, unreadable=None) -> tuple[dict, str]:
    """The JSON object in ``path`` and the file's text, newlines untranslated, so that it
    encodes back to the file's bytes."""
    text = "".join(read_lines(path, what, "", error, unreadable))
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(value, dict):
        raise error(f"{what} {path} does not hold a JSON object")
    return value, text
