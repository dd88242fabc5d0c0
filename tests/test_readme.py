"""README.md's examples stay true: each ``python`` block runs, each ``json`` block is a config."""

import json
import re
from pathlib import Path

import pytest

from taskshift.config import PipelineConfig

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def blocks(language: str) -> list:
    """Each ``language`` block of README.md, numbered from 1 in reading order."""
    text = README.read_text(encoding="utf-8")
    sources = [match[2] for match in FENCE.finditer(text) if match[1] == language]
    return [pytest.param(source, id=f"block{n}") for n, source in enumerate(sources, start=1)]


@pytest.mark.parametrize("source", blocks("python"))
def test_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


@pytest.mark.parametrize("source", blocks("json"))
def test_json_block_builds_a_config(source):
    PipelineConfig(**json.loads(source))
