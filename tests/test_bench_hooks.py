"""The benchmark's span hooks still find every name they wrap.

``bench/spans.py`` replaces pipeline, gateway, clustering, savings and
redesign functions by name; a rename there breaks ``--trace 1`` of the
benchmark, whose own tests are not part of this suite.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_config

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_install_wraps_every_traced_name():
    completed = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory) -> tuple[list, Path]:
    """The spans of a traced ``taskshift all`` on the fixture corpus, and its output directory."""
    work = tmp_path_factory.mktemp("traced")
    config = write_config(work)
    spans_path = work / "spans.json"
    completed = subprocess.run(
        [sys.executable, "bench/spans.py", "--config", str(config), "--spans", str(spans_path)],
        cwd=ROOT,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(spans_path.read_text()), work / "out"


def test_traced_fixture_run_counts_every_written_row(traced_run):
    # the JSONL spans count rows with len(), so a reader or writer that
    # took an iterator would break the traced run or its counts
    recorded, out = traced_run
    spans = load_spans()
    names = {span[spans.NAME] for span in recorded}
    assert {f"stage.{stage}" for stage in spans.STAGES} <= names
    written = sum(len(path.read_text().splitlines()) for path in out.rglob("*.jsonl"))
    assert written > 0
    assert spans.layer_metrics(recorded)["pipeline.jsonl_write.rows"] == written


def test_every_wrapped_name_fires_on_the_fixture_run(traced_run):
    # a caller that reaches a traced function past the name the hook wraps
    # (a ``from redesign import ...`` in the caller's module, say) leaves its
    # per-layer metric at zero without a word
    spans = load_spans()
    wrapped = set()

    class NameRecorder(spans.Tracer):
        def wrap(self, owner, attr, name, count=None, batch=False):
            if isinstance(name, str):
                wrapped.add(name)

    spans.install(NameRecorder())
    # nothing in the pipeline calls read_jsonl; its readers stream through iter_jsonl
    wrapped.discard("pipeline.jsonl_read")
    recorded, _ = traced_run
    assert wrapped - {span[spans.NAME] for span in recorded} == set()
    assert "redesign.time_shift_report" in wrapped
