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


def test_traced_fixture_run_counts_every_written_row(tmp_path):
    # the JSONL spans count rows with len(), so a reader or writer that
    # took an iterator would break the traced run or its counts
    config = write_config(tmp_path)
    spans_path = tmp_path / "spans.json"
    completed = subprocess.run(
        [sys.executable, "bench/spans.py", "--config", str(config), "--spans", str(spans_path)],
        cwd=ROOT,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    spans = load_spans()
    recorded = json.loads(spans_path.read_text())
    names = {span[spans.NAME] for span in recorded}
    assert {f"stage.{stage}" for stage in spans.STAGES} <= names
    written = sum(
        len(path.read_text().splitlines()) for path in (tmp_path / "out").rglob("*.jsonl")
    )
    assert written > 0
    assert spans.layer_metrics(recorded)["pipeline.jsonl_write.rows"] == written
