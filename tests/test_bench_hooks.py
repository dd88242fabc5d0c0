"""The benchmark's span hooks still find every name they wrap.

``bench/spans.py`` replaces pipeline, gateway, clustering, savings and
redesign functions by name; a rename there breaks ``--trace 1`` of the
benchmark, whose own tests are not part of this suite.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_spans_install_wraps_every_traced_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    completed = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
