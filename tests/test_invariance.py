"""Outputs that must not depend on how a run was made.

Each row makes the fixture corpus's outputs another way and compares them
with one reference run: every output byte, and every manifest apart from
``produced_at``. The reference is one ``taskshift all`` in a child process
with ``PYTHONHASHSEED=0`` and an empty cache. Every run is a child process,
so each starts from a fresh interpreter.

``never_frozen`` calls ``main`` without the program entry's ``gc.freeze``,
so GC state cannot reach an output byte. ``killed_and_resumed`` kills a run
mid-way with SIGKILL and runs it again. ``other_blas_threads`` loads numpy
with another OpenBLAS thread count than the reference's: ``eigh`` bits
depend on the count, so this holds only because importing ``taskshift``
sets one thread. On a one-core machine both counts may be one, and there
the row cannot fail.
"""

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from taskshift.pipeline import STAGES

from conftest import artifacts, child_env, manifests, write_config


def argv(stage: str, config: Path) -> list[str]:
    return [sys.executable, "-m", "taskshift.cli", stage, "--config", str(config)]


def child(args: list[str], **env: str) -> None:
    """``args`` in a child, under ``PYTHONHASHSEED=0`` unless ``env`` says otherwise.

    It must exit 0 without a traceback.
    """
    result = subprocess.run(
        args,
        env=child_env(**{"PYTHONHASHSEED": "0", **env}),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr


def taskshift(stage: str, config: Path, **env: str) -> None:
    """``taskshift <stage>`` on ``config`` in a child, through the program entry."""
    child(argv(stage, config), **env)


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("reference")
    taskshift("all", write_config(base))
    return base


def warm_cache(base: Path, reference: Path) -> Path:
    shutil.copytree(reference / "cache", base / "cache")
    cached = sorted(path.name for path in (base / "cache").iterdir())
    taskshift("all", write_config(base))
    # every answer and kernel result came from the cache
    assert sorted(path.name for path in (base / "cache").iterdir()) == cached
    return base / "out"


def stage_by_stage(base: Path, reference: Path) -> Path:
    config = write_config(base)
    for stage in STAGES:
        taskshift(stage, config)
    return base / "out"


def other_hash_seed(base: Path, reference: Path) -> Path:
    taskshift("all", write_config(base), PYTHONHASHSEED="12345")
    return base / "out"


def other_paths(base: Path, reference: Path) -> Path:
    out = base / "other place" / "results"
    taskshift("all", write_config(base, out_dir=str(out), cache_dir=str(base / "answers")))
    return out


def other_blas_threads(base: Path, reference: Path) -> Path:
    threads = "2" if os.environ.get("OPENBLAS_NUM_THREADS") == "1" else "1"
    taskshift("all", write_config(base), OPENBLAS_NUM_THREADS=threads)
    return base / "out"


def never_frozen(base: Path, reference: Path) -> Path:
    args = ["all", "--config", str(write_config(base))]
    call = f"import sys; from taskshift.cli import main; sys.exit(main({args!r}))"
    child([sys.executable, "-c", call])
    return base / "out"


def killed_and_resumed(base: Path, reference: Path) -> Path:
    config = write_config(base)
    out = base / "out"
    # the cluster stage is still to run when weight's manifest appears
    marker = out / "manifests" / "weight.json"
    with subprocess.Popen(
        argv("all", config), env=child_env(PYTHONHASHSEED="0"), stdout=subprocess.DEVNULL
    ) as run:
        deadline = time.monotonic() + 300
        while not marker.exists() and run.poll() is None and time.monotonic() < deadline:
            time.sleep(0.002)
        run.send_signal(signal.SIGKILL)
    assert run.returncode == -signal.SIGKILL
    for temporary in out.rglob(".*.tmp"):  # what a kill leaves behind; safe to delete
        temporary.unlink()
    taskshift("all", config)
    return out


@pytest.mark.parametrize(
    "run",
    [
        warm_cache,
        stage_by_stage,
        other_hash_seed,
        other_paths,
        other_blas_threads,
        never_frozen,
        killed_and_resumed,
    ],
)
def test_outputs_equal_the_reference_run(tmp_path, reference, run):
    out = run(tmp_path, reference)
    assert artifacts(out) == artifacts(reference / "out")
    assert manifests(out) == manifests(reference / "out")
