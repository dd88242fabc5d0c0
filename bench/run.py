"""Pipeline benchmark: ``taskshift all`` on a seeded synthetic corpus.

One workload, one mode, result as the last line of standard output::

    python3 bench/run.py --workload cold --seed 1 --seconds 40 --trace 0

Every workload, untraced and traced, as a table plus ``.bench_work/results.json``::

    python3 bench/run.py --workload all --seed 1

Each timed run is the shipped CLI in a fresh child process (mock provider,
every other setting at its default), timed from outside and checked
afterwards. ``--trace 1`` replaces the timed runs by one untraced and one
traced run and reports per-layer metrics from the spans in ``spans.py``.
See README.md in this directory for workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import synthetic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
ROLES = 500
SETUPS = 3  # set-ups per untraced run; setup_s is their median
CHILD_TIMEOUT = 60.0  # a child still running then is killed and counted as failed


@dataclass(frozen=True)
class Workload:
    shape: str  # duty shape of the generated corpus, see synthetic.py
    primed: bool  # the cache filled by the set-up run is kept for the timed runs


WORKLOADS = {
    "cold": Workload("template", primed=False),
    "warm": Workload("template", primed=True),
    "diverse": Workload("diverse", primed=True),
}
END_TO_END = {"run_s": "s", "roles_per_s": "roles/s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(("_us", "_us_per_request")):
        return "us"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_ratio", "_coverage")):
        return "ratio"
    return "count"


def cpu_seconds() -> tuple[float, float]:
    """Busy and stolen CPU seconds of the whole machine so far, from /proc/stat.

    Steal is time a virtual CPU was ready to run while the hypervisor ran
    another guest. Both read as zero where /proc/stat is missing.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:9]]
        user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    except (OSError, ValueError):
        return 0.0, 0.0
    tick = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / tick, steal / tick


class Stopwatch:
    """Wall time of a block, and the share of it the hypervisor took away.

    ``seconds`` scales wall time by busy / (busy + stolen) CPU time over the
    block: a thread that was stolen for a share of the time it wanted the
    CPU took that share longer, however many CPUs were busy. On a machine
    without steal it equals ``wall_s``.
    """

    def __enter__(self) -> "Stopwatch":
        self.busy_s, self.steal_s = cpu_seconds()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self.start
        busy, steal = cpu_seconds()
        self.busy_s, self.steal_s = busy - self.busy_s, steal - self.steal_s
        wanted = self.busy_s + self.steal_s
        self.seconds = self.wall_s * self.busy_s / wanted if self.busy_s > 0 else self.wall_s


@dataclass
class Child:
    seconds: float  # wall time without the stolen share, see Stopwatch
    wall_s: float
    steal_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_child(argv: list[str], workdir: Path) -> Child:
    """Run one child to exit; time it and read its own peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with out_path.open("w") as out, err_path.open("w") as err, Stopwatch() as watch:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own rusage, not the RUSAGE_CHILDREN maximum
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        seconds=watch.seconds,
        wall_s=watch.wall_s,
        steal_s=watch.steal_s,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out_path.read_text("utf-8"),
        stderr=err_path.read_text("utf-8"),
    )


def pipeline_argv(config: Path) -> list[str]:
    return [sys.executable, "-m", "taskshift.cli", "all", "--config", str(config)]


def traced_argv(config: Path, spans_path: Path) -> list[str]:
    return [sys.executable, str(BENCH / "spans.py"), "--config", str(config), "--spans", str(spans_path)]


def artifact_digest(out_dir: Path) -> str:
    """SHA-256 over every artifact's path and content, manifests excluded."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        relative = path.relative_to(out_dir)
        if not path.is_file() or relative.parts[0] == "manifests":
            continue
        digest.update(relative.as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def check_outputs(out_dir: Path) -> tuple[int, list[str]]:
    """Rows in roles.jsonl, and every problem the artifacts record."""
    problems = []
    extract = json.loads((out_dir / "extract_summary.json").read_text("utf-8"))
    failed = sum(len(batch["failed"]) for batch in extract["batches"])
    if failed:
        problems.append(f"{failed} extraction requests failed")
    redesign = json.loads((out_dir / "redesign_summary.json").read_text("utf-8"))
    failed = sum(len(f) for f in redesign["failures"].values()) + len(redesign["theme_failures"])
    if failed:
        problems.append(f"{failed} redesign requests failed")
    with (out_dir / "report" / "taxonomy_summary.csv").open(encoding="utf-8", newline="") as handle:
        labels = [label for row in csv.DictReader(handle) for label in
                  (row["category_label"], row["subcategory_label"])]
    placeholders = sorted({label for label in labels if label.startswith("cluster-")})
    if placeholders:
        problems.append(f"placeholder taxonomy labels {placeholders}")
    with (out_dir / "roles.jsonl").open("rb") as handle:
        roles = sum(1 for line in handle if line.strip())
    if roles == 0:
        problems.append("roles.jsonl is empty")
    return roles, problems


def reset(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def cache_files(cache_dir: Path) -> int:
    return sum(1 for entry in os.scandir(cache_dir)) if cache_dir.is_dir() else 0


@dataclass
class Run:
    """One checked ``taskshift all`` child."""

    seconds: float = 0.0
    wall_s: float = 0.0
    steal_s: float = 0.0
    peak_rss_mb: float = 0.0
    roles: int = 0
    digest: str = ""
    noop_rerun_s: float = 0.0
    problems: list[str] = field(default_factory=list)


class Bench:
    """One workload in its own work directory under ``.bench_work``."""

    def __init__(self, name: str, seed: int, roles: int = ROLES):
        self.name, self.workload, self.seed, self.roles = name, WORKLOADS[name], seed, roles
        self.work = WORK / name
        self.config = self.work / "config.json"
        self.out = self.work / "out"
        self.cache = self.work / "cache"
        self.runs: list[Run] = []

    def setup(self) -> float:
        """Reset the directories, generate inputs and run once from empty ones.

        For primed workloads that run fills the cache. For every workload it
        leaves the file system as each timed run finds it: new files are
        slower to create right after many were deleted, as each reset does.
        """
        with Stopwatch() as watch:
            reset(self.work)
            paths = synthetic.write_inputs(self.work / "inputs", self.roles, self.workload.shape, self.seed)
            paths.update(out_dir=str(self.out), cache_dir=str(self.cache), provider="mock")
            self.config.write_text(json.dumps(paths, indent=1), "utf-8")
            self.runs.append(self.pipeline_run(rerun=False))
        return watch.seconds

    def pipeline_run(self, rerun: bool = True, trace_to: Path | None = None) -> Run:
        """One run from an empty output directory, checked; then a no-op rerun."""
        reset(self.out)
        if not self.workload.primed:
            reset(self.cache)
        cached = cache_files(self.cache)
        argv = pipeline_argv(self.config) if trace_to is None else traced_argv(self.config, trace_to)
        child = run_child(argv, self.work)
        run = Run(seconds=child.seconds, wall_s=child.wall_s, steal_s=child.steal_s,
                  peak_rss_mb=child.peak_rss_mb)
        if child.returncode != 0:
            tail = child.stderr.strip().splitlines()[-1:] or ["no output"]
            run.problems.append(f"exit code {child.returncode}: {tail[0]}")
            return run
        run.roles, run.problems = check_outputs(self.out)
        run.digest = artifact_digest(self.out)
        if rerun and self.workload.primed and cache_files(self.cache) != cached:
            run.problems.append("a chat request missed the primed cache")
        if rerun:
            again = run_child(pipeline_argv(self.config), self.work)
            run.noop_rerun_s = again.seconds
            reused = sum(1 for line in again.stdout.splitlines() if ": reused (" in line)
            if again.returncode != 0 or reused != len(spans.STAGES):
                run.problems.append(f"follow-up rerun reused {reused} of {len(spans.STAGES)} stages")
        return run

    def problems(self) -> list[str]:
        found = [f"run {index}: {p}" for index, run in enumerate(self.runs) for p in run.problems]
        digests = {run.digest for run in self.runs if run.digest}
        if len(digests) > 1:
            found.append(f"artifact digests differ between runs: {sorted(digests)}")
        return found

    def digest(self) -> str:
        return next((run.digest for run in self.runs if run.digest), "")


def measure(name: str, seed: int, seconds: float, roles: int = ROLES) -> tuple[Bench, dict]:
    """Untraced: several set-ups, then timed runs until ``seconds`` have passed."""
    bench = Bench(name, seed, roles)
    setups = [bench.setup() for _ in range(SETUPS)]
    timed: list[Run] = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        timed.append(bench.pipeline_run())
        bench.runs.append(timed[-1])
    good = [run for run in timed if not run.problems] or timed
    metrics = {
        "run_s": statistics.median(run.seconds for run in good),
        "roles_per_s": statistics.median(run.roles / run.seconds for run in good),
        "peak_rss_mb": statistics.median(run.peak_rss_mb for run in good),
        "setup_s": statistics.median(setups),
    }
    print(f"{name}: seed {seed}, {roles} roles ({bench.workload.shape} duties), "
          f"{len(setups)} set-ups, {len(timed)} timed runs")
    print(f"  run_s samples {[round(run.seconds, 3) for run in timed]}")
    print(f"  wall_s samples {[round(run.wall_s, 3) for run in timed]}")
    print(f"  steal_s samples {[round(run.steal_s, 3) for run in timed]}")
    print(f"  setup_s samples {[round(value, 3) for value in setups]}")
    print(f"  noop rerun_s samples {[round(run.noop_rerun_s, 3) for run in timed]}")
    return bench, metrics


def measure_traced(name: str, seed: int, roles: int = ROLES) -> tuple[Bench, dict]:
    """One set-up, an untraced and a traced run; per-layer metrics from the spans."""
    bench = Bench(name, seed, roles)
    bench.setup()
    plain = bench.pipeline_run()
    spans_path = bench.work / "spans.json"
    traced = bench.pipeline_run(rerun=False, trace_to=spans_path)
    bench.runs += [plain, traced]
    if traced.problems:
        return bench, {}
    metrics = spans.layer_metrics(json.loads(spans_path.read_text("utf-8")))
    metrics["pipeline.noop_rerun_s"] = plain.noop_rerun_s
    metrics["trace.overhead_s"] = traced.seconds - plain.seconds
    metrics["gateway.cache_files"] = cache_files(bench.cache)
    metrics["gateway.cache_mb"] = sum(
        entry.stat().st_size for entry in os.scandir(bench.cache)
    ) / 2**20
    if metrics["trace.stage_coverage"] < 0.95:
        traced.problems.append(f"stage spans cover {metrics['trace.stage_coverage']:.3f} of the run")
    if metrics["gateway.requests"] != metrics["gateway.cache_hits"] + metrics["gateway.cache_misses"]:
        traced.problems.append("gateway requests != cache hits + misses")
    if metrics["gateway.requests"] != metrics["gateway.succeeded"] + metrics["gateway.failed"]:
        traced.problems.append("gateway requests != succeeded + failed")
    if bench.workload.primed and metrics["gateway.cache_hit_ratio"] != 1.0:
        traced.problems.append(f"chat cache hit ratio {metrics['gateway.cache_hit_ratio']}")
    print(f"{name}: seed {seed}, {roles} roles, traced run {traced.seconds:.3f} s, "
          f"untraced {plain.seconds:.3f} s, {metrics['trace.spans']} spans")
    return bench, metrics


def result(bench: Bench, metrics: dict, units) -> dict:
    problems = bench.problems()
    for problem in problems:
        print(f"  FAILED {problem}")
    failed = sum(1 for run in bench.runs if run.problems)
    print(f"  digest {bench.digest()}")
    print(f"  error_rate {failed}/{len(bench.runs)} runs")
    return {
        "correct": not problems,
        "attempted": len(bench.runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
    }


def one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        bench, metrics = measure_traced(name, seed)
        return result(bench, metrics, unit_of)
    bench, metrics = measure(name, seed, seconds)
    return result(bench, metrics, END_TO_END.__getitem__)


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced; a table and a results file."""
    results = {}
    for name in WORKLOADS:
        results[name] = {"untraced": one(name, seed, seconds, False), "traced": one(name, seed, seconds, True)}
    print(f"\n{'metric':34} {'unit':8} " + " ".join(f"{name:>12}" for name in WORKLOADS))
    for mode in ("untraced", "traced"):
        units = {metric: entry["unit"] for r in results.values() for metric, entry in r[mode]["metrics"].items()}
        for metric, unit in units.items():
            cells = [results[name][mode]["metrics"].get(metric, {}).get("value") for name in WORKLOADS]
            print(f"{metric:34} {unit:8} " + " ".join(
                f"{cell:12.4g}" if cell is not None else f"{'-':>12}" for cell in cells))
    WORK.mkdir(exist_ok=True)
    (WORK / "results.json").write_text(json.dumps({"seed": seed, "results": results}, indent=1), "utf-8")
    print(f"results written to {WORK / 'results.json'}")
    return 0 if all(r[mode]["correct"] for r in results.values() for mode in r) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "taskshift" / "cli.py").is_file():
        print(f"no taskshift sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    print(json.dumps(one(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
