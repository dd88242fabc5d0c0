"""Spans around the pipeline's public calls, and the traced child process.

The benchmark does not change the program to trace it. ``install``
replaces each traced function with a wrapper at the name its caller looks
it up by (``taskshift.pipeline.rake``, ``taskshift.gateway.batch.
validate_payload``, a class attribute for methods) and records one span
per call: id, parent id, name, start, end and a few counts. Spans stay in
memory and are written out once, when the run ends.

A span's parent is the innermost open span of the same thread. Calls made
in the batch manager's pool threads have no open span of their own
thread, so they attach to the ``submit_batch`` span that is open.

Run as a script, this module is the traced child: it installs the spans,
runs ``taskshift all`` in-process and writes the spans as JSON::

    PYTHONPATH=src python3 bench/spans.py --config CONFIG --spans OUT.json
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import statistics
import sys
import threading
import time
from pathlib import Path

STAGES = ("ingest", "extract", "weight", "cluster", "rake", "savings", "redesign", "report")

# span fields
ID, PARENT, NAME, START, END, COUNT = range(6)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._batch: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: object, attr: str, name, count=None, batch: bool = False) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is a string or a function of the call's arguments;
        ``count(args, result)`` gives the span's count (rows, requests...).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._batch
            span_id = next(tracer._ids)
            stack.append(span_id)
            outer_batch = tracer._batch
            if batch:
                tracer._batch = span_id
            label = name if isinstance(name, str) else name(args)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(span_id, parent, label, start, outer_batch, batch, None)
                raise
            value = count(args, result) if count is not None else None
            tracer._close(span_id, parent, label, start, outer_batch, batch, value)
            return result

        setattr(owner, attr, traced)

    def _close(self, span_id, parent, label, start, outer_batch, batch, value) -> None:
        end = time.perf_counter()
        self._stack().pop()
        if batch:
            self._batch = outer_batch
        self.spans.append((span_id, parent, label, start, end, value))


def _batch_counts(args, result) -> list[int]:
    requests, (_, report) = args[1], result
    fallback = sum(1 for request in requests if request.request_id.endswith(":summary"))
    return [
        report.submitted,
        report.succeeded,
        len(report.failed),
        report.cache_hits,
        report.input_tokens,
        report.output_tokens,
        fallback,
    ]


def install(tracer: Tracer) -> None:
    """Wrap every traced call at the name its caller looks it up by."""
    from taskshift import clustering, pipeline, redesign, savings
    from taskshift.gateway import batch, cache, providers

    tracer.wrap(pipeline.Pipeline, "run_stage", lambda args: f"stage.{args[1]}")
    tracer.wrap(pipeline, "read_jsonl", "pipeline.jsonl_read", lambda a, r: len(r))
    tracer.wrap(pipeline, "write_jsonl", "pipeline.jsonl_write", lambda a, r: len(a[1]))
    tracer.wrap(pipeline, "parse_vacancies", "corpus.parse_vacancies")
    tracer.wrap(pipeline, "load_reference_tables", "corpus.load_reference_tables")
    tracer.wrap(pipeline, "extract_corpus", "exposure.extract_corpus")
    tracer.wrap(pipeline, "build_profile", "exposure.build_profile")
    tracer.wrap(pipeline, "rake", "raking.rake", lambda a, r: r.iterations)

    tracer.wrap(batch.BatchManager, "submit_batch", "gateway.submit", _batch_counts, batch=True)
    tracer.wrap(batch.BatchManager, "embed_texts", "gateway.embed", lambda a, r: len(a[1]))
    tracer.wrap(batch, "validate_payload", "gateway.validate")
    tracer.wrap(cache.ResponseCache, "get", "gateway.cache_get", lambda a, r: int(r is not None))
    tracer.wrap(cache.ResponseCache, "put", "gateway.cache_put")
    tracer.wrap(providers.MockProvider, "complete", "gateway.provider")

    tracer.wrap(clustering, "cluster_roles", "clustering.cluster_roles")
    tracer.wrap(clustering, "normalize_text", "clustering.normalize_text")
    tracer.wrap(clustering, "build_taxonomy", "clustering.build_taxonomy", lambda a, r: len(a[0]))
    tracer.wrap(clustering, "fit_pca", "clustering.fit_pca")
    tracer.wrap(clustering, "kmeans", "clustering.kmeans")

    def role_thetas(args, result):
        return len(args[0]) * len(result.thetas)

    tracer.wrap(savings, "sweep", "savings.sweep", role_thetas)

    tracer.wrap(redesign, "eligible_roles", "redesign.eligible_roles", lambda a, r: len(r))
    tracer.wrap(redesign, "select_focus_bulk", "redesign.select_focus")
    tracer.wrap(redesign, "tag_themes", "redesign.tag_themes")
    tracer.wrap(redesign, "reorder_plan_bulk", "redesign.reorder")
    tracer.wrap(redesign, "new_tasks_plan_bulk", "redesign.new_tasks")
    tracer.wrap(redesign, "_run_waves", "redesign.waves", lambda a, r: len(r[0]))
    tracer.wrap(redesign, "time_shift_report", "redesign.time_shift_report")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START]) - _covered(children.get(span[ID], []))
        for span in spans
    }


def _percentile(values: list[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans."""
    spans = [tuple(span) for span in spans]
    own = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def total(name: str) -> float:
        return sum(span[END] - span[START] for span in by_name.get(name, []))

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def counted(name: str) -> int:
        return sum(span[COUNT] or 0 for span in by_name.get(name, []))

    metrics: dict[str, float] = {}
    for stage in STAGES:
        name = f"stage.{stage}"
        metrics[f"{name}.s"] = total(name)
        metrics[f"{name}.self_s"] = sum(own[span[ID]] for span in by_name.get(name, []))
    for layer in ("pipeline.jsonl_read", "pipeline.jsonl_write"):
        metrics[f"{layer}.s"] = total(layer)
        metrics[f"{layer}.rows"] = counted(layer)

    batches = by_name.get("gateway.submit", [])
    sums = [sum(span[COUNT][field] for span in batches) for field in range(7)]
    submitted, succeeded, failed, hits, tokens_in, tokens_out, fallback = sums
    misses = sum(1 for span in by_name.get("gateway.cache_get", []) if span[COUNT] == 0)
    provider = [span[END] - span[START] for span in by_name.get("gateway.provider", [])]
    metrics.update(
        {
            "gateway.batches": len(batches),
            "gateway.requests": submitted,
            "gateway.succeeded": succeeded,
            "gateway.failed": failed,
            "gateway.submit.s": total("gateway.submit"),
            "gateway.overhead_us_per_request": (
                1e6 * sum(own[span[ID]] for span in batches) / submitted if submitted else 0.0
            ),
            "gateway.retries": len(provider) - misses,
            "gateway.tokens_in": tokens_in,
            "gateway.tokens_out": tokens_out,
            "gateway.provider_calls": len(provider),
            "gateway.provider.busy_s": sum(provider),
            "gateway.provider.p50_us": 1e6 * (statistics.median(provider) if provider else 0.0),
            "gateway.provider.p99_us": 1e6 * _percentile(provider, 0.99),
            "gateway.embed.s": total("gateway.embed"),
            "gateway.embed_texts": counted("gateway.embed"),
            "gateway.cache_hits": hits,
            "gateway.cache_misses": misses,
            "gateway.cache_hit_ratio": hits / submitted if submitted else 0.0,
            "gateway.cache_get.busy_s": total("gateway.cache_get"),
            "gateway.cache_put.busy_s": total("gateway.cache_put"),
            "gateway.validate.busy_s": total("gateway.validate"),
            "corpus.parse_vacancies.s": total("corpus.parse_vacancies"),
            "corpus.load_reference_tables.s": total("corpus.load_reference_tables"),
            "corpus.load_reference_tables.calls": calls("corpus.load_reference_tables"),
            "exposure.extract_corpus.s": total("exposure.extract_corpus"),
            "exposure.build_profile.calls": calls("exposure.build_profile"),
            "exposure.build_profile.s": total("exposure.build_profile"),
            "exposure.fallback_requests": fallback,
            "clustering.cluster_roles.s": total("clustering.cluster_roles"),
            "clustering.normalize_text.s": total("clustering.normalize_text"),
            "clustering.unique_texts": counted("clustering.build_taxonomy"),
            "clustering.build_taxonomy.s": total("clustering.build_taxonomy"),
            "clustering.fit_pca.s": total("clustering.fit_pca"),
            "clustering.kmeans.s": total("clustering.kmeans"),
            "clustering.kmeans.calls": calls("clustering.kmeans"),
            "raking.rake.s": total("raking.rake"),
            "raking.iterations": counted("raking.rake"),
            "savings.sweep.s": total("savings.sweep"),
            "savings.sweep.calls": calls("savings.sweep"),
            "savings.role_thetas": counted("savings.sweep"),
        }
    )

    waves = by_name.get("redesign.waves", [])
    wave_ids = {span[ID] for span in waves}
    wave_requests = sum(span[COUNT][0] for span in batches if span[PARENT] in wave_ids)
    useful = sum(span[COUNT] or 0 for span in waves)
    eligible = by_name.get("redesign.eligible_roles", [])
    metrics.update(
        {
            "redesign.eligible": eligible[0][COUNT] if eligible else 0,
            "redesign.select_focus.s": total("redesign.select_focus"),
            "redesign.tag_themes.s": total("redesign.tag_themes"),
            "redesign.reorder.s": total("redesign.reorder"),
            "redesign.new_tasks.s": total("redesign.new_tasks"),
            "redesign.wave_requests": wave_requests,
            "redesign.useful_ratio": useful / wave_requests if wave_requests else 0.0,
            "redesign.time_shift_report.s": total("redesign.time_shift_report"),
        }
    )

    run_s = total("run")
    metrics["trace.run_s"] = run_s
    metrics["trace.stage_coverage"] = (
        sum(total(f"stage.{stage}") for stage in STAGES) / run_s if run_s else 0.0
    )
    metrics["trace.spans"] = len(spans)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run `taskshift all` with spans recorded")
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    args = parser.parse_args(argv)

    from taskshift import cli

    tracer = Tracer()
    install(tracer)
    tracer.wrap(cli, "main", "run")
    code = cli.main(["all", "--config", args.config])
    Path(args.spans).write_text(json.dumps(tracer.spans), "utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
