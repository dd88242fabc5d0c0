"""Command-line entry point: one subcommand per stage, plus ``all``.

Configuration precedence is defaults < config file < flags. Exit codes:
0 success, 1 usage error, 2 data error, 3 provider error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .config import PROVIDERS, PipelineConfig
from .errors import DataError, ProviderError, UsageError
from .pipeline import STAGES, Pipeline


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we reserve that
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="taskshift", description=__doc__)
    parser.add_argument("stage", choices=STAGES + ("all",), help="pipeline stage to run")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--corpus", dest="corpus_path", help="vacancy corpus (JSONL)")
    parser.add_argument("--out", dest="out_dir", help="stage output directory")
    parser.add_argument("--cache", dest="cache_dir", help="response cache directory")
    parser.add_argument("--delta", type=float, help="decay rate in (0, 1]")
    parser.add_argument("--theta", type=float, help="automation threshold in [0, 1]")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--provider", choices=PROVIDERS, help="LLM provider")
    parser.add_argument("--fixtures", dest="fixtures_path", help="mock fixture table (JSON)")
    parser.add_argument("--force", action="store_true", help="rerun even if up to date")
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        fields = {field.name for field in dataclasses.fields(PipelineConfig)}
        overrides = {key: value for key, value in vars(args).items() if key in fields}
        config = PipelineConfig.load(args.config, overrides)
        pipeline = Pipeline(config)
        stages = STAGES if args.stage == "all" else (args.stage,)
        for stage in stages:
            artifact = pipeline.run_stage(stage, force=args.force)
            state = "reused" if artifact.reused else "built"
            print(f"{stage}: {state} ({artifact.content_hash[:12]})")
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
