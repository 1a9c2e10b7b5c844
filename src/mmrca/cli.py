"""Command-line driver.

Subcommands: simulate, parse, encode, learn, localize, evaluate, run-pipeline.
Global flags: --config PATH, --seed INT, --out DIR. Exit codes: 0 success,
1 validation failure, 2 runtime failure. MMRCA_DATA_DIR / MMRCA_OUT_DIR /
MMRCA_SEED environment variables override the paths and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline

# subcommand -> the first and the last stage it runs of pipeline.PIPELINE_STAGES;
# run-pipeline runs them all
_STAGES_OF_COMMAND = {
    "parse": ("log_ingest", "log_ingest"),
    "encode": ("log_ingest", "log_encoder"),
    "learn": ("causal_learner", "causal_learner"),
    "localize": ("causal_learner", "rca"),
    "evaluate": ("metrics", "metrics"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmrca",
        description="Multi-modal causal structure learning and root cause analysis",
    )
    parser.add_argument("--config", metavar="PATH", help="pipeline config JSON")
    parser.add_argument("--seed", type=int, metavar="INT", help="override the global seed")
    parser.add_argument("--out", metavar="DIR", help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("simulate", "generate a synthetic incident into the data directory"),
        ("parse", "mine log templates, window and label the sequences"),
        ("encode", "parse the logs as parse does, then train the log encoder and emit "
                   "the log modality panel"),
        ("learn", "compute modality attention and fit the causal structure"),
        ("localize", "fit the graphs as learn does, then fuse them and rank root causes"),
        ("evaluate", "score the ranking against the ground truth"),
        ("run-pipeline", "run parse through evaluate with a manifest"),
    ):
        sub.add_parser(name, help=doc)
    return parser


def _dispatch(command: str, config: dict) -> None:
    if command == "simulate":
        try:
            pipeline.stage_simulate(config)
        except Exception as exc:
            raise pipeline.StageError("simgen", exc) from exc
    elif command == "run-pipeline":
        manifest = pipeline.run_pipeline(config)
        print(json.dumps(manifest, indent=2, sort_keys=True))
    else:
        result, _ = pipeline.run_stages(config, *_STAGES_OF_COMMAND[command])
        if command == "evaluate":
            print(json.dumps(result, indent=2, sort_keys=True))


def _is_validation_failure(exc: Exception) -> bool:
    return isinstance(exc, (ValueError, FileNotFoundError))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = pipeline.load_config(args.config, seed=args.seed, out_dir=args.out)
    except Exception as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    try:
        _dispatch(args.command, config)
    except pipeline.StageError as exc:
        print(exc, file=sys.stderr)
        return 1 if _is_validation_failure(exc.cause) else 2
    except Exception as exc:  # non-stage failures are runtime errors
        print(exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
