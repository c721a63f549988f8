"""Command-line interface.

    dahp <command> --config <file> [--out <dir>] [--seed <u64>]

Commands: pareto, benchmarks, renewable, storage, simulate.  Exit codes:
0 success, 2 configuration error, 3 data error, 4 numerical
non-convergence, 1 anything else.  Errors, a bad command line among them,
print a single machine-parsable JSON line on stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .config import load_config, validate_config
from .errors import ConfigError, DataError, NumericalError
from .experiments import COMMANDS, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ``ConfigError`` (exit 2, one
    JSON line) instead of printing usage and raising ``SystemExit(2)``; its
    subparsers are of this class too."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache  # built once per process: parse_args leaves the parser as it was
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dahp", description="Day-ahead hourly pricing experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        cmd = sub.add_parser(command, help=f"run the {command} study")
        cmd.add_argument("--config", required=True, help="YAML experiment configuration")
        cmd.add_argument("--out", default=None, help="output directory (default: config output_dir)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def _fail(kind: str, exc: Exception, code: int) -> int:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
            validate_config(config)
        out_dir = args.out if args.out is not None else config.output_dir
        paths = run_experiment(config, args.command, out_dir)
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except DataError as exc:
        return _fail("data", exc, EXIT_DATA)
    except NumericalError as exc:
        return _fail("numerical", exc, EXIT_NUMERICAL)
    except Exception as exc:  # anything unplanned still exits nonzero
        return _fail("internal", exc, 1)
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
