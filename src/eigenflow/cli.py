"""Command line interface.

    eigenflow <subcommand> --config <path> [--out <dir>] [--seed <u64>] [--threads <k>]
              [--log-level <level>]

Subcommands: converge, residual, holder, collisions, dyson, limit.
``--config`` accepts either a config file or a previously written
``run_manifest.json``: the embedded canonical config is replayed, and a
relative ``kernel.table_path`` or ``file:`` shift path resolves against the
manifest's recorded working directory, so a replay runs from any directory.
``--seed`` overrides the config seed; the EIGENFLOW_OUT environment
variable overrides the configured output directory and is itself
overridden by ``--out``.  ``--log-level`` (default WARNING) sets the level of
the log records printed on standard error, such as the Cholesky jitter
notice and the BLAS thread line at INFO; it changes no output file.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .config import ConfigError, parse_config
from .limitlaw import BurgersError
from .runner import SUBCOMMANDS, NumericalFailure, RunUsageError, run
from .sampling import FactorizationError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

OUTPUT_ENV_VAR = "EIGENFLOW_OUT"
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenflow",
        description="Spectral-measure flows of Gaussian matrix processes: "
                    "simulation, limit laws and verification experiments.")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="config file (or run_manifest.json to replay)")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--threads", type=int, default=1, help="worker threads")
        p.add_argument("--log-level", type=str.upper, choices=LOG_LEVELS, default="WARNING",
                       help="level of the log records printed on standard error")
    return parser


def _load_config_text(path: str) -> tuple:
    """The config text at ``path`` and the directory its relative input paths
    resolve against: a manifest's recorded one, else the working directory ("")."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"]) from None
    if path.endswith(".json") or text.lstrip().startswith("{"):
        manifest = json.loads(text)
        try:
            text = manifest["canonical_config"]
        except (TypeError, KeyError):
            raise ConfigError([f"{path}: JSON file is not a run manifest "
                               "(missing 'canonical_config')"]) from None
        root = manifest.get("working_directory", "")
        for key, value in (("canonical_config", text), ("working_directory", root)):
            if not isinstance(value, str):
                raise ConfigError([f"{path}: the manifest's {key!r} is not a string"])
        return text, root
    return text, ""


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    logging.basicConfig(level=args.log_level, stream=sys.stderr,
                        format="%(name)s: %(levelname)s: %(message)s")

    try:
        text, root = _load_config_text(args.config)
        cfg = parse_config(text)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        out_dir = args.out or os.environ.get(OUTPUT_ENV_VAR)
        written = run(cfg, args.subcommand, out_dir=out_dir, threads=args.threads, root=root)
    except (ConfigError, RunUsageError, json.JSONDecodeError) as exc:
        print(f"eigenflow: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BurgersError, FactorizationError, NumericalFailure, np.linalg.LinAlgError) as exc:
        print(f"eigenflow: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"eigenflow: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO

    for name in written:
        print(name)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
