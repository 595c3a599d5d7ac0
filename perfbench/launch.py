"""Run the eigenflow CLI from the source tree next to this directory.

    python3 perfbench/launch.py --mark FILE [--trace FILE] -- <eigenflow arguments>

This is what the ``eigenflow`` console script does, plus two records for
the benchmark: ``--mark`` receives the monotonic clock reading at the moment
the config has been parsed (the end of set-up), and ``--trace`` receives the
tracer's per-span totals.  The exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mark", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(ROOT / "src"))
    import eigenflow.cli as cli

    tracer = None
    if args.trace is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    parse_config = cli.parse_config

    def parse_and_mark(text):
        cfg = parse_config(text)
        stamp = time.perf_counter()
        Path(args.mark).write_text(repr(stamp))
        return cfg

    cli.parse_config = parse_and_mark
    code = cli.main(cli_args)
    if tracer is not None:
        tracer.dump(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
