"""Regenerate the golden digests of the configs in this directory.

    PYTHONPATH=src python tests/golden/regen.py

Each ``<subcommand>-<case>.cfg`` runs through ``eigenflow.cli.main`` with
this directory as the working directory, so its ``table_path`` and
``file:`` shift are relative to it.  ``digests.json`` maps each config to
the SHA-256 of every CSV it writes, taken over the column header and the
data rows; the first line, a ``#`` comment that embeds the output
directory, is left out.  ``canonical.json`` maps each config to the SHA-256
of its ``parse_config(...).canonical_text()``, the text that first line and
``run_manifest.json`` embed.  Regenerate only when a change moves rows or
canonical text on purpose, and name each moved digest and its reason in the
change's notes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
CANONICAL = HERE / "canonical.json"


def configs() -> list:
    """Config file names, sorted."""
    return sorted(p.name for p in HERE.glob("*.cfg"))


def csv_digests(out: Path) -> dict:
    """SHA-256 of each CSV's header and data rows, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes().split(b"\n", 1)[1]).hexdigest()
            for p in sorted(out.glob("*.csv"))}


def canonical_digest(name: str) -> str:
    """SHA-256 of config ``name``'s canonical text."""
    from eigenflow.config import parse_config
    text = parse_config((HERE / name).read_text()).canonical_text()
    return hashlib.sha256(text.encode()).hexdigest()


def run_config(name: str, out: Path) -> int:
    """Exit code of the CLI run of config ``name`` into ``out``."""
    from eigenflow.cli import main
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        return main([name.split("-")[0], "--config", name, "--out", str(out)])
    finally:
        os.chdir(cwd)


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in configs():
            out = Path(tmp) / name
            if run_config(name, out) != 0:
                print(f"{name}: the run failed", file=sys.stderr)
                return 1
            digests[name] = csv_digests(out)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    canonical = {name: canonical_digest(name) for name in configs()}
    CANONICAL.write_text(json.dumps(canonical, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
