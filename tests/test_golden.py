"""Golden data rows: every config in tests/golden writes the recorded CSVs.

The digests cover each CSV's header and data rows, so a change that moves
one bit of one value fails here; the canonical digests cover each config's
canonical text, which every CSV's first line and the manifest embed.  They
are regenerated only by ``tests/golden/regen.py``, when a change moves rows
or canonical text on purpose.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from eigenflow import budget
from eigenflow.runner import SUBCOMMANDS

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)
DIGESTS = json.loads(regen.DIGESTS.read_text())
CANONICAL = json.loads(regen.CANONICAL.read_text())


def test_configs_cover_every_subcommand_and_sampler():
    assert sorted(DIGESTS) == regen.configs()
    assert {name.split("-")[0] for name in DIGESTS} == set(SUBCOMMANDS)
    circulant = [name for name in DIGESTS if "method = circulant" in (GOLDEN / name).read_text()]
    assert 0 < len(circulant) < len(DIGESTS)


@pytest.mark.parametrize("name", regen.configs())
def test_rows_match_the_recorded_digests(tmp_path, name):
    assert regen.run_config(name, tmp_path) == 0
    assert regen.csv_digests(tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("name, tile", [
    *(pytest.param(name, 1 << 12, id=name) for name in regen.configs()),
    *(pytest.param(name, 1, id=f"{name}-one-path") for name in regen.configs())])
def test_budgets_move_no_bit(tmp_path, monkeypatch, name, tile):
    # a budget only bounds memory: 4 KiB tiles, or one path per pool task
    # and one row per inner loop, and one SDE path per chunk write the
    # recorded rows
    monkeypatch.setattr(budget, "CHUNK_BYTES", 1)
    monkeypatch.setattr(budget, "TILE_BYTES", tile)
    assert regen.run_config(name, tmp_path) == 0
    assert regen.csv_digests(tmp_path) == DIGESTS[name]


def test_canonical_text_matches_the_recorded_digests():
    assert {name: regen.canonical_digest(name) for name in regen.configs()} == CANONICAL
