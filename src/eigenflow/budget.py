"""The working-set policy: how many rows one pass of a batch loop takes.

Every Monte Carlo draw is keyed by (seed, stream id, position), and every
batch loop treats its rows independently, so a batch size changes no bit;
it only bounds memory.  ``row_slices`` is the one rule every batch loop
uses, against one of two byte budgets read at call time (a test patches
one attribute): the fewest slices that fit, in sizes that differ by at
most one.  ``TILE_BYTES`` bounds a tile of rows: the path tiles that are
the pool's tasks in ``diagnostics.ensemble_map``, each sampled,
diagonalised and reduced on its own, the blocks of grid times in which a
path tile assembles and diagonalises its matrices, and the row tiles
inside Philox, the circulant sampler and the divided differences.  A row
tile counts one array of its rows; the loops write into buffers held for
the whole call and sized by the first slice, the largest (the circulant
sampler one complex array, twice a tile's budget, that Philox draws into;
the divided differences three pair arrays), so no tile holds more than a
few times its budget.  A time block must not shrink below a stack of
``eigensolvers.GIL_EIGENVALUES`` eigenvalues per ``eigvalsh`` call, or
the pool would serialise, so the time blocks pass that floor.
``CHUNK_BYTES`` belongs to the Dyson SDE side alone: it bounds a chunk of
SDE paths, which one pool task advances through every step, and a block
of their base noise, drawn into one buffer held for the pass.
``sampling._GEMM_TILE`` is not a budget: it fixes the height of every BLAS
call so that bulk and single-path sampling stay bit-identical.
"""

from __future__ import annotations

CHUNK_BYTES = 5e6
TILE_BYTES = 1 << 17


def row_slices(rows: int, row_bytes: float, budget: float, least: int = 1) -> list:
    """The fewest consecutive slices of rows 0..rows-1 whose ``row_bytes``
    rows each fit ``budget`` where one row does, but fewer where a slice
    would hold under ``least`` rows.  Their sizes differ by at most one and
    the first is the largest; 0 rows give no slice."""
    count = min(-(-rows // max(1, int(budget // row_bytes))), max(1, rows // least))
    return [slice(-(-rows * i // count), -(-rows * (i + 1) // count)) for i in range(count)]
