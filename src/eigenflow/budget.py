"""The working-set policy: how many rows one pass of a batch loop takes.

Every Monte Carlo draw is keyed by (seed, stream id, position), and every
batch loop treats its rows independently, so a batch size changes no bit;
it only bounds memory.  ``row_slices`` is the rule every batch loop
uses, against one of two byte budgets read at call time (a test patches
one attribute); ``balanced_slices`` is its twin for the time blocks of a
path tile.  ``TILE_BYTES`` bounds a tile of rows: the path tiles that are
the pool's tasks in ``diagnostics.ensemble_map``, each sampled,
diagonalised and reduced on its own, the blocks of grid times in which a
path tile assembles and diagonalises its matrices, and the row tiles
inside Philox, the circulant sampler and the divided differences.  A row
tile counts one array of its rows; the loops write into buffers held for
the whole call (the circulant sampler one complex array, twice a tile's
budget, that Philox draws into; the divided differences three pair
arrays), so no tile holds more than a few times its budget.  A time block
must not shrink below a stack of ``eigensolvers.GIL_EIGENVALUES``
eigenvalues per ``eigvalsh`` call, or the pool would serialise.
``CHUNK_BYTES`` belongs to the Dyson SDE side alone: it bounds a chunk of
SDE paths, which one pool task advances through every step, and a block
of their base noise, drawn into one buffer held for the pass.
``sampling._GEMM_TILE`` is not a budget: it fixes the height of every BLAS
call so that bulk and single-path sampling stay bit-identical.
"""

from __future__ import annotations

import math

CHUNK_BYTES = 5e6
TILE_BYTES = 1 << 17


def row_slices(rows: int, row_bytes: float, budget: float) -> list:
    """Consecutive slices of rows 0..rows-1 in order, each at least one row
    and, where one row fits, at most ``budget`` bytes of ``row_bytes`` each."""
    step = max(1, int(budget // row_bytes))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def balanced_slices(rows: int, row_bytes: float, budget: float, least: int) -> list:
    """As many slices of rows 0..rows-1 as ``row_slices`` gives, in sizes that
    differ by at most one, but fewer where a slice would hold under
    ``least`` rows: at least one slice, and ``least`` rows in each of them
    where ``rows`` holds that many."""
    count = max(1, min(math.ceil(rows / max(1, budget // row_bytes)), rows // least))
    return [slice(rows * i // count, rows * (i + 1) // count) for i in range(count)]
