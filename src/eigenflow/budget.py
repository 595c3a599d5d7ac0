"""The working-set policy: how many rows one pass of a batch loop takes.

Every Monte Carlo draw is keyed by (seed, stream id, position), and every
batch loop treats its rows independently, so a batch size changes no bit;
it only bounds memory.  ``row_slices`` is the one rule every batch loop
uses, against one of two byte budgets read at call time (a test patches
one attribute): ``CHUNK_BYTES`` per chunk of paths, which each worker takes
one at a time, and ``TILE_BYTES`` per tile inside a chunk.  A chunk is sized
by the work it does, such as the matrices of every n it diagonalises, but
holds one tile of them at a time: the tile is what is live at once.
``sampling._GEMM_TILE`` is not a budget: it fixes the height of every BLAS
call so that bulk and single-path sampling stay bit-identical.
"""

from __future__ import annotations

CHUNK_BYTES = 5e6
TILE_BYTES = 1 << 17


def row_slices(rows: int, row_bytes: float, budget: float) -> list:
    """Consecutive slices of rows 0..rows-1 in order, each at least one row
    and, where one row fits, at most ``budget`` bytes of ``row_bytes`` each."""
    step = max(1, int(budget // row_bytes))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]
