"""Counter-based Gaussian streams (Philox-4x32-10 + Box-Muller).

Every random draw in this package is a pure function of
``(master seed, stream id, position)``: the Philox block cipher is applied
to a 128-bit counter that encodes the stream id and the block index, keyed
by the 64-bit master seed.  Streams for distinct ids are independent by
construction and bit-identical regardless of evaluation order, chunking, or
worker count.  Generation is vectorised across streams, which is what makes
large Monte Carlo ensembles affordable in pure numpy, and runs over
tiles of whole stream rows under ``budget.TILE_BYTES``, so its temporaries
do not grow with the draw.

Stream ids pack a small domain tag (which subsystem is drawing), two matrix
indices and a path index into one 64-bit word.  :func:`stream_id` is the
one packer; its arguments broadcast, so a caller builds a whole block of
ids in one call.  :func:`normals` draws positions [start, start + count)
of each stream for any start.  Matrix entry (i, j) of path p is stream
``stream_id(domain, i, j, p)``, which carries no n: an n x n draw is the
leading sub-triangle (the entries with j < n) of the draw of any larger
n, so one draw of the largest n serves every smaller one.

SDE path p draws its Euler noise of step k from
``stream_id(DOMAIN_SDE, 0, 0, p)`` at positions [k n, (k+1) n), one
draw per block of steps (steps j..j+B-1 are positions [j n, (j+B) n)), and
the noise of the refined half steps under step k from
``stream_id(DOMAIN_SDE, 1, 0, p)``: half-step node h = 1..14 (a heap under
the step) at positions [(14 k + h - 1) n, (14 k + h) n), one draw per step.
Runs at several step sizes read the same positions at the same step k, so
one pass draws each block of Euler noise once and one tree draw per step
serves the stiff paths of every step size; the layout does not depend on
which step sizes run.
"""

from __future__ import annotations

import numpy as np

from . import budget

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_ROUNDS = 10

# domain tags keep unrelated subsystems on disjoint streams
DOMAIN_ENTRY = 0        # Gaussian entry paths (Cholesky sampler)
DOMAIN_CIRCULANT = 1    # circulant-embedding sampler
DOMAIN_SDE = 2          # eigenvalue SDE driving noise

_MAX_INDEX = 1 << 12    # matrix indices i, j must stay below this
_MAX_PATH = 1 << 36


def philox4x32(counter, key0: int, key1: int):
    """Apply the Philox-4x32-10 bijection to a batch of 128-bit counters.

    ``counter`` is a tuple of four equally-shaped uint64 arrays holding
    32-bit words; returns the four output words with the same shape.
    """
    x0, x1, x2, x3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    k0 = np.uint64(key0) & _MASK32
    k1 = np.uint64(key1) & _MASK32
    for _ in range(_ROUNDS):
        p0 = _M0 * x0
        p1 = _M1 * x2
        hi0 = p0 >> np.uint64(32)
        lo0 = p0 & _MASK32
        hi1 = p1 >> np.uint64(32)
        lo1 = p1 & _MASK32
        x0 = hi1 ^ x1 ^ k0
        x1 = lo1
        x2 = hi0 ^ x3 ^ k1
        x3 = lo0
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return x0, x1, x2, x3


def stream_id(domain, i, j, path):
    """Pack (domain, i, j, path) into 64-bit stream ids.

    The arguments broadcast against each other like numpy operands; the
    result is a uint64 array (or scalar) of their common shape.
    ``DOMAIN_SDE`` takes i = 0 for Euler noise, i = 1 for refinement noise.
    """
    fields = []
    for name, value, bound in (("stream domain", domain, 16), ("matrix index", i, _MAX_INDEX),
                               ("matrix index", j, _MAX_INDEX), ("path index", path, _MAX_PATH)):
        value = np.asarray(value)
        if value.size and (value.min() < 0 or value.max() >= bound):
            raise ValueError(f"{name} out of range [0, {bound - 1}]")
        fields.append(value.astype(np.uint64))
    d, i, j, path = fields
    return (d << np.uint64(60)) | (i << np.uint64(48)) | (j << np.uint64(36)) | path


def normals(seed: int, ids: np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """Standard normal variates for each stream id.

    Returns shape ``ids.shape + (count,)`` holding positions
    ``[start, start + count)`` of each stream, for any ``start >= 0``:
    Philox block b carries positions 2b and 2b + 1, so the draw runs from
    block ``start // 2`` and drops the first normal when ``start`` is odd.
    Stream ``s`` yields the same values at the same positions no matter
    how the draw is chunked.  Philox and Box-Muller run over tiles of whole
    stream rows, 16 bytes a counter under ``budget.TILE_BYTES``, written
    into one preallocated output, so the temporaries stay cache-sized;
    every operation is elementwise, so the tiling changes no bit.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    shape = ids.shape
    flat = ids.reshape(-1)
    first, skip = divmod(start, 2)
    n_blocks = (skip + count + 1) // 2
    blocks = np.arange(first, first + n_blocks, dtype=np.uint64)
    out = np.empty((flat.size, count), dtype=np.float64)
    for rows in budget.row_slices(flat.size, 16 * max(n_blocks, 1), budget.TILE_BYTES):
        tile = flat[rows, None]
        c0 = np.broadcast_to(blocks, (tile.shape[0], n_blocks))
        c1 = np.broadcast_to(tile & _MASK32, c0.shape)
        c2 = np.broadcast_to(tile >> np.uint64(32), c0.shape)
        c3 = np.zeros(c0.shape, dtype=np.uint64)

        x0, x1, x2, x3 = philox4x32((c0, c1, c2, c3), seed & 0xFFFFFFFF,
                                    (seed >> 32) & 0xFFFFFFFF)

        ua = (x0 << np.uint64(32)) | x1
        ub = (x2 << np.uint64(32)) | x3
        # (0,1] for the log, [0,1) for the angle
        u1 = ((ua >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)
        u2 = (ub >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        z = np.empty((tile.shape[0], 2 * n_blocks), dtype=np.float64)
        z[:, 0::2] = r * np.cos(theta)
        z[:, 1::2] = r * np.sin(theta)
        out[rows] = z[:, skip:skip + count]
    return out.reshape(shape + (count,))
