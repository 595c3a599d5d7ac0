"""Counter-based Gaussian streams (Philox-4x32-10 + Box-Muller).

Every random draw in this package is a pure function of
``(master seed, stream id, position)``: the Philox block cipher is applied
to a 128-bit counter that encodes the stream id and the block index, keyed
by the 64-bit master seed.  Streams for distinct ids are independent by
construction and bit-identical regardless of evaluation order, chunking, or
worker count.  Generation is vectorised across streams, which is what makes
large Monte Carlo ensembles affordable in pure numpy, and runs over
tiles of whole stream rows under ``budget.TILE_BYTES``, so its temporaries
do not grow with the draw.  A tile's counter goes in unbroadcast: the block
indices as a row, the two halves of the ids as columns and the zero word
as a scalar, so the first rounds run on rows and columns.  From round 3 on,
Philox runs in place in the tile's word buffers, Box-Muller turns those
buffers into floats in place, and the normals are written straight into
the output, so a tile holds six word-sized buffers however it is drawn.
The output may be the caller's own buffer (``normals(..., out=)``): the
circulant sampler draws into its complex buffer and the Dyson SDE into
one noise block held for its pass, so neither allocates per draw.

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

_M0, _M1 = np.uint64(0xD2511F53), np.uint64(0xCD9E8D57)
_W0, _W1 = 0x9E3779B9, 0xBB67AE85
_MASK32 = np.uint64(0xFFFFFFFF)
_S32, _S11 = np.uint64(32), np.uint64(11)
_ROUNDS = 10

# domain tags keep unrelated subsystems on disjoint streams
DOMAIN_ENTRY = 0        # Gaussian entry paths (Cholesky sampler)
DOMAIN_CIRCULANT = 1    # circulant-embedding sampler
DOMAIN_SDE = 2          # eigenvalue SDE driving noise

_MAX_INDEX = 1 << 12    # matrix indices i, j must stay below this
_MAX_PATH = 1 << 36


def _round(x0, x1, x2, x3, k0, k1, out=(None, None, None, None)):
    """One Philox round on words of any shapes that broadcast, into ``out``."""
    p0, p1 = _M0 * x0, _M1 * x2
    # xor is associative: the key joins the narrower operand first
    return (np.bitwise_xor(p1 >> _S32, x1 ^ k0, out=out[0]),
            np.bitwise_and(p1, _MASK32, out=out[1]),
            np.bitwise_xor(p0 >> _S32, x3 ^ k1, out=out[2]),
            np.bitwise_and(p0, _MASK32, out=out[3]))


def philox4x32(counter, key0: int, key1: int):
    """Apply the Philox-4x32-10 bijection to a batch of 128-bit counters.

    ``counter`` is a tuple of four uint64 arrays holding 32-bit words that
    broadcast against each other; returns the four output words with their
    common shape.  The counter's own arrays are never written.

    Rounds 1 and 2 compute on the words' own shapes: with the counter given
    as a row, two columns and a scalar, round 1 and the products of round 2
    run on a row or a column, and round 2 writes the full words.  Rounds 3
    to 10 run in place on the pairs (x0, x2) and (x1, x3), each the
    contiguous half of one buffer, so each operation is one call over a
    pair, through one product buffer.  Every word sees the arithmetic of
    the reference round, so every bit is the same.
    """
    x0, x1, x2, x3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    shape = np.broadcast_shapes(x0.shape, x1.shape, x2.shape, x3.shape)
    keys, k0, k1 = [], key0 & 0xFFFFFFFF, key1 & 0xFFFFFFFF
    for _ in range(_ROUNDS):
        keys.append((k0, k1))
        k0, k1 = (k0 + _W0) & 0xFFFFFFFF, (k1 + _W1) & 0xFFFFFFFF
    keys = np.array(keys, dtype=np.uint64)
    words = np.empty((4,) + shape, dtype=np.uint64)
    x = _round(*_round(x0, x1, x2, x3, *keys[0]), *keys[1],
               out=(words[0], words[2], words[1], words[3]))
    # per round: (p1, p0) = (M1, M0) (x2, x0); (x0, x2) = hi(p1, p0) ^ (x1, x3)
    # ^ (k0, k1); (x1, x3) = lo(p1, p0); each key and multiplier pair a column
    even, odd = words[:2], words[2:]
    column = (2,) + (1,) * len(shape)
    keys = keys.reshape((_ROUNDS,) + column)
    multipliers = np.array([_M1, _M0]).reshape(column)
    product = np.empty_like(even)
    for key in keys[2:]:
        np.multiply(even[::-1], multipliers, out=product)
        np.right_shift(product, _S32, out=even)
        np.bitwise_xor(even, odd, out=even)
        np.bitwise_xor(even, key, out=even)
        np.bitwise_and(product, _MASK32, out=odd)
    return x


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


def normals(seed: int, ids: np.ndarray, count: int, start: int = 0,
            out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal variates for each stream id.

    Returns shape ``ids.shape + (count,)`` holding positions
    ``[start, start + count)`` of each stream, for any ``start >= 0``,
    written into ``out`` where it is given and returned: a float64 array
    of that shape whose leading axes merge into one without a copy (a
    column slice, the float view of a complex buffer and the transpose of
    a (count, streams) array all do), so a caller that draws often holds
    one buffer.  Any other ``out`` raises ``ValueError`` before a value is
    written.  Either way the bits are the same.  Philox block b carries
    positions 2b and 2b + 1, so the draw runs from block ``start // 2``
    and drops the first normal when ``start`` is odd.  Stream ``s`` yields
    the same values at the same positions no matter how the draw is
    chunked.  Philox and Box-Muller run over tiles of whole stream rows,
    16 bytes a counter under ``budget.TILE_BYTES``, written into the one
    output, so the temporaries stay cache-sized; every operation is
    elementwise, so the tiling changes no bit.  Within a tile the counter
    words go in unbroadcast, and the later Philox rounds run in place
    (:func:`philox4x32`).  Box-Muller converts the words to floats in the
    buffers of words already consumed, takes the log, cosine and sine over
    whole contiguous tiles, and writes r cos(theta) and r sin(theta)
    straight into the strided columns of the output that they fill, so an
    odd ``start`` or ``count`` copies nothing.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    shape = ids.shape + (count,)
    flat = ids.reshape(-1)
    if out is None:
        out = np.empty(shape, dtype=np.float64)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be float64 of shape {shape}, "
                         f"not {out.dtype} of shape {out.shape}")
    # one row per stream, as a view of ``out``; where none exists the
    # reshape copies, and the copy lies outside ``out``'s memory
    rows_out = out.reshape(flat.size, count)
    if out.size and not np.may_share_memory(rows_out, out):
        raise ValueError(f"the leading axes of out, strides {out.strides}, "
                         "do not merge into one without a copy")
    first, skip = divmod(start, 2)
    n_blocks = (skip + count + 1) // 2
    blocks = np.arange(first, first + n_blocks, dtype=np.uint64)[None, :]
    # out column c is position start + c: block b's cosine lands in column
    # 2b - skip and its sine in column 2b + 1 - skip, where those exist
    n_cos, n_sin = len(range(skip, count, 2)), len(range(1 - skip, count, 2))
    for rows in budget.row_slices(flat.size, 16 * max(n_blocks, 1), budget.TILE_BYTES):
        tile = flat[rows, None]
        x0, x1, x2, x3 = philox4x32((blocks, tile & _MASK32, tile >> _S32, np.uint64(0)),
                                    seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF)
        # ua = x0 x1 and ub = x2 x3 as 64-bit words, cut to their top 53 bits
        for hi, lo in ((x0, x1), (x2, x3)):
            np.left_shift(hi, _S32, out=hi)
            np.bitwise_or(hi, lo, out=hi)
            np.right_shift(hi, _S11, out=hi)
        # as floats in the buffers of the consumed low words, every step in
        # place: u1 in (0,1] for the log, u2 in [0,1) for the angle
        r, theta = x1.view(np.float64), x3.view(np.float64)
        np.add(x0, 1.0, out=r)
        r *= 2.0 ** -53
        np.multiply(x2, 2.0 ** -53, out=theta)
        # the log, cosine and sine see whole contiguous tiles, as they always have
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        cos, sin = np.cos(theta, out=x0.view(np.float64)), np.sin(theta, out=x2.view(np.float64))
        np.multiply(r[:, skip:skip + n_cos], cos[:, skip:skip + n_cos],
                    out=rows_out[rows, skip::2])
        np.multiply(r[:, :n_sin], sin[:, :n_sin], out=rows_out[rows, 1 - skip::2])
    return out
