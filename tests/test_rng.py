"""Counter-based generator: known-answer vectors, determinism, statistics."""

import hashlib
import itertools

import numpy as np
import pytest

from eigenflow import budget, rng


def _philox_ref(counter, key):
    """Scalar reference implementation of Philox-4x32-10."""
    mask = 0xFFFFFFFF
    x = list(counter)
    k0, k1 = key
    for _ in range(10):
        p0 = (0xD2511F53 * x[0]) & 0xFFFFFFFFFFFFFFFF
        p1 = (0xCD9E8D57 * x[2]) & 0xFFFFFFFFFFFFFFFF
        hi0, lo0 = p0 >> 32, p0 & mask
        hi1, lo1 = p1 >> 32, p1 & mask
        x = [hi1 ^ x[1] ^ k0, lo1, hi0 ^ x[3] ^ k1, lo0]
        k0 = (k0 + 0x9E3779B9) & mask
        k1 = (k1 + 0xBB67AE85) & mask
    return x


# Known-answer vectors from the Random123 reference distribution.
KAT = [
    ((0, 0, 0, 0), (0, 0),
     (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF, 0xFFFFFFFF),
     (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


@pytest.mark.parametrize("counter,key,expected", KAT)
def test_philox_known_answers(counter, key, expected):
    arrs = tuple(np.array([c], dtype=np.uint64) for c in counter)
    out = rng.philox4x32(arrs, *key)
    assert tuple(int(w[0]) for w in out) == expected


def test_philox_matches_scalar_reference():
    gen = np.random.default_rng(7)
    for _ in range(50):
        counter = tuple(int(v) for v in gen.integers(0, 2 ** 32, size=4))
        key = tuple(int(v) for v in gen.integers(0, 2 ** 32, size=2))
        arrs = tuple(np.array([c], dtype=np.uint64) for c in counter)
        out = rng.philox4x32(arrs, *key)
        assert [int(w[0]) for w in out] == _philox_ref(counter, key)


def test_normals_deterministic_and_order_independent():
    ids = np.array([rng.stream_id(0, 1, 2, p) for p in range(8)], dtype=np.uint64)
    a = rng.normals(123, ids, 9)
    b = rng.normals(123, ids[::-1], 9)[::-1]
    assert np.array_equal(a, b)
    single = rng.normals(123, ids[3:4], 9)[0]
    assert np.array_equal(a[3], single)


def test_normals_chunked_start_offset():
    ids = np.arange(6, dtype=np.uint64)
    full = rng.normals(99, ids, 31)
    parts = np.concatenate([rng.normals(99, ids, 10, start=0),
                            rng.normals(99, ids, 14, start=10),
                            rng.normals(99, ids, 7, start=24)], axis=1)
    assert np.array_equal(full, parts)
    # odd starts drop the first normal of their Philox block
    for start, count in ((3, 4), (1, 1), (5, 26), (29, 2)):
        assert np.array_equal(rng.normals(99, ids, count, start=start),
                              full[:, start:start + count])


@pytest.mark.parametrize("start,count", [(0, 9), (3, 13), (1, 1), (5, 40)])
def test_normals_tiles_match_single_rows(start, count, monkeypatch):
    # 16 counters per tile: several rows per tile, in tiles of two sizes,
    # and at count 40 a row of 21 counters, longer than a tile
    monkeypatch.setattr(budget, "TILE_BYTES", 16 * 16)
    ids = rng.stream_id(rng.DOMAIN_ENTRY, 1, 2, np.arange(40))
    block = rng.normals(99, ids, count, start=start)
    for k in range(ids.size):
        assert np.array_equal(block[k], rng.normals(99, ids[k:k + 1], count, start=start)[0])
    monkeypatch.undo()
    assert np.array_equal(block, rng.normals(99, ids, count, start=start))


def test_peak_memory_of_normals_stays_near_the_output(traced_peak):
    # the residual-fbm chunk at n = 64: 6 paths of 2080 entries, 25 normals each
    ids = rng.stream_id(rng.DOMAIN_ENTRY, *np.triu_indices(64), np.arange(6)[:, None])
    assert ids.size == 12_480
    assert traced_peak(rng.normals, 7, ids, 25) < 6e6  # the output is 2.5 MB


def test_normals_marginal_statistics():
    ids = np.arange(20_000, dtype=np.uint64)
    z = rng.normals(31337, ids, 4).reshape(-1)
    m = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(m)
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(2 * m)
    # third and fourth moments of a standard normal
    assert abs(np.mean(z ** 3)) < 4.0 * np.sqrt(15.0 / m)
    assert abs(np.mean(z ** 4) - 3.0) < 4.0 * np.sqrt(96.0 / m)


def test_streams_uncorrelated():
    ids = np.arange(50_000, dtype=np.uint64)
    z = rng.normals(5, ids, 2)
    r = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
    assert abs(r) < 4.0 / np.sqrt(z.shape[0])
    # across neighbouring stream ids
    r2 = np.corrcoef(z[:-1, 0], z[1:, 0])[0, 1]
    assert abs(r2) < 4.0 / np.sqrt(z.shape[0])


def test_stream_id_packing_rejects_out_of_range():
    with pytest.raises(ValueError):
        rng.stream_id(0, 4096, 0, 0)
    with pytest.raises(ValueError):
        rng.stream_id(16, 0, 0, 0)
    a = rng.stream_id(1, 2, 3, 4)
    b = rng.stream_id(1, 2, 3, 5)
    assert a != b


def test_stream_id_broadcasts():
    iu, ju = np.triu_indices(3)
    paths = np.array([0, 7])
    ids = rng.stream_id(rng.DOMAIN_ENTRY, iu, ju, paths[:, None])
    assert ids.shape == (2, 6) and ids.dtype == np.uint64
    for row, p in enumerate(paths):
        for k, (i, j) in enumerate(zip(iu, ju)):
            packed = (rng.DOMAIN_ENTRY << 60) | (int(i) << 48) | (int(j) << 36) | int(p)
            assert int(ids[row, k]) == rng.stream_id(rng.DOMAIN_ENTRY, int(i), int(j), int(p))
            assert int(ids[row, k]) == packed
    for bad in ((0, np.array([0, 4096]), 0, 0), (0, 0, np.array([1, -1]), 0),
                (0, 0, 0, np.array([[3], [1 << 36]])), (np.array([2, 16]), 0, 0, 0)):
        with pytest.raises(ValueError):
            rng.stream_id(*bad)


# sha256 of every normals() case below, per seed, as drawn before the
# in-place rewrite of Philox and Box-Muller: it must move no bit
NORMALS_DIGESTS = {
    0: "a1d44dcad5e59caeba35f2e9945f29ad496d227e6744b75267e31d5cc99b4878",
    2 ** 63 + 12345: "5375917a260948b2d81264a3af60093de7ae84aba37439c93a0ea52a46763ef8",
    2 ** 64 - 1: "b28581846cdf706bd83681f84cff74b1a1b5357cee061b1b4769a39f6091557b",
}


# ids with every 32-bit half at its edges, and a 2-D block of stream ids;
# odd and even starts, one beyond a tile; counts 0, 1, odd and even
NORMALS_GRID = tuple(itertools.product(
    (np.array([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5, 2 ** 64 - 1], dtype=np.uint64),
     rng.stream_id(rng.DOMAIN_CIRCULANT, *np.triu_indices(4), np.array([0, 9, 1 << 35])[:, None])),
    (0, 1, 3, 5600), (0, 1, 25, 32)))


@pytest.mark.parametrize("seed", sorted(NORMALS_DIGESTS))
def test_normals_bits_over_seeds_starts_and_counts(seed):
    digest = hashlib.sha256()
    for ids, start, count in NORMALS_GRID:
        z = rng.normals(seed, ids, count, start=start)
        assert z.shape == ids.shape + (count,) and z.dtype == np.float64
        digest.update(z.tobytes())
    assert digest.hexdigest() == NORMALS_DIGESTS[seed]


def test_peak_memory_of_one_path_draw(traced_peak):
    # one residual-fbm path at n = 64: 2080 entries, 25 normals each; the
    # output is 0.42 MB, and a tile's buffers are six words per counter
    ids = rng.stream_id(rng.DOMAIN_ENTRY, *np.triu_indices(64), 0)
    assert ids.size == 2080
    assert traced_peak(rng.normals, 7, ids, 25) < 1.3e6


def _wide(shape, count):
    """A column slice of a wider float array."""
    return np.full(shape + (count + 3,), np.nan)[..., :count]


def _complex_view(shape, count):
    """The leading floats of a complex buffer's rows, as its float view."""
    buffer = np.full(shape + (count // 2 + 2,), np.nan, dtype=np.complex128)
    return buffer.view(np.float64)[..., :count]


def _transposed(shape, count):
    """The transpose of a (count, streams) array, as the Dyson SDE holds its noise."""
    return np.full((count, int(np.prod(shape))), np.nan).T.reshape(shape + (count,))


@pytest.mark.parametrize("seed", sorted(NORMALS_DIGESTS))
@pytest.mark.parametrize("target", [_wide, _complex_view, _transposed])
def test_normals_into_out_keep_every_bit(seed, target):
    # the sha256 grid above, drawn into strided buffers a caller holds
    digest = hashlib.sha256()
    for ids, start, count in NORMALS_GRID:
        out = target(ids.shape, count)
        assert rng.normals(seed, ids, count, start=start, out=out) is out
        assert np.array_equal(out, rng.normals(seed, ids, count, start=start))
        digest.update(out.tobytes())
    assert digest.hexdigest() == NORMALS_DIGESTS[seed]


def test_normals_rejects_an_out_it_cannot_fill_before_writing():
    ids = rng.stream_id(rng.DOMAIN_ENTRY, 0, 1, np.arange(10).reshape(2, 5))
    for out in (np.full((2, 5, 6), np.nan),                    # a count too short
                np.full((10, 7), np.nan),                      # ids flattened
                np.full((2, 5, 7), np.nan, dtype=np.float32),  # not float64
                np.full((2, 6, 7), np.nan)[:, :5]):            # rows that do not merge
        with pytest.raises(ValueError):
            rng.normals(3, ids, 7, out=out)
        assert np.isnan(out).all()
