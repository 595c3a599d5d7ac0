"""Counter-based generator: known-answer vectors, determinism, statistics."""

import numpy as np
import pytest

from eigenflow import rng


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
    # 16 counters per tile: several rows per tile with a partial last tile,
    # and at count 40 a row of 21 counters, longer than a tile
    monkeypatch.setattr(rng, "_PHILOX_TILE", 16)
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
