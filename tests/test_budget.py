"""The one working-set rule: whole rows per pass under a byte budget, in
slices whose sizes differ by at most one."""

import math

import pytest

from eigenflow.budget import row_slices


def test_zero_rows_give_no_slice():
    assert row_slices(0, 8, 100) == []


def test_a_row_larger_than_the_budget_is_a_slice_of_its_own():
    assert row_slices(3, 1000, 100) == [slice(0, 1), slice(1, 2), slice(2, 3)]


def test_an_exact_multiple_fills_every_slice():
    assert row_slices(6, 8, 16) == [slice(0, 2), slice(2, 4), slice(4, 6)]


def test_the_first_slice_is_the_largest():
    # as many slices as three rows a slice need, not the 3, 3, 1 of a greedy step
    assert row_slices(7, 8, 24) == [slice(0, 3), slice(3, 5), slice(5, 7)]


@pytest.mark.parametrize("rows", [1, 5, 97, 1000])
@pytest.mark.parametrize("row_bytes,budget", [(8, 5e6), (96, 240), (7, 50), (3, 1)])
def test_slices_cover_every_row_once_in_order(rows, row_bytes, budget):
    slices = row_slices(rows, row_bytes, budget)
    covered = [i for s in slices for i in range(rows)[s]]
    assert covered == list(range(rows))
    assert all(s.stop - s.start >= 1 for s in slices)
    assert all((s.stop - s.start) * row_bytes <= budget for s in slices
               if row_bytes <= budget)


@pytest.mark.parametrize("rows, row_bytes, least, sizes", [
    (17, 80_000, 6, [9, 8]),  # n = 100: 17 slices of a row each would hold 100 eigenvalues
    (25, 32_768, 8, [9, 8, 8]),  # n = 64, not the 9, 9, 7 of a greedy step
    (25, 8_192, 16, [25]),  # n = 32 stays whole
    (7, 8, 1, [7]),  # the whole stack fits
    (5, 1000, 6, [5]),  # fewer rows than the floor: one slice
])
def test_balanced_slices(rows, row_bytes, least, sizes):
    slices = row_slices(rows, row_bytes, 1 << 17, least)
    assert [s.stop - s.start for s in slices] == sizes
    assert slices[0].start == 0 and slices[-1].stop == rows
    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))


@pytest.mark.parametrize("rows", [1, 5, 97, 513])
@pytest.mark.parametrize("row_bytes,budget", [(8, 5e6), (96, 240), (7, 50), (3, 1)])
@pytest.mark.parametrize("least", [1, 2, 6])
def test_balanced_slices_are_as_many_as_the_floor_allows(rows, row_bytes, budget, least):
    fit = math.ceil(rows / max(1, int(budget // row_bytes)))  # as many as the budget asks
    slices = row_slices(rows, row_bytes, budget, least)
    sizes = [s.stop - s.start for s in slices]
    assert [i for s in slices for i in range(rows)[s]] == list(range(rows))
    assert max(sizes) - min(sizes) <= 1 and sizes[0] == max(sizes)
    assert min(sizes) >= least or len(slices) == 1
    assert len(slices) == min(fit, max(1, rows // least))
    if len(slices) == fit and row_bytes <= budget:  # the floor cut none
        assert all(size * row_bytes <= budget for size in sizes)
