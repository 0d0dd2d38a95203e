"""The table of marks on the connected racks of order at most 8.

Marks |Mor(C, -)| from the connected classes separate the classes, are
triangular in injections and turn Burnside ring products into products of
integers.
"""

from fractions import Fraction

import pytest

from rackring import (
    BurnsideElement,
    BurnsideRing,
    EnumerationFilter,
    automorphism_group,
    enumerate_morphisms,
    enumerate_racks,
    mark,
    mark_matrix,
)

BOUND = 8
MAX_PRODUCT = 24  # basis products up to this order; 64 takes over half a minute


@pytest.fixture(scope="module")
def connected():
    """The 26 connected rack classes of order 1 to 8, ordered by size."""
    return [
        r
        for n in range(1, BOUND + 1)
        for r in enumerate_racks(EnumerationFilter(n, connected_only=True), bound=BOUND)
    ]


def test_connected_classes_counted(connected):
    assert [sum(1 for r in connected if r.n == n) for n in range(1, BOUND + 1)] == [1, 1, 2, 2, 4, 4, 6, 6]


def rational_rank(matrix):
    """Rank over the rationals, by exact Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_mark_columns_are_distinct(connected):
    matrix = mark_matrix(connected, connected)
    columns = {tuple(row[j] for row in matrix) for j in range(len(connected))}
    assert len(columns) == len(connected)
    # full rank: an element supported on these classes is fixed by its marks
    assert rational_rank(matrix) == len(connected) == 26
    assert rational_rank([[1, 2], [2, 4]]) == 1


def test_injective_marks_are_triangular(connected):
    for i, c in enumerate(connected):
        for j, d in enumerate(connected):
            inj = sum(1 for f in enumerate_morphisms(c, d) if len(set(f)) == c.n)
            if i == j:
                assert inj == automorphism_group(d).order()
            elif c.n >= d.n:
                assert inj == 0, (i, j)


def test_marks_are_multiplicative(connected):
    ring = BurnsideRing()
    basis = [BurnsideElement({ring.registry.register(r): 1}) for r in connected]
    marks = [[mark(c, x, ring) for x in basis] for c in connected]
    pairs = [
        (i, j)
        for i in range(len(connected))
        for j in range(i, len(connected))
        if connected[i].n * connected[j].n <= MAX_PRODUCT
    ]
    assert len(pairs) == 117
    for i, j in pairs:
        xy = ring.mul(basis[i], basis[j])
        for k, c in enumerate(connected):
            assert mark(c, xy, ring) == marks[k][i] * marks[k][j], (i, j)
