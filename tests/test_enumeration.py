import random
from itertools import permutations
from itertools import product as iproduct

import pytest

from rackring import (
    ClassRegistry,
    EnumerationFilter,
    Perm,
    canonical_key,
    centralizer_order_in_sym,
    count,
    enumerate_racks,
    enumerate_racks_naive,
    is_connected,
    populate_registry,
    validate_table,
)
from rackring.enumeration import _centralizer_fixing, _root_rows, _RowSearch


def keyset(tables):
    return {canonical_key(t) for t in tables}


def test_small_rack_counts():
    assert count(EnumerationFilter(1)) == 1
    assert count(EnumerationFilter(2)) == 2
    assert count(EnumerationFilter(3)) == 6
    assert count(EnumerationFilter(4)) == 19


def test_quandle_counts():
    assert count(EnumerationFilter(3, quandle_only=True)) == 3
    assert count(EnumerationFilter(4, quandle_only=True)) == 7
    assert count(EnumerationFilter(5, quandle_only=True)) == 22


def forms(tables):
    return [t.table for t in tables]


def test_connected_quandle_counts_through_order_eight():
    got = [
        count(EnumerationFilter(n, quandle_only=True, connected_only=True))
        for n in range(1, 9)
    ]
    assert got == [1, 0, 1, 1, 3, 2, 5, 3]


def test_connected_search_matches_filtered_full_search():
    # the connected search offers only the root's cycle type; filtering the
    # full search at the leaves is a second route to the same classes
    cases = [(n, False) for n in range(7)] + [(n, True) for n in range(8)]
    for n, quandle_only in cases:
        full = enumerate_racks(EnumerationFilter(n, quandle_only=quandle_only))
        connected = enumerate_racks(
            EnumerationFilter(n, quandle_only=quandle_only, connected_only=True)
        )
        assert forms(connected) == forms(t for t in full if t.n and is_connected(t))


def test_prime_order_connected_quandles_are_affine_count():
    # over a prime field there are exactly p - 2 connected quandles of
    # order p, one for each non-identity multiplier of the affine line
    for p in (3, 5, 7):
        assert count(EnumerationFilter(p, quandle_only=True, connected_only=True)) == p - 2


def test_matches_naive_oracle_exactly():
    for n in range(5):
        for quandle_only in (False, True):
            filt = EnumerationFilter(n, quandle_only=quandle_only)
            assert keyset(enumerate_racks(filt)) == keyset(enumerate_racks_naive(filt))


def test_matches_naive_oracle_connected():
    for n in range(5):
        filt = EnumerationFilter(n, connected_only=True)
        assert keyset(enumerate_racks(filt)) == keyset(enumerate_racks_naive(filt))


def test_raw_all_matrices_route_tiny_orders():
    # third route: literally every n x n integer matrix through the validator
    for n in (0, 1, 2):
        raw = set()
        for entries in iproduct(range(n), repeat=n * n):
            rows = [entries[i * n : (i + 1) * n] for i in range(n)]
            if validate_table(rows).ok:
                from rackring import RackTable

                raw.add(canonical_key(RackTable(rows)))
        assert raw == keyset(enumerate_racks(EnumerationFilter(n)))


def test_raw_all_matrices_quandles_order_three():
    from rackring import RackTable

    raw = set()
    for entries in iproduct(range(3), repeat=9):
        rows = [entries[0:3], entries[3:6], entries[6:9]]
        if all(rows[a][a] == a for a in range(3)) and validate_table(rows).ok:
            raw.add(canonical_key(RackTable(rows)))
    assert len(raw) == 3
    assert raw == keyset(enumerate_racks(EnumerationFilter(3, quandle_only=True)))


def test_shuffle_stability():
    for n in (4, 5):
        base = keyset(enumerate_racks(EnumerationFilter(n)))
        for seed in (1, 7):
            shuffled = keyset(enumerate_racks(EnumerationFilter(n), rng=random.Random(seed)))
            assert shuffled == base
    quandles = keyset(enumerate_racks(EnumerationFilter(6, quandle_only=True)))
    again = keyset(
        enumerate_racks(EnumerationFilter(6, quandle_only=True), rng=random.Random(3))
    )
    assert again == quandles
    # the pruning group depends on which free index the search branches on
    order_seven = EnumerationFilter(7, quandle_only=True)
    base = forms(enumerate_racks(order_seven))
    for seed in (2, 11):
        assert forms(enumerate_racks(order_seven, rng=random.Random(seed))) == base


def emitted(filt):
    tables = []
    _RowSearch(filt, tables.append).run()
    return tables


def test_symmetry_pruning_emits_fewer_tables():
    # fixing only row 0 emits 1405 tables for the 298 quandles of order 7
    # and 917 for the 353 racks of order 6
    quandles = emitted(EnumerationFilter(7, quandle_only=True))
    racks = emitted(EnumerationFilter(6))
    assert 298 <= len(quandles) < 1405
    assert 353 <= len(racks) < 917
    assert all(validate_table(rows).ok for rows in quandles + racks)


def test_root_group_is_the_centralizer_fixing_the_root_point():
    for n in range(1, 8):
        for quandle_only in (False, True):
            for root in _root_rows(n, quandle_only):
                group = _centralizer_fixing(root, 0)
                elements = {c for c, _ in group}
                assert len(elements) == len(group)
                assert tuple(range(n)) not in elements
                for c, inverse in group:
                    assert c[0] == 0
                    assert all(c[root[x]] == root[c[x]] for x in range(n))
                    assert all(inverse[c[x]] == x for x in range(n))
                # the centralizer moves 0 onto every point on a cycle as long
                # as the one through 0, so the stabilizer of 0 is the rest
                length, x = 1, root[0]
                while x != 0:
                    length, x = length + 1, root[x]
                orbit = length * Perm(root).cycle_lengths().count(length)
                assert (len(group) + 1) * orbit == centralizer_order_in_sym(Perm(root))
                if n <= 5:
                    brute = {
                        c
                        for c in permutations(range(n))
                        if c[0] == 0 and all(c[root[x]] == root[c[x]] for x in range(n))
                    }
                    assert elements | {tuple(range(n))} == brute


def test_representatives_are_canonical():
    for table in enumerate_racks(EnumerationFilter(4)):
        from rackring import canonical_form

        form, _ = canonical_form(table)
        assert form == table


def test_restrictions_and_products_already_enumerated(racks_by_order):
    from rackring import connected_parts, product

    keys_by_order = {n: keyset(racks_by_order[n]) for n in range(6)}
    for n in range(1, 5):
        for r in racks_by_order[n]:
            for part in connected_parts(r):
                assert canonical_key(r.restrict(part)) in keys_by_order[len(part)]
    for a in racks_by_order[2]:
        for b in racks_by_order[2]:
            assert canonical_key(product(a, b)) in keys_by_order[4]


def test_bounds_are_enforced():
    with pytest.raises(ValueError):
        enumerate_racks(EnumerationFilter(7))
    with pytest.raises(ValueError):
        enumerate_racks(EnumerationFilter(9, quandle_only=True))
    with pytest.raises(ValueError):
        enumerate_racks_naive(EnumerationFilter(5))
    # and the bound is configuration, not a constant
    assert count(EnumerationFilter(2), bound=2) == 2


def test_populate_registry():
    registry = ClassRegistry()
    added = populate_registry(EnumerationFilter(3), registry)
    connected_order_3 = [e for e in registry.entries() if e.order == 3]
    assert added == len(registry)
    assert all(e.order <= 3 for e in registry.entries())
    assert len(connected_order_3) == 2  # the dihedral quandle and the 3-cycle
    again = populate_registry(EnumerationFilter(3), registry)
    assert again == 0
