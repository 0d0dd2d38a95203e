import pytest

from rackring import (
    CycleVector,
    EnumerationFilter,
    Perm,
    RackTable,
    are_isomorphic,
    connected_parts,
    conjugation_quandle,
    cycle_rack,
    decomposition_tree,
    depth,
    dihedral,
    disjoint_union,
    enumerate_decompositions,
    enumerate_ideals,
    enumerate_racks,
    inn_orbits,
    inner_group,
    irreducible_components,
    is_connected,
    is_homogeneous,
    is_irreducible,
    permutation_rack,
    product,
    profile,
    symmetric_group,
    trivial,
)
from rackring import structure
from rackring.canonical import _canonical_search
from rackring.perms import _orbit_partition


def test_inner_group_orders():
    assert inner_group(dihedral(3)).order() == 6
    for n in (1, 2, 5):
        assert inner_group(trivial(n)).order() == 1
    assert inner_group(RackTable([])).order() == 1


def test_connectivity():
    assert is_connected(dihedral(3))
    assert inn_orbits(dihedral(4)) == ((0, 2), (1, 3))
    assert not is_connected(permutation_rack(Perm.from_cycles(4, [0, 1], [2, 3])))
    assert not is_connected(RackTable([]))
    assert is_connected(cycle_rack(4))


def test_homogeneity():
    assert is_homogeneous(trivial(3))
    assert is_homogeneous(permutation_rack(Perm.from_cycles(4, [0, 1], [2, 3])))
    assert not is_homogeneous(permutation_rack(Perm.from_cycles(3, [0, 1])))
    assert not is_homogeneous(RackTable([]))


def test_connected_racks_are_homogeneous_without_the_search(racks_by_order, monkeypatch):
    # Inn(r) lies in Aut(r): the shortcut agrees with the orbits of the search's automorphisms
    d3 = dihedral(3)
    racks = [r for n in range(1, 6) for r in racks_by_order[n]] + enumerate_racks(EnumerationFilter(6))
    racks.append(product(product(d3, d3), d3))
    searched = []
    monkeypatch.setattr(structure, "_canonical_search", lambda table: searched.append(table) or _canonical_search(table))
    for r in racks:
        _, _, auts = _canonical_search(r.table)
        assert is_homogeneous(r) == (len(_orbit_partition(auts, range(r.n))) == 1)
    connected = [r.table for r in racks if is_connected(r)]
    assert len(connected) == 15
    assert len(searched) == len(racks) - len(connected) and not set(searched) & set(connected)


def test_irreducibility():
    assert is_irreducible(permutation_rack(Perm.from_cycles(4, [0, 1], [2, 3])))
    assert irreducible_components(trivial(2)) == ((0,), (1,))
    assert is_irreducible(permutation_rack(Perm.from_cycles(3, [0, 1])))
    assert not is_irreducible(RackTable([]))


def test_adjective_counterexample_table():
    # the four standard examples and their adjective patterns
    fixed_point_free = permutation_rack(Perm.from_cycles(4, [0, 1], [2, 3]))
    assert (
        is_connected(fixed_point_free),
        is_homogeneous(fixed_point_free),
        is_irreducible(fixed_point_free),
    ) == (False, True, True)

    lopsided = permutation_rack(Perm.from_cycles(3, [0, 1]))
    assert (is_connected(lopsided), is_homogeneous(lopsided), is_irreducible(lopsided)) == (
        False,
        False,
        True,
    )

    assert (is_connected(trivial(2)), is_homogeneous(trivial(2)), is_irreducible(trivial(2))) == (
        False,
        True,
        False,
    )

    union = disjoint_union(cycle_rack(2), trivial(1))
    assert (is_connected(union), is_homogeneous(union), is_irreducible(union)) == (
        False,
        False,
        False,
    )


def test_connected_iff_indecomposable(racks_by_order):
    for n in range(6):
        for r in racks_by_order[n]:
            indecomposable = n >= 1 and len(enumerate_ideals(r)) == 2
            assert is_connected(r) == indecomposable


def test_implication_diagram(racks_by_order):
    for n in range(6):
        for r in racks_by_order[n]:
            if is_connected(r):
                assert is_homogeneous(r)
                assert is_irreducible(r)


def test_connected_parts_examples():
    sym3 = conjugation_quandle(symmetric_group(3))
    parts = connected_parts(sym3)
    assert sorted(len(p) for p in parts) == [1, 1, 1, 3]
    big = max(parts, key=len)
    assert are_isomorphic(sym3.restrict(big), dihedral(3))

    assert connected_parts(dihedral(4)) == [(0,), (1,), (2,), (3,)]
    assert connected_parts(dihedral(3)) == [(0, 1, 2)]
    assert connected_parts(RackTable([])) == []


def test_connected_parts_are_connected(racks_by_order):
    for n in range(6):
        for r in racks_by_order[n]:
            parts = connected_parts(r)
            assert sorted(x for p in parts for x in p) == list(range(n))
            for p in parts:
                assert is_connected(r.restrict(p))


def test_depth():
    assert depth(dihedral(4)) == 2
    assert depth(dihedral(3)) == 0
    assert depth(dihedral(8)) == 3
    assert depth(RackTable([])) == 0
    assert depth(trivial(1)) == 0
    assert depth(trivial(2)) == 1


def test_decomposition_tree_structure():
    tree = decomposition_tree(dihedral(4))
    assert tree.node == (0, 1, 2, 3)
    assert [child.node for child in tree.children] == [(0, 2), (1, 3)]
    for child in tree.children:
        assert [leaf.node for leaf in child.children] == [(c,) for c in child.node]


def test_ideals_and_decompositions():
    d4 = dihedral(4)
    assert enumerate_ideals(d4) == [(), (0, 2), (1, 3), (0, 1, 2, 3)]
    assert enumerate_decompositions(d4) == [((0, 2), (1, 3))]
    assert enumerate_ideals(dihedral(3)) == [(), (0, 1, 2)]
    assert enumerate_decompositions(dihedral(3)) == []
    assert enumerate_decompositions(trivial(2)) == [((0,), (1,))]


def test_ideals_are_orbit_unions(racks_by_order):
    from rackring import is_ideal

    for n in range(6):
        for r in racks_by_order[n]:
            listed = set(enumerate_ideals(r))
            brute = {
                tuple(i for i in range(n) if mask >> i & 1)
                for mask in range(1 << n)
                if is_ideal(r, tuple(i for i in range(n) if mask >> i & 1))
            }
            assert listed == brute


def test_ideal_enumeration_bound():
    with pytest.raises(ValueError):
        enumerate_ideals(trivial(13))


def test_decomposition_enumeration_bound():
    with pytest.raises(ValueError, match="13 orbits exceeds the configured bound 12"):
        enumerate_decompositions(trivial(13))
    assert len(enumerate_decompositions(trivial(12))) == 2**11 - 1


def test_profile():
    assert profile(dihedral(3)) == CycleVector({1: 1, 2: 1})
    for n in (1, 2, 4):
        assert profile(trivial(n)) == CycleVector({1: n})
    nine = product(dihedral(3), dihedral(3))
    assert profile(nine) == CycleVector({1: 1, 2: 4})
    assert profile(nine) == profile(dihedral(3)) * profile(dihedral(3))
    with pytest.raises(ValueError):
        profile(permutation_rack(Perm.from_cycles(3, [0, 1])))
    with pytest.raises(ValueError):
        profile(RackTable([]))


def test_profile_independent_of_row(racks_by_order):
    for n in range(1, 6):
        for r in racks_by_order[n]:
            if is_homogeneous(r):
                types = {r.row_perm(a).cycle_lengths() for a in range(n)}
                assert len(types) == 1


def test_permutation_rack_characterizations():
    # for a permutation rack: connected iff the permutation is one full
    # cycle; homogeneous iff all cycles share one length; irreducible iff
    # the permutation moves something or the rack is tiny
    from itertools import permutations as all_perms

    for degree in range(1, 5):
        for images in all_perms(range(degree)):
            p = Perm(images)
            rack = permutation_rack(p)
            lengths = set(p.cycle_lengths())
            assert is_connected(rack) == (lengths == {degree})
            assert is_homogeneous(rack) == (len(lengths) == 1)
            assert is_irreducible(rack) == (not p.is_identity() or degree <= 1)


def test_additivity_of_parts_over_decompositions(racks_by_order):
    from rackring import canonical_key

    for n in range(2, 6):
        for r in racks_by_order[n]:
            whole = sorted(
                canonical_key(r.restrict(p)) for p in connected_parts(r)
            )
            for left, right in enumerate_decompositions(r):
                left_rack = r.restrict(left)
                right_rack = r.restrict(right)
                pieces = sorted(
                    [canonical_key(left_rack.restrict(p)) for p in connected_parts(left_rack)]
                    + [canonical_key(right_rack.restrict(p)) for p in connected_parts(right_rack)]
                )
                assert pieces == whole
