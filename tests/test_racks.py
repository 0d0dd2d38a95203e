import os
from itertools import permutations, product as iproduct

import pytest

from rackring import (
    InvalidRackError,
    Perm,
    RackTable,
    associated_quandle,
    are_isomorphic,
    cycle_rack,
    dihedral,
    disjoint_union,
    format_rack,
    inner_fixed_points,
    is_ideal,
    is_subrack,
    load_rack,
    parse_rack,
    permutation_rack,
    product,
    save_rack,
    trivial,
    trivially_acting_part,
    validate_table,
)
from rackring import groups, perms, racks, structure
from rackring.canonical import _canonical_search
from rackring.perms import PermGroup, _orbit_partition, _reach
from rackring.racks import FormatError, ValidationReport


DIH3_ROWS = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]


def test_validate_accepts_dihedral_rows():
    report = validate_table(DIH3_ROWS)
    assert report.ok
    assert RackTable(DIH3_ROWS) == dihedral(3)


def test_validate_rejects_broken_distributivity():
    # row 0 swaps while row 1 is the identity: 0|>0 = 1 forces row 1 to be
    # the conjugate of row 0 by itself, i.e. row 0 again, so (0, 0, .) fails.
    rows = [[1, 0], [0, 1]]
    report = validate_table(rows)
    assert not report.ok
    assert report.error == "not-self-distributive"
    violations = {
        (a, b, c)
        for a in range(2)
        for b in range(2)
        for c in range(2)
        if rows[a][rows[b][c]] != rows[rows[a][b]][rows[a][c]]
    }
    assert report.where in violations
    assert report.where == min(violations)
    assert report.detail == "0|>(0|>0) = 0 but (0|>0)|>(0|>0) = 1"


def test_validate_empty_rack():
    assert validate_table([]).ok
    assert RackTable([]).n == 0


def test_validate_distinct_error_kinds():
    assert validate_table([[0, 1]]).error == "not-square"
    assert validate_table([[0, 2], [0, 1]]).error == "entry-out-of-range"
    assert validate_table([[0, 0], [0, 1]]).error == "row-not-bijective"


def _conjugation_identity_holds(rows):
    """row(a |> b) == row_a . row_b . row_a^(-1) for all a, b."""
    n = len(rows)
    for a in range(n):
        inv_a = [0] * n
        for i, v in enumerate(rows[a]):
            inv_a[v] = i
        for b in range(n):
            conjugated = tuple(rows[a][rows[b][inv_a[x]]] for x in range(n))
            if tuple(rows[rows[a][b]]) != conjugated:
                return False
    return True


def test_validation_equals_conjugation_formulation_order3():
    perms3 = list(permutations(range(3)))
    for rows in iproduct(perms3, repeat=3):
        assert validate_table(rows).ok == _conjugation_identity_holds(rows)


def test_quandle_and_canonical_automorphism():
    assert dihedral(3).is_quandle()
    assert dihedral(3).canonical_automorphism().is_identity()
    swap_rack = permutation_rack(Perm.from_cycles(2, [0, 1]))
    assert not swap_rack.is_quandle()
    assert swap_rack.canonical_automorphism() == Perm.from_cycles(2, [0, 1])
    assert trivial(5).canonical_automorphism().is_identity()


def test_untwist():
    assert cycle_rack(3).untwist() == trivial(3)
    assert dihedral(3).untwist() == dihedral(3)
    for k in range(2, 5):
        u = cycle_rack(k).untwist()
        assert u.is_quandle()
        assert u == trivial(k)


def test_power():
    assert dihedral(3).power(2) == trivial(3)
    for r in (dihedral(4), cycle_rack(3), trivial(2)):
        assert r.power(1) == r
    assert permutation_rack(Perm.from_cycles(4, [0, 1, 2, 3])).power(-1) == permutation_rack(
        Perm.from_cycles(4, [0, 3, 2, 1])
    )


def test_untwist_and_powers_are_racks(racks_by_order):
    """untwist and power build their tables unchecked; the rack axioms hold."""
    for n in range(5):
        for r in racks_by_order[n]:
            assert validate_table(r.untwist().table).ok
            for k in (-2, -1, 0, 2, 3):
                assert validate_table(r.power(k).table).ok


def test_power_canonical_automorphism_is_iterated(racks_by_order):
    for n in range(5):
        for r in racks_by_order[n]:
            sigma = r.canonical_automorphism()
            for k in range(-3, 4):
                assert r.power(k).canonical_automorphism() == sigma**k


def test_product_examples():
    assert are_isomorphic(product(trivial(1), dihedral(3)), dihedral(3))
    nine = product(dihedral(3), dihedral(3))
    assert nine.n == 9
    assert nine.is_quandle()
    c2 = cycle_rack(2)
    four = product(c2, c2)
    from rackring import connected_parts

    parts = connected_parts(four)
    assert len(parts) == 2
    assert all(are_isomorphic(four.restrict(p), c2) for p in parts)


def test_product_associative_commutative_up_to_iso(racks_by_order):
    small = racks_by_order[2] + racks_by_order[3][:3]
    for a in small:
        for b in small:
            assert are_isomorphic(product(a, b), product(b, a))
    a, b, c = small[0], small[1], small[-1]
    assert are_isomorphic(product(product(a, b), c), product(a, product(b, c)))


def test_disjoint_union():
    r = dihedral(3)
    assert disjoint_union(RackTable([]), r) == r
    du = disjoint_union(cycle_rack(2), cycle_rack(2))
    assert du.table == ((1, 0, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (0, 1, 3, 2))
    assert are_isomorphic(
        disjoint_union(disjoint_union(trivial(1), cycle_rack(2)), trivial(2)),
        disjoint_union(trivial(1), disjoint_union(cycle_rack(2), trivial(2))),
    )
    assert are_isomorphic(disjoint_union(r, trivial(2)), disjoint_union(trivial(2), r))


def test_subrack_and_ideal():
    # transpositions in Sym(3) under conjugation: singletons are subracks,
    # never ideals
    from rackring import conjugation_class_quandle, symmetric_group

    sym3 = symmetric_group(3)
    transpositions = [g for g in range(6) if sym3.mul(g, g) == 0 and g != 0]
    q = conjugation_class_quandle(sym3, transpositions)
    assert is_subrack(q, (0,))
    assert not is_ideal(q, (0,))

    d4 = dihedral(4)
    from rackring import inn_orbits

    for orbit in inn_orbits(d4):
        assert is_ideal(d4, orbit)

    for r in (d4, trivial(3), cycle_rack(4)):
        assert is_ideal(r, ())
        assert is_ideal(r, tuple(range(r.n)))


def test_ideal_iff_subrack_with_subrack_complement(racks_by_order):
    for n in range(5):
        for r in racks_by_order[n]:
            full = set(range(n))
            for mask in range(1 << n):
                subset = tuple(i for i in range(n) if mask >> i & 1)
                complement = tuple(sorted(full - set(subset)))
                expected = is_subrack(r, subset) and is_subrack(r, complement)
                assert is_ideal(r, subset) == expected


def test_fixed_points_and_trivially_acting():
    d4 = dihedral(4)
    assert inner_fixed_points(d4) == ()
    assert inner_fixed_points(trivial(3)) == (0, 1, 2)
    assert trivially_acting_part(d4) == ()
    for half in ((0, 2), (1, 3)):
        sub = d4.restrict(half)
        assert trivially_acting_part(sub) == (0, 1)
    for n in range(5):
        r = trivial(n) if n else RackTable([])
        assert is_ideal(r, inner_fixed_points(r))


def test_restrict_requires_subrack():
    with pytest.raises(ValueError):
        dihedral(3).restrict((0, 1))


def test_restrict_counts_repeated_points_once():
    assert dihedral(3).restrict([0, 0]) == trivial(1)
    assert trivial(3).restrict([2, 0, 2]) == trivial(2)
    d6 = dihedral(6)
    assert d6.restrict([4, 0, 2, 0]) == d6.restrict([0, 2, 4])
    assert validate_table(d6.restrict([4, 0, 2, 0]).table).ok


def test_self_fixed_part_is_an_ideal(racks_by_order):
    # elements with a |> a = a form the maximal sub-quandle, and the image
    # of such an element under any left multiplication is again self-fixed
    for n in range(5):
        for r in racks_by_order[n]:
            fixed = tuple(q for q in range(n) if r.apply(q, q) == q)
            assert is_ideal(r, fixed)
            if fixed:
                assert r.restrict(fixed).is_quandle()


def test_associated_quandle():
    q, proj = associated_quandle(cycle_rack(4))
    assert q == trivial(1)
    assert proj == (0, 0, 0, 0)
    q, proj = associated_quandle(dihedral(3))
    assert q == dihedral(3)
    assert proj == (0, 1, 2)


def test_associated_quandle_is_a_quandle_quotient(racks_by_order):
    # built unchecked from one representative per sigma-orbit
    for n in range(6):
        for r in racks_by_order[n]:
            q, proj = associated_quandle(r)
            assert validate_table(q.table).ok
            assert q.is_quandle()
            assert sorted(set(proj)) == list(range(q.n))
            assert all(proj[r.table[a][b]] == q.table[proj[a]][proj[b]] for a in range(n) for b in range(n))


def test_sigma_commutes_with_left_multiplications(racks_by_order):
    for n in range(5):
        for r in racks_by_order[n]:
            sigma = r.canonical_automorphism()
            for a in range(n):
                assert sigma * r.row_perm(a) == r.row_perm(a) * sigma


def test_constructors():
    assert dihedral(2) == trivial(2)
    p = Perm.from_cycles(4, [0, 1], [2, 3])
    assert permutation_rack(p).table == ((1, 0, 3, 2),) * 4
    from rackring import conjugation_class_quandle, symmetric_group

    sym3 = symmetric_group(3)
    transpositions = [g for g in range(6) if sym3.mul(g, g) == 0 and g != 0]
    assert are_isomorphic(conjugation_class_quandle(sym3, transpositions), dihedral(3))


def test_conjugation_class_must_be_closed():
    from rackring import conjugation_class_quandle, symmetric_group

    sym3 = symmetric_group(3)
    transposition = next(g for g in range(6) if sym3.mul(g, g) == 0 and g != 0)
    with pytest.raises(ValueError):
        conjugation_class_quandle(sym3, (transposition,))


def test_rack_file_round_trip():
    for r in (dihedral(3), trivial(4), RackTable([]), cycle_rack(5)):
        assert parse_rack(format_rack(r)) == r


def test_rack_file_comments_and_errors():
    text = "# a comment\nrack 2   \n0 1  # trailing\n0 1\n"
    assert parse_rack(text) == trivial(2)
    with pytest.raises(FormatError) as exc:
        parse_rack("rack 2\n0 1\n0 x\n")
    assert exc.value.line == 3
    with pytest.raises(FormatError):
        parse_rack("quandle 2\n0 1\n0 1\n")
    with pytest.raises(InvalidRackError):
        parse_rack("rack 2\n1 0\n0 1\n")


def test_save_rack_replaces_atomically(tmp_path, monkeypatch):
    path = tmp_path / "kept.rack"
    old = format_rack(cycle_rack(2))
    path.write_text(old)

    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        save_rack(dihedral(3), path)
    assert path.read_text() == old
    assert os.listdir(tmp_path) == ["kept.rack"]


def test_generator_check_matches_the_scan():
    # every table of order <= 3 with bijective rows, and every order-4 table
    # whose rows fix their own index
    tables = [rows for n in range(4) for rows in iproduct(list(permutations(range(n))), repeat=n)]
    fixing = [[p for p in permutations(range(4)) if p[a] == a] for a in range(4)]
    tables += iproduct(*fixing)
    assert len(tables) == 1 + 1 + 4 + 216 + 1296
    for rows in tables:
        assert racks._self_distributive(rows) == (racks._distributivity_failure(rows) is None), rows


def _large_racks():
    from rackring import conjugation_quandle, symmetric_group

    d3 = dihedral(3)
    return [conjugation_quandle(symmetric_group(5)), dihedral(97), product(product(d3, d3), d3), trivial(40)]


def test_broken_rows_are_reported_like_the_scan(monkeypatch):
    def scan_report(rows):
        with monkeypatch.context() as m:
            m.setattr(racks, "_self_distributive", lambda rows: racks._distributivity_failure(rows) is None)
            report = validate_table(rows)
        return report.error, report.detail, report.where

    for r in _large_racks():
        n, gens = r.n, racks._generators(r.table)
        others = [a for a in range(n) if a not in gens]
        assert others or r == trivial(40)  # every point of trivial(40) is a generator
        for a in [gens[0], gens[-1]] + others[-1:]:
            rows = [list(row) for row in r.table]
            b = (a + 1) % n
            rows[a][a], rows[a][b] = rows[a][b], rows[a][a]
            report = validate_table(rows)
            assert not report.ok
            assert (report.error, report.detail, report.where) == scan_report(rows)


def test_loading_a_rack_runs_no_scan(tmp_path, monkeypatch):
    def scan(rows):
        raise AssertionError("the full distributivity scan ran")

    monkeypatch.setattr(racks, "_distributivity_failure", scan)
    path = tmp_path / "large.rack"
    for r in _large_racks():
        save_rack(r, path)
        assert load_rack(path) == r
        assert validate_table(r.table) == ValidationReport(True)


def _union_find(points, pairs):
    """Reference: the union-find that computed every orbit partition before
    the breadth-first `perms._orbit_partition` took its place.  Classes of
    the equivalence on `points` that the pairs generate, as sorted tuples
    ordered by least element."""
    parent = {x: x for x in points}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        if x != y:
            i, j = find(x), find(y)
            if i != j:
                parent[max(i, j)] = min(i, j)
    classes = {}
    for x in parent:
        classes.setdefault(find(x), []).append(x)
    return tuple(tuple(sorted(c)) for _, c in sorted(classes.items()))


def _orbit_partition_by_union_find(images, points):
    """Reference: the orbits as the union-find over every pair (x, image[x]) gave them."""
    return _union_find(points, ((x, image[x]) for image in images for x in points))


def test_orbit_partition_matches_union_find(racks_by_order, monkeypatch):
    visited = []

    def recording(images, points):
        visited.append((images, points))
        return _orbit_partition(images, points)

    monkeypatch.setattr(structure, "_orbit_partition", recording)
    for n in range(6):
        for r in racks_by_order[n]:
            visited.append((r.table, range(n)))
            structure.decomposition_tree(r.relabel(Perm(tuple(reversed(range(n))))))
            structure.decomposition_tree(r)
    assert sum(0 < len(points) < len(images[0]) for images, points in visited) > 100
    for images, points in visited:
        orbits = _orbit_partition_by_union_find(images, points)
        assert _orbit_partition(images, points) == orbits
        start = set(list(points)[::3])
        assert _reach(images, start) == {x for orbit in orbits if start.intersection(orbit) for x in orbit}


def _racks_and_relabellings(racks_by_order):
    for n in range(6):
        for r in racks_by_order[n]:
            yield r
            yield r.relabel(Perm(tuple(reversed(range(n)))))


def test_every_orbit_caller_matches_union_find(racks_by_order):
    """The sigma-orbits, the inner group's orbits, the automorphism orbits and
    the irreducible components, each against the union-find it replaced."""
    homogeneous = 0
    for r in _racks_and_relabellings(racks_by_order):
        t, points = r.table, range(r.n)
        sigma_orbits = _orbit_partition_by_union_find([r.canonical_automorphism().images], points)
        index = {x: i for i, orbit in enumerate(sigma_orbits) for x in orbit}
        assert associated_quandle(r)[1] == tuple(index[x] for x in points)
        assert PermGroup(r.n, r.row_perms()).orbits() == _orbit_partition_by_union_find(t, points)
        assert structure.inn_orbits(r) == _orbit_partition_by_union_find(t, points)
        if r.n:
            auts = _canonical_search(t)[2]
            aut_orbits = _orbit_partition_by_union_find(auts, points)
            assert _orbit_partition(auts, points) == aut_orbits
            assert structure.is_homogeneous(r) == (len(aut_orbits) == 1)
            homogeneous += len(aut_orbits) == 1
        assert structure.irreducible_components(r) == _union_find(
            points, ((a, b) for a in points for b in points if t[a][b] != b or t[b][a] != a)
        )
    assert homogeneous > 20


def test_pair_table_matches_the_formulas_it_replaced(racks_by_order):
    def old_product(r, s):
        ns = s.n
        return [
            tuple(r.table[a][c] * ns + s.table[b][d] for c in range(r.n) for d in range(ns))
            for a in range(r.n)
            for b in range(ns)
        ]

    def old_direct_product(g, h):
        nh = h.n
        return [
            [g.mul(a, c) * nh + h.mul(b, d) for c in range(g.n) for d in range(nh)]
            for a in range(g.n)
            for b in range(nh)
        ]

    def old_pair_action(pa, pb):
        ny = pb.degree
        return tuple(u * ny + v for u in pa.images for v in pb.images)

    small = [r for n in range(4) for r in racks_by_order[n]]
    for r in small:
        for s in small:
            assert product(r, s).table == tuple(old_product(r, s))
            for pa in r.row_perms():
                for pb in s.row_perms():
                    assert groups._pair_action(pa, pb).images == old_pair_action(pa, pb)
    group_list = [groups.cyclic_group(n) for n in (1, 2, 3, 4)] + [groups.symmetric_group(3)]
    for g in group_list:
        for h in group_list:
            assert groups.direct_product_group(g, h).cayley == tuple(map(tuple, old_direct_product(g, h)))
    assert perms._pair_table([], []) == perms._pair_table([(0,)], []) == []
