from itertools import product as iproduct

import pytest

from rackring import marks
from rackring import (
    MorphismCensus,
    PresentedQuandle,
    RackTable,
    canonical_key,
    census,
    colorings,
    conjugation_quandle,
    cycle_rack,
    dihedral,
    disjoint_union,
    enumerate_morphisms,
    format_presentation,
    is_connected,
    mark,
    mark_matrix,
    parse_presentation,
    product,
    symmetric_group,
    trefoil_presentation,
    trivial,
    verify_triangular_recursion,
)
from rackring.canonical import _table_constraints
from rackring.racks import FormatError


def brute_morphisms(c, r):
    """Oracle: filter all |R|^|C| maps by the morphism equation."""
    out = []
    for images in iproduct(range(r.n), repeat=c.n):
        if all(
            images[c.apply(a, b)] == r.apply(images[a], images[b])
            for a in range(c.n)
            for b in range(c.n)
        ):
            out.append(images)
    return out


def test_morphism_counts_match_brute_force(racks_by_order):
    small = racks_by_order[1] + racks_by_order[2] + racks_by_order[3]
    for c in small:
        for r in small:
            assert enumerate_morphisms(c, r) == sorted(brute_morphisms(c, r))


def test_morphism_count_examples():
    assert len(enumerate_morphisms(dihedral(3), dihedral(3))) == 9
    # maps from the singleton rack pick out the self-fixed elements
    for r in (dihedral(3), cycle_rack(2), trivial(4), disjoint_union(cycle_rack(2), trivial(1))):
        sigma_fixed = sum(1 for q in range(r.n) if r.apply(q, q) == q)
        assert len(enumerate_morphisms(trivial(1), r)) == sigma_fixed
    # both constant maps from the 2-cycle into the trivial pair qualify
    assert enumerate_morphisms(cycle_rack(2), trivial(2)) == [(0, 0), (1, 1)]
    assert len(brute_morphisms(cycle_rack(2), trivial(2))) == 2


def test_census_dihedral():
    cen = census(dihedral(3), dihedral(3))
    assert (cen.mor, cen.inj, cen.sur) == (9, 6, 6)
    assert cen.by_image == {
        canonical_key(trivial(1)).hex(): 3,
        canonical_key(dihedral(3)).hex(): 6,
    }


def test_census_examples():
    cen = census(trivial(1), dihedral(3))
    assert (cen.mor, cen.inj) == (3, 3)
    cen = census(cycle_rack(2), cycle_rack(2))
    assert (cen.mor, cen.inj) == (2, 2)
    assert len(brute_morphisms(cycle_rack(2), cycle_rack(2))) == 2


def census_keying_every_morphism(c, r):
    """Reference: the census as computed when every morphism keyed its image."""
    by_image = {}
    inj = sur = 0
    maps = enumerate_morphisms(c, r)
    for f in maps:
        values = set(f)
        if len(values) == c.n:
            inj += 1
        if len(values) == r.n:
            sur += 1
        key = canonical_key(r.restrict(sorted(values))).hex()
        by_image[key] = by_image.get(key, 0) + 1
    return MorphismCensus(len(maps), inj, sur, by_image)


def test_census_matches_keying_every_morphism(racks_by_order):
    sources = [r for n in range(1, 5) for r in racks_by_order[n]]
    targets = [r for n in range(5) for r in racks_by_order[n]]
    pairs = [(c, r) for c in sources for r in targets]
    pairs.append((dihedral(5), product(dihedral(5), dihedral(5))))
    for c, r in pairs:
        cen, ref = census(c, r), census_keying_every_morphism(c, r)
        assert cen == ref and list(cen.by_image) == list(ref.by_image)


def test_census_keys_each_distinct_image_once(monkeypatch):
    keyed = []
    monkeypatch.setattr(marks, "canonical_key", lambda t: keyed.append(t) or canonical_key(t))
    c, r = dihedral(5), product(dihedral(5), dihedral(5))
    cen = census(c, r)
    assert cen.mor == 625
    # d5 x d5 is one inner orbit: the census visits the 25 maps with f(0) = 0
    representatives = [f for f, _ in marks._orbit_weighted(_table_constraints(c.table), r.table)]
    assert len(representatives) == 25
    assert len(keyed) == len({frozenset(f) for f in representatives}) == 7
    assert cen == census_keying_every_morphism(c, r)


def _presentation_of(c):
    """The presentation whose relations are every entry of the table c."""
    return PresentedQuandle(c.n, tuple(("apply", a, b, c.table[a][b]) for a in range(c.n) for b in range(c.n)))


def test_orbit_weighted_counts_match_the_listing_path(racks_by_order):
    # census is compared with the listing path in test_census_matches_keying_every_morphism
    sources = [c for n in range(1, 4) for c in racks_by_order[n]]
    targets = [r for n in range(5) for r in racks_by_order[n]]
    listed = [[len(enumerate_morphisms(c, r)) for r in targets] for c in sources]
    connected = [i for i, c in enumerate(sources) if is_connected(c)]
    assert mark_matrix([sources[i] for i in connected], targets) == [listed[i] for i in connected]
    for c, row in zip(sources, listed):
        assert [colorings(_presentation_of(c), r) for r in targets] == row


def test_orbit_weighted_colorings_of_large_targets():
    conj_s5 = conjugation_quandle(symmetric_group(5))
    trefoil = trefoil_presentation()
    assert colorings(trefoil, conj_s5) == 600
    assert colorings(trefoil, dihedral(97)) == 97
    # generator 0 takes part in no relation: it multiplies the count by |r|
    shifted = tuple((kind, i + 1, j + 1, m + 1) for kind, i, j, m in trefoil.relations)
    assert colorings(PresentedQuandle(4, shifted), conj_s5) == 120 * 600
    assert colorings(PresentedQuandle(4, trefoil.relations), dihedral(97)) == 97 * 97
    for r in (conj_s5, dihedral(3), RackTable([])):
        assert colorings(PresentedQuandle(0, ()), r) == 1


def test_free_generators_are_counted_without_branching():
    # one recursion level per generator would exceed Python's recursion limit
    assert colorings(PresentedQuandle(1200, ()), trivial(2)) == 2**1200
    assert colorings(PresentedQuandle(1200, ()), RackTable([])) == 0
    trefoil = trefoil_presentation()
    spread = tuple((kind, 500 * i, 500 * j, 500 * m) for kind, i, j, m in trefoil.relations)
    assert colorings(PresentedQuandle(1200, spread), dihedral(3)) == 9 * 3**1197


def test_mark_requires_connected_source(ring):
    with pytest.raises(ValueError):
        mark(trivial(2), ring.one(), ring)


def test_mark_values(ring):
    star = trivial(1)
    assert mark(star, ring.of_rack(cycle_rack(2)), ring) == 0
    assert mark(star, ring.of_rack(dihedral(3)), ring) == 3
    dih3 = ring.class_of(dihedral(3))
    assert mark(dihedral(3), ring.mul(dih3, dih3), ring) == 81


def test_mark_additive_over_decompositions(ring, racks_by_order, connected_racks_by_order):
    from rackring import enumerate_decompositions

    sources = [c for n in (1, 2, 3) for c in connected_racks_by_order[n]]
    for n in range(2, 5):
        for r in racks_by_order[n]:
            for left, right in enumerate_decompositions(r):
                s, t = r.restrict(left), r.restrict(right)
                for c in sources:
                    assert len(enumerate_morphisms(c, r)) == len(
                        enumerate_morphisms(c, s)
                    ) + len(enumerate_morphisms(c, t))


def test_mark_multiplicative_over_products(connected_racks_by_order, racks_by_order):
    sources = [c for n in (1, 2, 3) for c in connected_racks_by_order[n]]
    targets = [r for n in (1, 2, 3) for r in racks_by_order[n]]
    for c in sources:
        for r in targets:
            for s in targets[:4]:
                assert len(enumerate_morphisms(c, product(r, s))) == len(
                    enumerate_morphisms(c, r)
                ) * len(enumerate_morphisms(c, s))


def test_mark_matrix_small(connected_racks_by_order):
    star, c2 = trivial(1), cycle_rack(2)
    matrix = mark_matrix([star, c2], [star, c2])
    assert matrix[0][0] == 1  # Mor(star, star)
    assert matrix[0][1] == 0  # Mor(star, C2): no self-fixed points
    assert matrix[1][1] == 2  # Mor(C2, C2)
    assert matrix == [
        [len(brute_morphisms(a, b)) for b in (star, c2)] for a in (star, c2)
    ]
    with pytest.raises(ValueError):
        mark_matrix([trivial(2)], [star])


def test_mark_separation_small(connected_racks_by_order):
    sources = [c for n in range(1, 4) for c in connected_racks_by_order[n]]
    targets = sources
    matrix = mark_matrix(sources, targets)
    columns = [tuple(row[j] for row in matrix) for j in range(len(targets))]
    assert len(set(columns)) == len(columns)


def test_triangular_recursion_examples():
    assert verify_triangular_recursion(dihedral(3), dihedral(3))
    for r in (dihedral(3), trivial(2), cycle_rack(2)):
        assert verify_triangular_recursion(trivial(1), r)


def test_triangular_recursion_small_pairs(connected_racks_by_order):
    pairs = [c for n in range(1, 4) for c in connected_racks_by_order[n]]
    for c in pairs:
        for r in pairs:
            assert verify_triangular_recursion(c, r)


def test_injective_mark_rigidity(racks_by_order):
    for n in range(1, 5):
        tables = racks_by_order[n]
        for a in tables:
            for b in tables:
                inj_ab = census(a, b).inj
                inj_ba = census(b, a).inj
                if inj_ab > 0 and inj_ba > 0:
                    assert canonical_key(a) == canonical_key(b)


def test_colorings():
    trefoil = trefoil_presentation()
    assert colorings(trefoil, dihedral(3)) == 9
    for n in range(1, 6):
        assert colorings(trefoil, trivial(n)) == n
    free = PresentedQuandle(1, ())
    for r in (dihedral(3), trivial(4)):
        assert colorings(free, r) == r.n


def test_colorings_brute_force_cross_check():
    trefoil = trefoil_presentation()
    r = dihedral(3)
    brute = sum(
        1
        for f in iproduct(range(3), repeat=3)
        if r.apply(f[0], f[1]) == f[2]
        and r.apply(f[1], f[2]) == f[0]
        and r.apply(f[2], f[0]) == f[1]
    )
    assert colorings(trefoil, r) == brute == 9


def test_colorings_additive_for_trefoil(racks_by_order):
    from rackring import enumerate_decompositions

    trefoil = trefoil_presentation()
    for n in range(2, 5):
        for r in racks_by_order[n]:
            for left, right in enumerate_decompositions(r):
                assert colorings(trefoil, r) == colorings(
                    trefoil, r.restrict(left)
                ) + colorings(trefoil, r.restrict(right))


def test_colorings_with_mixed_relations_match_brute_force(racks_by_order):
    # generator 3 occurs in no relation, so it multiplies the count by |r|
    pres = PresentedQuandle(4, (("apply", 0, 1, 2), ("unapply", 2, 0, 1), ("unapply", 1, 1, 0)))
    for n in range(5):
        for r in racks_by_order[n]:
            inverse = [r.row_perm(a).inverse() for a in range(n)]
            brute = sum(
                1
                for f in iproduct(range(n), repeat=pres.generators)
                if all(
                    (r.apply(f[i], f[j]) if kind == "apply" else inverse[f[i]](f[j])) == f[m]
                    for kind, i, j, m in pres.relations
                )
            )
            assert colorings(pres, r) == brute


def test_cycle_sources_see_only_the_diagonal_of_quandles(quandles_by_order):
    # morphisms from a cycle rack into a quandle are the constant maps at
    # self-fixed points, i.e. exactly |Q| of them; non-quandle targets can
    # have more
    for length in (1, 2, 3, 4):
        source = cycle_rack(length)
        for n in range(1, 5):
            for q in quandles_by_order[n]:
                assert len(enumerate_morphisms(source, q)) == q.n
    assert len(enumerate_morphisms(cycle_rack(2), cycle_rack(2))) == 2


def test_unapply_relations():
    pres = PresentedQuandle(2, (("unapply", 0, 0, 1),))
    # g0 |>^{-1} g0 = g1 forces g1 = row(g0)^{-1}(g0)
    r = cycle_rack(3)
    expected = sum(
        1
        for g0 in range(3)
        for g1 in range(3)
        if r.row_perm(g0).inverse()(g0) == g1
    )
    assert colorings(pres, r) == expected == 3


def test_presentation_file_round_trip():
    trefoil = trefoil_presentation()
    assert parse_presentation(format_presentation(trefoil)) == trefoil
    text = "# trefoil\nqpres 3\n0 rd 1 = 2\n1 rd 2 = 0\n2 rd 0 = 1\n"
    assert parse_presentation(text) == trefoil
    with pytest.raises(FormatError) as exc:
        parse_presentation("qpres 2\n0 rd 5 = 1\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError) as exc:
        parse_presentation("# no generators\nqpres -1\n")
    assert exc.value.line == 2
    with pytest.raises(ValueError):
        PresentedQuandle(-1, ())


def test_empty_source_rejected():
    with pytest.raises(ValueError):
        enumerate_morphisms(RackTable([]), dihedral(3))
