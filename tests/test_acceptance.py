"""Acceptance suite: one test per criterion, printing one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
All checks are exact integer identities.  The connected quandles up to
order 8 behind the primality sweep take about half a second, since a
connected search offers only rows of one cycle type.
"""

from itertools import product as iproduct

import pytest

from rackring import (
    BurnsideElement,
    BurnsideRing,
    CycleVector,
    EnumerationFilter,
    Perm,
    canonical_key,
    census,
    colorings,
    conjugation_quandle,
    coset_rack,
    cycle_rack,
    dihedral,
    enumerate_decompositions,
    enumerate_ideals,
    enumerate_morphisms,
    enumerate_racks,
    enumerate_racks_naive,
    inner_group,
    is_connected,
    is_homogeneous,
    is_irreducible,
    mark_matrix,
    permutation_rack,
    product,
    special_linear_2,
    symmetric_group,
    trefoil_presentation,
    trivial,
    verify_triangular_recursion,
)
from rackring import associated_quandle, crossed_to_rack, is_equivalence, rack_to_crossed, transitive_crossed


def report(number, text):
    print(f"ACCEPTANCE {number:2d} PASS: {text}")


@pytest.fixture(scope="module")
def ring():
    return BurnsideRing()


@pytest.fixture(scope="module")
def racks():
    return {n: enumerate_racks(EnumerationFilter(n)) for n in range(6)}


@pytest.fixture(scope="module")
def connected_racks(racks):
    return {n: [t for t in tables if is_connected(t)] for n, tables in racks.items()}


@pytest.fixture(scope="module")
def connected_quandles():
    return {
        n: enumerate_racks(EnumerationFilter(n, quandle_only=True, connected_only=True))
        for n in range(1, 9)
    }


def test_criterion_01_sym3_decomposition(ring):
    x = ring.of_rack(conjugation_quandle(symmetric_group(3)))
    star = ring.singleton_id()
    dih3 = ring.registry.register(dihedral(3))
    assert x == BurnsideElement({star: 3, dih3: 1})
    report(1, "class of the Sym(3) conjugation quandle is 3*[point] + [dihedral(3)]")


def test_criterion_02_additivity_sweep(ring, racks):
    checked = 0
    for n in range(6):
        for r in racks[n]:
            whole = ring.of_rack(r)
            for left, right in enumerate_decompositions(r):
                assert whole == ring.of_rack(r.restrict(left)) + ring.of_rack(r.restrict(right))
                checked += 1
    assert checked > 100
    report(2, f"class additivity over every decomposition of every rack of order <= 5 ({checked} splits)")


def test_criterion_03_adjective_table():
    def adjectives(r):
        indecomposable = r.n >= 1 and len(enumerate_ideals(r)) == 2
        return (is_connected(r), is_homogeneous(r), is_irreducible(r), indecomposable)

    fixed_point_free = permutation_rack(Perm.from_cycles(4, [0, 1], [2, 3]))
    assert adjectives(fixed_point_free) == (False, True, True, False)
    lopsided = permutation_rack(Perm.from_cycles(3, [0, 1]))
    assert adjectives(lopsided) == (False, False, True, False)
    assert adjectives(trivial(2)) == (False, True, False, False)
    assert adjectives(trivial(3)) == (False, True, False, False)
    report(3, "the four adjective counterexamples reproduce their stated patterns")


def test_criterion_04_cycle_arithmetic(ring):
    def oracle(r, s):
        images = [((i // s + 1) % r) * s + (i % s + 1) % s for i in range(r * s)]
        return Perm(images).cycle_type()

    for r in range(1, 7):
        for s in range(1, 7):
            assert CycleVector({r: 1}) * CycleVector({s: 1}) == oracle(r, s)
    unit = CycleVector.one() - CycleVector({2: 1})
    assert unit * unit == CycleVector.one()
    for x in (unit, CycleVector({2: 1, 3: 1})):
        assert x**0 == CycleVector.one()
        assert x**3 == x * x * x
    with pytest.raises(ValueError):
        unit**-1
    for n in range(1, 7):
        u = CycleVector({n: 1})
        assert ring.to_cycles(ring.from_cycles(u)) == u
    report(4, "cycle products match orbit counts; (1 - c2)^2 = 1; retraction splits the section")


def test_criterion_05_power_operation_obstruction(ring):
    x = ring.class_of(dihedral(3))
    squared_op = ring.power(x, 2)
    assert squared_op == 3 * ring.one()
    square = ring.mul(x, x)
    assert len(square) == 1 and set(square.values()) == {1}
    ((class_id, _),) = square.items()
    assert ring.registry.entry(class_id).order == 9
    assert is_connected(ring.registry.entry(class_id).table)
    assert ring.singleton_coefficient(squared_op - square) == 3
    report(5, "power operation on [dihedral(3)] gives 3*[point], off its square by the odd number 3")


def brute_morphisms(c, r):
    out = []
    for images in iproduct(range(r.n), repeat=c.n):
        if all(
            images[c.apply(a, b)] == r.apply(images[a], images[b])
            for a in range(c.n)
            for b in range(c.n)
        ):
            out.append(images)
    return out


def test_criterion_06_marks(racks, connected_racks):
    cen = census(dihedral(3), dihedral(3))
    brute = brute_morphisms(dihedral(3), dihedral(3))
    assert (cen.mor, cen.inj, cen.sur) == (9, 6, 6)
    assert cen.mor == len(brute)
    assert cen.inj == sum(1 for f in brute if len(set(f)) == 3)
    assert cen.sur == sum(1 for f in brute if len(set(f)) == 3)

    sources = [c for n in (1, 2, 3) for c in connected_racks[n]]
    targets = [r for n in (1, 2, 3) for r in racks[n]]
    for c in sources:
        for r in targets:
            count = len(enumerate_morphisms(c, r))
            assert count == len(brute_morphisms(c, r))
            for left, right in enumerate_decompositions(r):
                assert count == len(enumerate_morphisms(c, r.restrict(left))) + len(
                    enumerate_morphisms(c, r.restrict(right))
                )
            for s in targets:
                assert len(enumerate_morphisms(c, product(r, s))) == count * len(
                    enumerate_morphisms(c, s)
                )

    pairs = [c for n in (1, 2, 3, 4) for c in connected_racks[n]]
    for c in pairs:
        for r in pairs:
            assert verify_triangular_recursion(c, r)
    report(6, "censuses match brute force; marks are additive, multiplicative, and triangular")


def test_criterion_07_mark_separation(connected_racks):
    classes = [c for n in (1, 2, 3, 4) for c in connected_racks[n]]
    matrix = mark_matrix(classes, classes)
    columns = [tuple(row[j] for row in matrix) for j in range(len(classes))]
    assert len(set(columns)) == len(columns)
    report(7, f"mark matrix over the {len(classes)} connected classes of order <= 4 has distinct columns")


def test_criterion_08_cancellation(connected_racks):
    quandle_filter = lambda t: t.is_quandle()
    connected = [r for n in (1, 2, 3) for r in connected_racks[n]]
    quandles = [
        q
        for n in (1, 2, 3)
        for q in enumerate_racks(EnumerationFilter(n, quandle_only=True))
    ]
    checked = 0
    for r in connected:
        for s in connected:
            for t in quandles:
                if canonical_key(product(r, t)) == canonical_key(product(s, t)):
                    assert canonical_key(r) == canonical_key(s)
                checked += 1
    report(8, f"cancellation holds across {checked} product comparisons")


def test_criterion_09_sl2_f3_counterexample(connected_quandles):
    group, matrices = special_linear_2(3)
    index = {m: i for i, m in enumerate(matrices)}
    h = tuple(sorted(index[(1, b, 0, 1)] for b in range(3)))
    mu = index[(2, 2, 0, 2)]
    rack = coset_rack(group, h, mu)
    assert rack.n == 8
    assert is_connected(rack)
    assert inner_group(rack).order() == 24
    sigma = rack.canonical_automorphism()
    assert (sigma * sigma).is_identity() and all(sigma(i) != i for i in range(8))
    quotient, _ = associated_quandle(rack)
    (tetra,) = connected_quandles[4]
    assert canonical_key(quotient) == canonical_key(tetra)
    assert canonical_key(rack) != canonical_key(product(cycle_rack(2), tetra))
    report(9, "the order-8 coset rack over SL2(F3) is connected, has inner group of order 24, "
              "and is not the product of a 2-cycle with the tetrahedral quandle")


def test_criterion_10_cycle_times_quandle_injective(connected_quandles):
    keys = {}
    for length in range(1, 5):
        for q in [t for n in (1, 3, 4) for t in connected_quandles[n]]:
            table = product(cycle_rack(length), q)
            assert is_connected(table)
            key = canonical_key(table)
            assert key not in keys, f"collision between {keys.get(key)} and {(length, q.n)}"
            keys[key] = (length, q.n)
    assert len(keys) == 4 * 3
    report(10, "products of cycles (length <= 4) with connected quandles (order <= 4) stay distinct")


def test_criterion_11_prime_quandles(ring, connected_quandles):
    counts = [len(connected_quandles[n]) for n in range(1, 9)]
    assert counts == [1, 0, 1, 1, 3, 2, 5, 3]
    checked = 0
    for n in range(2, 9):
        for q in connected_quandles[n]:
            assert ring.is_prime_quandle(q)
            checked += 1
    nine = product(dihedral(3), dihedral(3))
    dih3 = ring.registry.register(dihedral(3))
    assert ring.factor_quandle(nine) == [dih3, dih3]
    report(11, f"all {checked} connected quandles of order 2..8 are prime; "
               "dihedral(3) x dihedral(3) factors back into its factors")


def test_criterion_12_oracle_equivalence():
    for n in range(5):
        for quandle_only in (False, True):
            filt = EnumerationFilter(n, quandle_only=quandle_only)
            fast = {canonical_key(t) for t in enumerate_racks(filt)}
            naive = {canonical_key(t) for t in enumerate_racks_naive(filt)}
            assert fast == naive
    assert len(enumerate_racks_naive(EnumerationFilter(4))) == 19
    report(12, "backtracking generation matches the naive oracle at orders <= 4 (19 rack classes at 4)")


def test_criterion_13_crossed_round_trips(racks):
    for n in range(1, 5):
        for r in racks[n]:
            crossed = rack_to_crossed(r)
            assert crossed_to_rack(crossed) == r
            again = rack_to_crossed(crossed_to_rack(crossed))
            assert is_equivalence(
                list(range(crossed.group.n)), list(range(r.n)), crossed, again
            )
    sym3 = symmetric_group(3)
    transposition = next(g for g in range(1, 6) if sym3.mul(g, g) == 0)
    foreign = transitive_crossed(sym3, (0,), transposition)
    again = rack_to_crossed(crossed_to_rack(foreign))
    index = {p: i for i, p in enumerate(again.action)}
    f = [index[foreign.action[g]] for g in range(sym3.n)]
    assert is_equivalence(f, list(range(foreign.size)), foreign, again)

    seen = set()
    for gens in ([], *([g] for g in range(1, 6)), [1, 3]):
        subgroup = sym3.subgroup_from(gens)
        if subgroup in seen:
            continue
        seen.add(subgroup)
        rack = crossed_to_rack(transitive_crossed(sym3, subgroup, 0))
        assert rack == trivial(6 // len(subgroup))
    report(13, "crossed round trips are the identity on tables and equivalences of crossed actions; "
               "identity crossings land on trivial quandles")


def test_criterion_14_trefoil_colorings():
    trefoil = trefoil_presentation()
    dih3 = dihedral(3)
    brute = sum(
        1
        for f in iproduct(range(3), repeat=3)
        if dih3.apply(f[0], f[1]) == f[2]
        and dih3.apply(f[1], f[2]) == f[0]
        and dih3.apply(f[2], f[0]) == f[1]
    )
    assert colorings(trefoil, dih3) == brute == 9
    for n in range(1, 6):
        tn = trivial(n)
        brute_n = sum(
            1
            for f in iproduct(range(n), repeat=3)
            if f[1] == f[2] and f[2] == f[0] and f[0] == f[1]
        )
        assert colorings(trefoil, tn) == brute_n == n
    report(14, "trefoil colorings: 9 in dihedral(3) and n in the trivial quandle of order n")
