import math
import random
from itertools import permutations, product

import pytest

from rackring import CycleVector, Perm, PermGroup, centralizer_order_in_sym


def brute_closure(degree, gens):
    """Reference group order by explicit closure."""
    elements = {Perm.identity(degree)}
    frontier = list(elements)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g * x
            if y not in elements:
                elements.add(y)
                frontier.append(y)
    return elements


def test_compose_examples():
    swap = Perm.from_cycles(2, [0, 1])
    assert (swap * swap).is_identity()
    c3 = Perm.from_cycles(3, [0, 1, 2])
    assert c3 * c3 == Perm.from_cycles(3, [0, 2, 1])
    p, q = Perm.from_cycles(3, [0, 1]), Perm.from_cycles(3, [1, 2])
    # hand table: 0 -> q 0 -> p 1; 1 -> q 2 -> p 2; 2 -> q 1 -> p 0
    assert p * q == Perm((1, 2, 0))
    assert p * q == Perm.from_cycles(3, [0, 1, 2])


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        Perm.from_cycles(2, [0, 1]) * Perm.from_cycles(3, [0, 1])


def test_cycle_type_examples():
    assert Perm.identity(3).cycle_type() == CycleVector({1: 3})
    assert Perm.from_cycles(4, [0, 1], [2, 3]).cycle_type() == CycleVector({2: 2})
    assert Perm.from_cycles(4, [0, 1, 2]).cycle_type() == CycleVector({3: 1, 1: 1})


def test_cycle_type_totals():
    for images in permutations(range(4)):
        p = Perm(images)
        assert p.cycle_type().total_size() == 4


def test_group_order_examples():
    gens = [Perm.from_cycles(3, c) for c in ([1, 2], [0, 2], [0, 1])]
    assert PermGroup(3, gens).order() == 6
    assert PermGroup(4, ()).order() == 1
    assert PermGroup(4, [Perm.from_cycles(4, [0, 1], [2, 3])]).order() == 2


def test_order_matches_brute_closure_small_degrees():
    pool = {
        2: [[[0, 1]]],
        3: [[[0, 1]], [[0, 1, 2]], [[0, 1], [1, 2]]],
        4: [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0, 1, 2, 3], [0, 1]], [[0, 1, 2]], [[0, 2], [1, 3]]],
        5: [[[0, 1, 2, 3, 4]], [[0, 1, 2, 3, 4], [0, 1]], [[0, 1], [2, 3, 4]]],
        6: [[[0, 1, 2, 3, 4, 5]], [[0, 1, 2], [3, 4, 5]], [[0, 1], [2, 3], [4, 5]], [[0, 1, 2, 3, 4, 5], [0, 1]]],
    }
    # identities, repeats and generators the earlier ones already generate
    pool[1] = [[[]], [[], []]]
    pool[3] += [[[0, 1], [1, 2], [0, 2], [0, 1], []], [[], [0, 1, 2], [0, 2, 1], [0, 1, 2]]]
    pool[4] += [[[0, 1], [0, 1], [2, 3], [0, 1], [2, 3]], [[0, 1, 2, 3], [0, 2], [1, 3], [0, 3], []]]
    pool[5] += [[[0, 1, 2], [0, 1, 2], [2, 3, 4], [0, 4, 2], [], [0, 1, 2, 3, 4]]]
    pool[6] += [[[0, 1], [2, 3], [0, 2], [1, 3], [0, 3], [4, 5], [], [0, 1, 2, 3]]]
    for degree, gen_sets in pool.items():
        for cycles in gen_sets:
            gens = [Perm.from_cycles(degree, c) for c in cycles]
            group = PermGroup(degree, gens)
            closure = brute_closure(degree, gens)
            assert group.order() == len(closure)
            assert sorted(p.images for p in group.elements()) == sorted(p.images for p in closure)
            for p in closure:
                assert p in group


def test_membership_rejects_outside_elements():
    a3 = PermGroup(3, [Perm.from_cycles(3, [0, 1, 2])])
    assert Perm.from_cycles(3, [0, 1]) not in a3
    assert Perm.from_cycles(3, [0, 2, 1]) in a3


def test_membership_of_generator_words():
    gens = [Perm.from_cycles(4, [0, 1, 2, 3]), Perm.from_cycles(4, [0, 1])]
    group = PermGroup(4, gens)
    for word in product(gens, repeat=3):
        p = word[0] * word[1] * word[2]
        assert p in group


def test_orbits():
    assert PermGroup(4, [Perm.from_cycles(4, [0, 1], [2, 3])]).orbits() == ((0, 1), (2, 3))
    assert PermGroup(3, [Perm.from_cycles(3, [1, 2]), Perm.from_cycles(3, [0, 2])]).orbits() == ((0, 1, 2),)
    assert PermGroup(2, ()).orbits() == ((0,), (1,))


def test_orbits_refine_under_fewer_generators():
    gens = [Perm.from_cycles(4, [0, 1]), Perm.from_cycles(4, [1, 2]), Perm.from_cycles(4, [2, 3])]
    for take in range(len(gens) + 1):
        smaller = PermGroup(4, gens[:take]).orbits()
        bigger = PermGroup(4, gens).orbits()
        for orbit in smaller:
            assert any(set(orbit) <= set(big) for big in bigger)


def test_transitivity():
    assert PermGroup(4, [Perm.from_cycles(4, [0, 1, 2, 3])]).is_transitive()
    assert not PermGroup(4, [Perm.from_cycles(4, [0, 1], [2, 3])]).is_transitive()
    assert not PermGroup(0, ()).is_transitive()


def test_elements_listing():
    group = PermGroup(3, [Perm.from_cycles(3, [0, 1]), Perm.from_cycles(3, [1, 2])])
    elements = list(group.elements())
    assert len(elements) == 6
    assert len(set(elements)) == 6
    assert elements == list(group.elements())  # deterministic


def test_centralizer_order():
    assert centralizer_order_in_sym(Perm.from_cycles(4, [0, 1], [2, 3])) == 8
    for n in (1, 2, 3, 4):
        assert centralizer_order_in_sym(Perm.identity(n)) == math.factorial(n)
    assert centralizer_order_in_sym(Perm.from_cycles(3, [0, 1, 2])) == 3


def test_centralizer_order_against_brute_force():
    for images in permutations(range(4)):
        p = Perm(images)
        brute = sum(
            1
            for q_images in permutations(range(4))
            if (q := Perm(q_images)) * p == p * q
        )
        assert centralizer_order_in_sym(p) == brute


def test_perm_rendering():
    assert str(Perm.from_cycles(4, [0, 1], [2, 3])) == "(0 1)(2 3)"
    assert str(Perm.identity(5)) == "()"
    assert str(Perm.from_cycles(4, [1, 3])) == "(1 3)"


def test_degree_zero_group():
    group = PermGroup(0, ())
    assert group.order() == 1
    assert group.orbits() == ()


def test_invalid_perm():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


def test_checked_constructors_reject_non_permutations():
    with pytest.raises(ValueError):
        Perm([0, 0])
    with pytest.raises(ValueError):
        Perm.from_cycles(3, [0, 0])
    with pytest.raises(ValueError):
        Perm.from_cycles(3, [0, 1], [1, 2])
    with pytest.raises(ValueError):
        Perm.identity(2) * Perm.identity(3)


@pytest.mark.parametrize("cycle, point", [([5], 5), ([1, 5], 5), ([0, 3], 3), ([0, -1], -1)])
def test_from_cycles_names_a_point_out_of_range(cycle, point):
    with pytest.raises(ValueError, match=rf"^point {point} is not in 0\.\.2$"):
        Perm.from_cycles(3, cycle)


def test_derived_permutations_equal_checked_ones():
    """Products, inverses, powers and rack rows skip the check; they must
    still be the permutations the checked constructor builds."""
    from rackring import RackTable, dihedral, product as rack_product

    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 9)
        p, q = (Perm(rng.sample(range(n), n)) for _ in range(2))
        inverse = [0] * n
        for i, v in enumerate(p.images):
            inverse[v] = i
        assert p * q == Perm([p(q(i)) for i in range(n)])
        assert p.inverse() == Perm(inverse)
        k = rng.randint(-5, 5)
        step = p.images if k > 0 else inverse
        power = Perm(range(n))
        for _ in range(abs(k)):
            power = Perm([step[x] for x in power.images])
        assert p**k == power
        assert Perm.identity(n) == Perm(range(n))
        for derived in (p * q, p.inverse(), p**k, Perm.identity(n)):
            assert type(derived.images) is tuple
    for r in (dihedral(5), rack_product(dihedral(3), dihedral(3)), RackTable([[1, 0], [1, 0]])):
        assert r.row_perms() == [Perm(row) for row in r.table]
        assert all(r.row_perm(a) == Perm(r.table[a]) for a in range(r.n))


def test_cycle_lengths_against_orbits():
    def orbit(images, x):
        out = {x}
        while images[x] not in out:
            x = images[x]
            out.add(x)
        return frozenset(out)

    for n in range(7):
        for images in permutations(range(n)):
            orbits = {orbit(images, x) for x in range(n)}
            assert Perm(images).cycle_lengths() == tuple(sorted(map(len, orbits), reverse=True))
