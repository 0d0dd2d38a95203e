import pytest

from rackring import (
    BurnsideElement,
    ClassRegistry,
    CycleVector,
    Perm,
    RackTable,
    are_isomorphic,
    conjugation_quandle,
    cycle_rack,
    dihedral,
    disjoint_union,
    format_element,
    parse_element,
    permutation_rack,
    product,
    render_element,
    symmetric_group,
    trivial,
)
from rackring.burnside import MAX_PRODUCT_ORDER


def test_of_rack_sym3_decomposition(ring):
    x = ring.of_rack(conjugation_quandle(symmetric_group(3)))
    star = ring.singleton_id()
    dih3 = ring.registry.register(dihedral(3))
    assert x == BurnsideElement({star: 3, dih3: 1})


def test_of_rack_examples(ring):
    four = permutation_rack(Perm.from_cycles(4, [0, 1], [2, 3]))
    c2 = cycle_rack(2)
    assert ring.of_rack(four) == ring.of_rack(disjoint_union(c2, c2))
    assert ring.of_rack(four) == 2 * ring.class_of(c2)
    assert ring.of_rack(RackTable([])) == BurnsideElement()


def test_additivity_and_scaling(ring):
    r, s = dihedral(3), cycle_rack(2)
    assert ring.of_rack(r) + ring.of_rack(s) == ring.of_rack(disjoint_union(r, s))
    assert 2 * ring.of_rack(r) == ring.of_rack(disjoint_union(r, r))
    x = ring.of_rack(r)
    assert x + (-1) * x == BurnsideElement()


def test_mul_examples(ring):
    c2 = ring.class_of(cycle_rack(2))
    assert ring.mul(c2, c2) == 2 * c2
    x = ring.of_rack(conjugation_quandle(symmetric_group(3)))
    assert ring.mul(ring.one(), x) == x
    dih3 = ring.class_of(dihedral(3))
    square = ring.mul(dih3, dih3)
    assert len(square) == 1
    ((class_id, coeff),) = square.items()
    assert coeff == 1
    entry = ring.registry.entry(class_id)
    assert entry.order == 9 and entry.quandle


def test_mul_refuses_products_above_the_bound(ring):
    d3_cubed = ring.class_of(product(product(dihedral(3), dihedral(3)), dihedral(3)))
    with pytest.raises(ValueError, match=f"orders 27 and 27 exceeds the product bound {MAX_PRODUCT_ORDER}"):
        ring.mul(d3_cubed, d3_cubed)
    assert ring.product_memo == {}


def test_mul_agrees_with_products_of_racks(ring, racks_by_order):
    for a in racks_by_order[2] + racks_by_order[3]:
        for b in racks_by_order[2]:
            assert ring.mul(ring.of_rack(a), ring.of_rack(b)) == ring.of_rack(product(a, b))


def test_singleton_coefficient(ring):
    assert ring.singleton_coefficient(ring.of_rack(trivial(3))) == 3
    assert ring.singleton_coefficient(ring.class_of(dihedral(3))) == 0
    assert ring.singleton_coefficient(BurnsideElement()) == 0


def test_cardinality(ring):
    assert ring.cardinality(ring.of_rack(conjugation_quandle(symmetric_group(3)))) == 6
    assert ring.cardinality(ring.one()) == 1
    assert ring.cardinality(-1 * ring.class_of(dihedral(3))) == -3
    x, y = ring.of_rack(dihedral(3)), ring.of_rack(trivial(2))
    assert ring.cardinality(ring.mul(x, y)) == ring.cardinality(x) * ring.cardinality(y)


def test_sections_and_retractions(ring):
    for n in range(1, 7):
        u = CycleVector({n: 1})
        assert ring.to_cycles(ring.from_cycles(u)) == u
    assert ring.to_cycles(ring.class_of(dihedral(3))) == CycleVector({1: 3})
    four = permutation_rack(Perm.from_cycles(4, [0, 1], [2, 3]))
    assert ring.to_cycles(ring.of_rack(four)) == CycleVector({2: 2})


def test_untwist_retraction(ring):
    dih3 = ring.class_of(dihedral(3))
    assert ring.untwist(dih3) == dih3
    assert ring.untwist(ring.class_of(cycle_rack(3))) == 3 * ring.one()
    assert ring.untwist(BurnsideElement()) == BurnsideElement()


def test_profile_map(ring):
    dih3 = ring.class_of(dihedral(3))
    assert ring.profile(dih3) == CycleVector({1: 1, 2: 1})
    assert ring.profile(ring.one()) == CycleVector.one()
    square = ring.mul(dih3, dih3)
    assert ring.profile(square) == CycleVector({1: 1, 2: 4})
    assert ring.profile(square) == ring.profile(dih3) * ring.profile(dih3)


def test_profile_multiplicative_on_small_connected(ring, connected_racks_by_order):
    small = connected_racks_by_order[1] + connected_racks_by_order[2] + connected_racks_by_order[3]
    for a in small:
        for b in small:
            if not (a.is_quandle() or b.is_quandle()):
                continue  # product of connected racks may disconnect otherwise
            x, y = ring.class_of(a), ring.class_of(b)
            assert ring.profile(ring.mul(x, y)) == ring.profile(x) * ring.profile(y)


def test_power_operations(ring):
    dih3 = ring.class_of(dihedral(3))
    assert ring.power(dih3, 2) == 3 * ring.one()
    x = ring.of_rack(conjugation_quandle(symmetric_group(3)))
    assert ring.power(x, 1) == x
    c4 = ring.class_of(cycle_rack(4))
    assert ring.power(c4, 2) == 2 * ring.class_of(cycle_rack(2))


def test_frobenius_failure(ring):
    x = ring.class_of(dihedral(3))
    difference = ring.power(x, 2) - ring.mul(x, x)
    assert ring.singleton_coefficient(difference) == 3


def test_some_power_trivializes_every_class(ring, connected_racks_by_order):
    # iterating the operation enough times always reaches the trivial
    # quandle: the exponent of each left multiplication bounds the power
    from math import lcm

    for n in range(1, 5):
        for r in connected_racks_by_order[n]:
            exponent = lcm(*(length for a in range(n) for length in r.row_perm(a).cycle_lengths()))
            assert r.power(exponent) == trivial(n)
            assert ring.power(ring.class_of(r), exponent) == n * ring.one()


def test_singleton_coefficient_counts_fixed_part_of_connected(ring, connected_racks_by_order):
    from rackring import inner_fixed_points

    for n in range(1, 5):
        for r in connected_racks_by_order[n]:
            assert ring.singleton_coefficient(ring.class_of(r)) == len(inner_fixed_points(r))


def test_basis_unit_vectors(ring, connected_racks_by_order):
    for n in range(1, 6):
        for r in connected_racks_by_order[n]:
            x = ring.of_rack(r)
            assert len(x) == 1 and set(x.values()) == {1}


def test_prime_quandles(ring):
    assert ring.is_prime_quandle(dihedral(3))
    nine = product(dihedral(3), dihedral(3))
    assert not ring.is_prime_quandle(nine)
    dih3 = ring.registry.register(dihedral(3))
    assert ring.factor_quandle(nine) == [dih3, dih3]
    assert ring.factor_quandle(trivial(1)) == []
    with pytest.raises(ValueError):
        ring.is_prime_quandle(trivial(2))  # not connected
    with pytest.raises(ValueError):
        ring.is_prime_quandle(cycle_rack(3))  # not a quandle
    with pytest.raises(ValueError):
        ring.is_prime_quandle(trivial(1))  # primality needs order >= 2


def test_factorization_bound(ring):
    big = product(product(dihedral(3), dihedral(3)), dihedral(3))
    with pytest.raises(ValueError):
        # order 27 needs connected quandles of order 9 but the bound stops at 8
        ring.is_prime_quandle(big)


def test_registry_ids_stable_and_connected_only(ring):
    first = ring.registry.register(dihedral(3))
    second = ring.registry.register(dihedral(3).relabel(Perm.from_cycles(3, [0, 2])))
    assert first == second
    with pytest.raises(ValueError):
        ring.registry.register(trivial(2))
    with pytest.raises(ValueError, match="connected"):
        ring.class_of(trivial(2))


def test_element_text_round_trip(ring):
    x = ring.of_rack(conjugation_quandle(symmetric_group(3))) - 2 * ring.class_of(cycle_rack(2))
    text = format_element(x, ring.registry)
    fresh = ClassRegistry()
    y = parse_element(text, fresh)
    key_to_coeff = {fresh.entry(i).key: c for i, c in y.items()}
    assert key_to_coeff == {ring.registry.entry(i).key: c for i, c in x.items()}


def test_render_element(ring):
    star = ring.one()
    assert render_element(BurnsideElement(), ring.registry) == "0"
    text = render_element(3 * star, ring.registry)
    assert text == f"3 * [{ring.registry.entry(ring.singleton_id()).key.hex()}]"


def test_parse_element_errors(ring):
    with pytest.raises(ValueError):
        parse_element("1\n", ring.registry)
    with pytest.raises(ValueError):
        parse_element("x 00000001", ring.registry)
    # a table that is not self-distributive, and an entry out of range
    for key in ("00000003000100000002000000020001000200010000", "000000020005000100000001"):
        with pytest.raises(ValueError, match="line 2: malformed key"):
            parse_element(f"# comment\n1 {key}\n", ring.registry)
    assert len(ring.registry) == 0


def test_cancellation_small(ring, connected_racks_by_order, quandles_by_order):
    connected = [
        r for n in (1, 2, 3) for r in connected_racks_by_order[n]
    ]
    nonempty_quandles = [q for n in (1, 2, 3) for q in quandles_by_order[n]]
    for r in connected:
        for s in connected:
            for t in nonempty_quandles:
                if are_isomorphic(product(r, t), product(s, t)):
                    assert are_isomorphic(r, s)


def test_product_of_connected_quandles_is_connected_class(ring, connected_quandles_by_order):
    quandles = [q for n in range(1, 5) for q in connected_quandles_by_order[n]]
    for a in quandles:
        for b in quandles:
            result = ring.mul(ring.class_of(a), ring.class_of(b))
            assert len(result) == 1 and set(result.values()) == {1}
