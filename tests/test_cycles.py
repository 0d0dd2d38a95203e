import pytest

from rackring import CycleVector, Perm


def cycle_product_oracle(r, s):
    """Cycle lengths of an r-cycle times an s-cycle, acting on pairs."""
    n = r * s
    images = [((i // s + 1) % r) * s + (i % s + 1) % s for i in range(n)]
    return Perm(images).cycle_type()


def test_gcd_lcm_rule_matches_permutation_products():
    for r in range(1, 7):
        for s in range(1, 7):
            expected = cycle_product_oracle(r, s)
            assert CycleVector({r: 1}) * CycleVector({s: 1}) == expected


def test_unit_and_zero():
    one = CycleVector.one()
    v = CycleVector({2: 3, 5: -1})
    assert one * v == v
    assert 0 * v == CycleVector()
    assert v - v == CycleVector()


def test_prime_square_rule():
    for p in (2, 3, 5):
        cp = CycleVector({p: 1})
        assert cp * cp == CycleVector({p: p})


def test_one_minus_c2_is_a_unit():
    u = CycleVector.one() - CycleVector({2: 1})
    assert u * u == CycleVector.one()


def test_rendering():
    assert str(CycleVector()) == "0"
    assert str(CycleVector({1: 1, 2: 4})) == "c1 + 4*c2"


def test_zero_coefficients_dropped():
    v = CycleVector({3: 2}) + CycleVector({3: -2})
    assert 3 not in v
    assert v == CycleVector()


def test_sparse_vector_arithmetic_keeps_types_and_reprs():
    from rackring import BurnsideElement

    v = CycleVector({5: -1, 2: 3})
    x = BurnsideElement({4: 2, 1: -1})
    assert repr(v) == "CycleVector({2: 3, 5: -1})"
    assert repr(x) == "BurnsideElement({1: -1, 4: 2})"
    for result, kind in ((v + v, CycleVector), (-v, CycleVector), (3 * v, CycleVector), (v - v, CycleVector),
                         (x + x, BurnsideElement), (-x, BurnsideElement), (x * 2, BurnsideElement),
                         (x - x, BurnsideElement)):
        assert type(result) is kind
    assert x * 0 == BurnsideElement() and x[7] == 0 and v[7] == 0
    assert x.__mul__(x) is NotImplemented
    with pytest.raises(TypeError):
        x * x
    with pytest.raises(ValueError):
        CycleVector({0: 1})
    assert BurnsideElement({0: 1}) == {0: 1}
