import hashlib
import random
import time

import pytest

from rackring import (
    CrossedGSet,
    FinGroup,
    Perm,
    RackTable,
    are_isomorphic,
    automorphism_group,
    check_coset_pair,
    conjugation_class_quandle,
    conjugation_quandle,
    coset_rack,
    crossed_product,
    crossed_sum,
    crossed_to_rack,
    cycle_rack,
    cyclic_group,
    dihedral_group,
    diagonal_product_fixed_group,
    dihedral,
    disjoint_union,
    format_group,
    is_connected,
    is_equivalence,
    parse_group,
    parse_sl2,
    permutation_rack,
    product,
    rack_to_crossed,
    special_linear_2,
    symmetric_group,
    transitive_crossed,
    transitive_crossed_iso,
    trivial,
    validate_table,
)
from rackring import inner_group
from rackring.groups import MAX_CROSSED_GROUP_ORDER, MAX_SL2_ORDER, _check_elements, _tabulate
from rackring.perms import _compose
from rackring.racks import _generators
from rackring.racks import FormatError


def sym3():
    return symmetric_group(3)


def transpositions(group):
    return [g for g in range(group.n) if g != 0 and group.mul(g, g) == 0]


def test_group_validation():
    assert cyclic_group(4).n == 4
    with pytest.raises(ValueError):
        FinGroup([[1, 0], [0, 1]])  # identity not at index 0
    with pytest.raises(ValueError):
        FinGroup([[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # not associative / not a group


def test_a_group_has_at_least_its_identity():
    with pytest.raises(ValueError, match="identity at index 0"):
        FinGroup(())
    for n in (0, -1, -4):
        with pytest.raises(ValueError, match=f"not {n}"):
            cyclic_group(n)
    with pytest.raises(FormatError) as exc:
        parse_group("# no elements\ngroup 0\n")
    assert exc.value.line == 2
    assert FinGroup([[0]]).n == cyclic_group(1).n == 1


def cubic_associativity_failure(cayley):
    """The first (a, b, c) with (a.b).c != a.(b.c), found by trying all |G|^3
    triples: the constructor's check before it used Light's test."""
    n = len(cayley)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if cayley[cayley[a][b]][c] != cayley[a][cayley[b][c]]:
                    return a, b, c
    return None


def assert_associativity_verdict_matches_cubic(cayley):
    expected = cubic_associativity_failure(cayley)
    try:
        FinGroup(cayley)
    except ValueError as exc:
        assert expected is not None, str(exc)
        a, b, c = map(int, str(exc).removeprefix("associativity fails at (").removesuffix(")").split(", "))
        assert cayley[cayley[a][b]][c] != cayley[a][cayley[b][c]]
    else:
        assert expected is None


def test_associativity_check_matches_cubic_check():
    groups = [symmetric_group(m) for m in range(1, 5)]
    groups += [dihedral_group(order) for order in range(2, 13, 2)]
    groups += [special_linear_2(p)[0] for p in (3, 5)]
    for group in groups:
        assert_associativity_verdict_matches_cubic(group.cayley)
    # a loop of order 5 with identity 0 in which every element is its own
    # inverse; no group of order 5 is like that
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    assert cubic_associativity_failure(loop) is not None
    assert_associativity_verdict_matches_cubic(loop)
    # Z2 x loop, with (z, l) at index 2l + z: element 1 = (1, 0) associates
    # in the middle, so only a later generator shows the failure
    z2_loop = [[2 * loop[i // 2][j // 2] + (i + j) % 2 for j in range(10)] for i in range(10)]
    assert_associativity_verdict_matches_cubic(z2_loop)
    # swapping two entries of a row of a small group keeps the identity and
    # the inverses but may break associativity
    for group in (g for g in groups if g.n <= 8):
        n = group.n
        for a in range(1, n):
            for b in range(1, n):
                for c in range(b + 1, n):
                    table = [list(row) for row in group.cayley]
                    table[a][b], table[a][c] = table[a][c], table[a][b]
                    assert_associativity_verdict_matches_cubic(table)


def greedy_light_failure(cayley):
    """Reference: the constructor's associativity check before it took its
    generators from `racks._generators`, with its own greedy loop that
    re-closed the generated set after each generator.  The message of the
    first failure, or None."""
    from rackring.perms import _closure

    n, rows, gens, reached = len(cayley), cayley, [], {0}
    for b in range(n):
        if b in reached:
            continue
        row_b = rows[b]
        for a, row_a in enumerate(rows):
            row_ab = rows[row_a[b]]
            if row_ab != tuple(map(row_a.__getitem__, row_b)):
                c = next(c for c in range(n) if row_ab[c] != row_a[row_b[c]])
                return f"associativity fails at ({a}, {b}, {c})"
        gens.append(b)
        reached = set(_closure(0, gens, lambda x, g: rows[x][g]))
    return None


def test_light_test_matches_the_greedy_loop_it_replaced():
    """Random tables of order <= 7 with an identity at 0 and an inverse for
    every element: small groups, some with swapped entries, Z/2 times a
    random table of order 3 (where the first generator may pass and a later
    one fail), and tables filled at random, all relabelled.  FinGroup accepts
    or rejects each with the old loop's message."""

    def filled(n):
        table = [list(range(n))] + [[a] + [rng.randrange(n) for _ in range(n - 1)] for a in range(1, n)]
        for row in table[1:]:
            if 0 not in row:
                row[rng.randrange(1, n)] = 0
        return table

    rng = random.Random(20261019)
    bases = [cyclic_group(n) for n in range(1, 8)] + [sym3(), dihedral_group(4)]
    verdicts, late_failures = [], 0
    for _ in range(3000):
        kind = rng.random()
        if kind < 0.2:
            table = filled(rng.randrange(1, 8))
        elif kind < 0.4:
            t3 = filled(3)
            table = [[2 * t3[i // 2][j // 2] + (i + j) % 2 for j in range(6)] for i in range(6)]
        else:
            table = [list(row) for row in rng.choice(bases).cayley]
            n = len(table)
            for _ in range(rng.choice((0, 0, 1, 2)) if n > 2 else 0):
                a, b, c = rng.randrange(1, n), *rng.sample(range(1, n), 2)
                table[a][b], table[a][c] = table[a][c], table[a][b]
        n = len(table)
        label = [0] + rng.sample(range(1, n), n - 1)
        relabelled = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                relabelled[label[a]][label[b]] = label[table[a][b]]
        table = tuple(map(tuple, relabelled))
        expected = greedy_light_failure(table)
        try:
            FinGroup(table)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
        verdicts.append(expected is None)
        late_failures += expected is not None and int(expected.split(", ")[1]) != _generators(tuple(zip(*table)))[1]
    assert 500 < sum(verdicts) < 2500 and late_failures > 100


def test_group_check_of_a_large_group_is_fast():
    cayley = rack_to_crossed(product(dihedral(3), dihedral(3))).group.cayley
    assert len(cayley) == 432
    start = time.process_time()
    FinGroup(cayley)
    assert time.process_time() - start < 1.0


def test_crossed_check_of_a_large_group_is_fast():
    """The diagonal of d3 x d3's crossed action: 81 points over 432 elements."""
    x = rack_to_crossed(product(dihedral(3), dihedral(3)))
    diagonal = diagonal_product_fixed_group(x, x)
    start = time.process_time()
    CrossedGSet(*diagonal)
    assert time.process_time() - start < 0.5


def test_subgroup_and_centralizer():
    g = sym3()
    t = transpositions(g)[0]
    assert len(g.centralizer(t)) == 2
    assert len(g.subgroup_from([t])) == 2
    assert g.subgroup_from(range(g.n)) == tuple(range(6))
    assert g.is_subgroup(g.subgroup_from([t]))
    assert not g.is_subgroup((0, t, transpositions(g)[1]))


def test_conjugacy_classes():
    sizes = sorted(len(c) for c in sym3().conjugacy_classes())
    assert sizes == [1, 2, 3]


def seen_set_left_cosets(group, subgroup):
    """Reference: `FinGroup.left_cosets` as a seen-set loop, before it took
    the orbits of right multiplication."""
    subgroup = set(subgroup)
    seen = set()
    cosets = []
    for a in range(group.n):
        if a in seen:
            continue
        coset = tuple(sorted(group.mul(a, h) for h in subgroup))
        seen |= set(coset)
        cosets.append(coset)
    return sorted(cosets)


def seen_set_conjugacy_classes(group):
    """Reference: `FinGroup.conjugacy_classes` as a seen-set loop over
    conjugation by every element, before it took the orbits of conjugation
    by generators."""
    seen = set()
    classes = []
    for x in range(group.n):
        if x in seen:
            continue
        cls = {group.conj(g, x) for g in range(group.n)}
        seen |= cls
        classes.append(tuple(sorted(cls)))
    return tuple(sorted(classes))


def all_g_normal_core(group, subgroup):
    """Reference: `FinGroup.normal_core` as the intersection over every g of
    gHg^(-1), before it took the conjugacy classes inside H."""
    core = set(subgroup)
    for g in range(group.n):
        core &= {group.conj(g, h) for h in subgroup}
    return tuple(sorted(core))


def all_pairs_is_subgroup(group, elements):
    """Reference: `FinGroup.is_subgroup` over all pairs, before it compared
    the closure."""
    elements = set(elements)
    return 0 in elements and all(group.mul(a, b) in elements for a in elements for b in elements)


def all_g_closed_under_conjugation(group, elements):
    """Reference: `conjugation_class_quandle`'s closure test over every g,
    before it walked the generators' conjugations."""
    return {group.conj(g, x) for g in range(group.n) for x in elements} == set(elements)


def all_pairs_crossed_failure(group, size, action, delta):
    """Reference: the message of the first failure of `CrossedGSet`'s action
    and crossing checks over all pairs, before they ran over generators, or
    None."""
    if not action[0].is_identity():
        return "the identity must act trivially"
    images = [p.images for p in action]
    for a in range(group.n):
        for b, ab in enumerate(group.cayley[a]):
            if images[ab] != _compose(images[a], images[b]):
                return f"action is not a homomorphism at ({a}, {b})"
    for a in range(group.n):
        for x in range(size):
            if delta[action[a](x)] != group.conj(a, delta[x]):
                return f"crossing is not equivariant at ({a}, {x})"
    return None


def all_pairs_is_equivalence(f, w, x, y):
    """Reference: `is_equivalence` over all pairs of elements of x's group
    and all (element, point) pairs, before it ran over generators."""
    f, w = tuple(f), tuple(w)
    g, h = x.group, y.group
    if any(not 0 <= v < h.n for v in f) or f[0] != 0 or sorted(w) != list(range(y.size)):
        return False
    if any(f[g.mul(a, b)] != h.mul(f[a], f[b]) for a in range(g.n) for b in range(g.n)):
        return False
    if any(w[x.action[a](p)] != y.action[f[a]](w[p]) for a in range(g.n) for p in range(x.size)):
        return False
    return all(f[x.delta[p]] == y.delta[w[p]] for p in range(x.size))


def two_generated_subgroups():
    """(group, subgroup) for the 173 subgroups generated by at most two
    elements of C1-C8, S3, S4, D8, D12, SL2(3) and SL2(5)."""
    groups = [cyclic_group(n) for n in range(1, 9)]
    groups += [symmetric_group(3), symmetric_group(4), dihedral_group(8), dihedral_group(12)]
    groups += [special_linear_2(p)[0] for p in (3, 5)]
    return [
        (group, h)
        for group in groups
        for h in sorted({group.subgroup_from((a, b)) for a in range(group.n) for b in range(a, group.n)})
    ]


def test_cosets_classes_and_conjugation_quandles_match_the_references():
    """On every subgroup generated by at most two elements: its left cosets,
    and the conjugacy classes of the subgroup tabulated as a group; and the
    conjugation quandle of each whole group against `FinGroup.conj`."""
    pairs = two_generated_subgroups()
    for group, h in pairs:
        assert group.left_cosets(h) == seen_set_left_cosets(group, h)
        sub = _tabulate(h, group.mul)[0]
        assert sub.conjugacy_classes() == seen_set_conjugacy_classes(sub)
    for group in {id(group): group for group, _ in pairs}.values():
        assert conjugation_quandle(group).table == tuple(
            tuple(group.conj(g, h) for h in range(group.n)) for g in range(group.n)
        )
    assert len(pairs) == 173


def test_normal_cores_and_subgroup_tests_match_the_references():
    """On the 173 subgroups, and on each with its greatest element removed
    and with its least missing element added."""
    tried = 0
    for group, h in two_generated_subgroups():
        assert group.normal_core(h) == all_g_normal_core(group, h)
        missing = [x for x in range(group.n) if x not in h]
        for subset in (h, h[:-1], h + tuple(missing[:1])):
            assert group.is_subgroup(subset) == all_pairs_is_subgroup(group, subset)
            tried += 1
    assert tried == 3 * 173


def small_transitive_crossed_sets(group):
    """Transitive crossed sets over the cyclic subgroups and the whole group,
    with up to three centralizing crossing elements each."""
    subgroups = sorted({group.subgroup_from([h]) for h in range(group.n)} | {tuple(range(group.n))})
    return [
        transitive_crossed(group, h, a)
        for h in subgroups
        for a in [a for a in range(group.n) if all(group.mul(a, x) == group.mul(x, a) for x in h)][:3]
    ]


def crossed_corpus_groups():
    return [cyclic_group(4), cyclic_group(6), sym3(), symmetric_group(4), dihedral_group(8), special_linear_2(3)[0]]


def test_crossed_checks_match_the_all_pairs_references():
    """Seeded perturbations of transitive crossed sets: two images of one
    element's action swapped, one crossing value replaced, both, or neither.
    `CrossedGSet` accepts exactly what the reference accepts; where both
    reject, the message has the reference's wording and names a pair that
    fails."""
    rng = random.Random(19)
    cases = rejected = 0
    for group in crossed_corpus_groups():
        for x in small_transitive_crossed_sets(group):
            for trial in range(12):
                kind = trial % 4
                images = [list(p.images) for p in x.action]
                delta = list(x.delta)
                if kind & 1 and x.size > 1:
                    row = images[rng.choice((0, rng.randrange(group.n), rng.randrange(group.n)))]
                    i, j = rng.sample(range(x.size), 2)
                    row[i], row[j] = row[j], row[i]
                if kind & 2:
                    delta[rng.randrange(x.size)] = rng.randrange(group.n)
                action = tuple(map(Perm, images))
                expected = all_pairs_crossed_failure(group, x.size, action, delta)
                cases += 1
                rejected += expected is not None
                try:
                    CrossedGSet(group, x.size, action, tuple(delta))
                except ValueError as exc:
                    assert expected is not None, str(exc)
                    message, _, pair = str(exc).partition(" at (")
                    assert message == expected.partition(" at (")[0]
                    if message.startswith("action"):
                        a, b = map(int, pair.rstrip(")").split(", "))
                        assert action[group.mul(a, b)].images != _compose(action[a].images, action[b].images)
                    elif message.startswith("crossing"):
                        a, p = map(int, pair.rstrip(")").split(", "))
                        assert delta[action[a](p)] != group.conj(a, delta[p])
                    else:
                        assert str(exc) == expected
                else:
                    assert expected is None
    assert (cases, rejected) == (1800, 1236)


def test_is_equivalence_matches_the_all_pairs_reference():
    """Queries from each transitive crossed set to itself and to another of
    its size over its group, with f the identity, conjugation by some g or a
    non-homomorphism, and w the map p -> f(k).q for k taking the base point
    to p, with q = g.0 or at random, or a random bijection; and round trips through the rack with f the action, some with
    two values of f or w swapped."""
    rng = random.Random(2524)
    queries = []
    for group in crossed_corpus_groups():
        transitive = small_transitive_crossed_sets(group)
        for x in transitive:
            moves = {}
            for k in range(group.n):
                moves.setdefault(x.action[k](0), k)
            g = rng.randrange(group.n)
            g_inv = group.inv(g)
            swapped = list(range(group.n))
            if group.n > 2:
                i, j = rng.sample(range(1, group.n), 2)
                swapped[i], swapped[j] = swapped[j], swapped[i]
            others = [y for y in transitive if y.size == x.size and y is not x]
            for y in [x] + rng.sample(others, min(1, len(others))):
                for f in (list(range(group.n)), [group.mul(group.mul(g, a), g_inv) for a in range(group.n)], swapped):
                    for q in (y.action[g](0), rng.randrange(y.size)):
                        queries.append((f, [y.action[f[moves[p]]](q) for p in range(x.size)], x, y))
                    queries.append((f, rng.sample(range(y.size), y.size), x, y))
            if x.size <= 8 and automorphism_group(crossed_to_rack(x)).order() <= 48:
                back = rack_to_crossed(crossed_to_rack(x))
                index = {p: i for i, p in enumerate(back.action)}
                f = [index[p] for p in x.action]
                w = list(range(x.size))
                queries.append((f, w, x, back))
                if x.size > 1:
                    i, j = rng.sample(range(x.size), 2)
                    w[i], w[j] = w[j], w[i]
                    queries.append((f, w, x, back))
                if group.n > 2:
                    i, j = rng.sample(range(1, group.n), 2)
                    f[i], f[j] = f[j], f[i]
                    queries.append((f, list(range(x.size)), x, back))
    verdicts = [is_equivalence(*query) for query in queries]
    assert verdicts == [all_pairs_is_equivalence(*query) for query in queries]
    assert (len(verdicts), sum(verdicts)) == (2955, 469)


def test_class_quandle_closure_test_matches_the_all_g_reference():
    """Random subsets: unions of conjugacy classes, such unions with one
    element added or removed, and subsets drawn at random.  The class
    quandle is built exactly when the reference finds the subset closed."""
    rng = random.Random(1200)
    closed = 0
    groups = [cyclic_group(6), sym3(), symmetric_group(4), dihedral_group(8), dihedral_group(12), special_linear_2(3)[0]]
    for group in groups:
        classes = group.conjugacy_classes()
        for trial in range(200):
            subset = {x for cls in rng.sample(classes, rng.randint(1, len(classes))) for x in cls}
            if trial % 4 == 1:
                subset.symmetric_difference_update({rng.randrange(group.n)})
            elif trial % 4 == 2:
                subset = set(rng.sample(range(group.n), rng.randint(1, group.n)))
            expected = all_g_closed_under_conjugation(group, subset)
            closed += expected
            if expected:
                elements = sorted(subset)
                assert conjugation_class_quandle(group, subset).table == tuple(
                    tuple(elements.index(group.conj(a, b)) for b in elements) for a in elements
                )
            else:
                with pytest.raises(ValueError, match="^the subset is not closed under conjugation$"):
                    conjugation_class_quandle(group, subset)
    assert closed == 784


def test_normal_core():
    g = sym3()
    assert g.normal_core(tuple(range(6))) == tuple(range(6))
    t = g.subgroup_from([transpositions(g)[0]])
    assert g.normal_core(t) == (0,)
    rotations = g.subgroup_from([next(x for x in range(6) if x not in (0, *transpositions(g)))])
    assert g.normal_core(rotations) == rotations


def test_conjugation_quandle_decomposes():
    q = conjugation_quandle(sym3())
    assert q.is_quandle()
    assert q.n == 6


def test_conjugation_quandles_are_racks():
    """Both conjugation quandles build their tables unchecked; the rack axioms hold."""
    for group in (symmetric_group(3), symmetric_group(4), dihedral_group(8)):
        assert validate_table(conjugation_quandle(group).table).ok
        for cls in group.conjugacy_classes():
            assert validate_table(conjugation_class_quandle(group, cls).table).ok


@pytest.mark.parametrize(
    "call",
    [
        lambda g: g.subgroup_from([-1]),
        lambda g: check_coset_pair(g, (0,), 5),
        lambda g: coset_rack(g, (0, 7), 0),
        lambda g: coset_rack(g, (0,), -1),
        lambda g: transitive_crossed(g, (0,), -1),
        lambda g: transitive_crossed(g, (0, 3), 0),
        lambda g: conjugation_class_quandle(g, [9]),
        lambda g: transitive_crossed_iso(g, ((0,), -1), ((0,), 2)),
        lambda g: transitive_crossed_iso(g, ((0,), 0), ((0, 9), 0)),
        lambda g: g.centralizer(-1),
        lambda g: g.is_subgroup((0, -1)),
    ],
    ids=["subgroup_from", "check_coset_pair", "coset_rack-h", "coset_rack-mu",
         "transitive_crossed-a", "transitive_crossed-h", "conjugation_class_quandle",
         "transitive_crossed_iso-a", "transitive_crossed_iso-k", "centralizer", "is_subgroup"],
)
def test_group_element_indices_are_range_checked(call):
    with pytest.raises(ValueError, match=r"^element -?\d+ is not in 0\.\.2$"):
        call(cyclic_group(3))


def test_coset_rack_validity_conditions():
    g = sym3()
    t = transpositions(g)[0]
    h = g.subgroup_from([t])
    # mu = identity always passes and yields the trivial quandle
    valid, strict = check_coset_pair(g, h, 0)
    assert valid and strict
    assert coset_rack(g, h, 0) == trivial(3)
    # mu in the centralizer passes the strict condition
    valid, strict = check_coset_pair(g, h, t)
    assert valid and strict
    rack = coset_rack(g, h, t)
    assert rack.is_quandle()  # mu lies in H
    with pytest.raises(ValueError):
        coset_rack(g, (0, t, transpositions(g)[1]), 0)  # not a subgroup


def test_coset_rack_quandle_iff_mu_in_subgroup():
    g = cyclic_group(6)
    h = g.subgroup_from([2])  # {0, 2, 4}
    rack = coset_rack(g, h, 1)  # mu = 1 not in H: cosets get shifted
    assert not rack.is_quandle()
    assert rack == permutation_rack(Perm.from_cycles(2, [0, 1]))
    rack2 = coset_rack(g, h, 2)
    assert rack2.is_quandle()


def three_condition_coset_pair(group, subgroup, mu):
    """Reference: `check_coset_pair` before it returned early on a
    centralizing mu, with all three conditions computed."""
    subgroup = tuple(subgroup)
    _check_elements(group, subgroup + (mu,))
    if not group.is_subgroup(subgroup):
        raise ValueError("not a subgroup")
    core = set(group.normal_core(subgroup))
    valid = all(group.commutator(h, mu) in core for h in subgroup)
    strict = all(group.mul(h, mu) == group.mul(mu, h) for h in subgroup)
    return valid, strict


def checked_coset_rack(group, subgroup, mu):
    """Reference: `coset_rack` before it wrapped its table, built through the
    checking `RackTable(...)`."""
    valid, _ = three_condition_coset_pair(group, subgroup, mu)
    if not valid:
        raise ValueError("invalid pair: some commutator [h, mu] leaves the normal core")
    cosets = group.left_cosets(subgroup)
    position = {x: i for i, coset in enumerate(cosets) for x in coset}
    reps = [coset[0] for coset in cosets]
    return RackTable(tuple(position[group.mul(group.conj(a, mu), b)] for b in reps) for a in reps)


def own_precondition_transitive_crossed(group, subgroup, a):
    """Reference: `transitive_crossed` with its own precondition block, before
    it asked `check_coset_pair`, built through the checking `CrossedGSet(...)`."""
    subgroup = tuple(subgroup)
    _check_elements(group, subgroup + (a,))
    if not group.is_subgroup(subgroup):
        raise ValueError("not a subgroup")
    if any(group.mul(a, h) != group.mul(h, a) for h in subgroup):
        raise ValueError("the crossing element must centralize the subgroup")
    cosets = group.left_cosets(subgroup)
    position = {x: i for i, coset in enumerate(cosets) for x in coset}
    action = tuple(Perm(tuple(position[group.mul(g, coset[0])] for coset in cosets)) for g in range(group.n))
    delta = tuple(group.conj(coset[0], a) for coset in cosets)
    return CrossedGSet(group, len(cosets), action, delta)


def outcome(call, *args):
    """The value of call(*args), or the message of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_coset_pair_builders_match_the_references():
    """Every (group, H, mu) with H generated by at most two elements of C4,
    C6, S3, S4, D8, D12 or SL2(3), or the non-subgroup (0, 1), and every mu:
    the pair check, the coset rack and the transitive crossed set equal the
    references in value and message, and every valid pair's table is a rack,
    which is what lets `coset_rack` wrap it."""
    counts = {"strict": 0, "valid": 0, "invalid": 0, "not a subgroup": 0}
    for group in [cyclic_group(4), cyclic_group(6), sym3(), symmetric_group(4)] + [
        dihedral_group(8), dihedral_group(12), special_linear_2(3)[0]
    ]:
        subgroups = {group.subgroup_from((a, b)) for a in range(group.n) for b in range(a, group.n)}
        for h in sorted(subgroups) + [(0, 1)]:  # (0, 1) is a subgroup of S3 and S4, tried twice there
            for mu in range(group.n):
                pair = outcome(check_coset_pair, group, h, mu)
                assert pair == outcome(three_condition_coset_pair, group, h, mu)
                rack = outcome(coset_rack, group, h, mu)
                assert rack == outcome(checked_coset_rack, group, h, mu)
                crossed = outcome(transitive_crossed, group, h, mu)
                assert crossed == outcome(own_precondition_transitive_crossed, group, h, mu)
                if isinstance(pair, str):
                    assert pair == rack == crossed == "ValueError: not a subgroup"
                    counts["not a subgroup"] += 1
                    continue
                counts["strict" if pair[1] else "valid" if pair[0] else "invalid"] += 1
                if pair[0]:
                    assert validate_table(rack.table).ok
    assert counts == {"strict": 418, "valid": 208, "invalid": 828, "not a subgroup": 54}


def test_each_group_scans_for_its_generators_once(monkeypatch):
    """One fresh group object, wrapped or built by `FinGroup(cayley)`: its
    classes, a normal core, a non-centralizing pair check, a crossed-set check
    and an equivalence check share one generator scan."""
    from rackring import groups

    scans = []
    monkeypatch.setattr(groups, "_generators", lambda rows: scans.append(1) or _generators(rows))
    for build in (sym3, lambda: FinGroup(sym3().cayley)):
        scans.clear()
        g = build()
        t = transpositions(g)[0]
        h = g.subgroup_from([t])
        g.conjugacy_classes()
        g.normal_core(h)
        assert check_coset_pair(g, h, transpositions(g)[1]) == (False, False)
        x = transitive_crossed(g, h, t)
        CrossedGSet(*x)
        assert is_equivalence(range(g.n), range(x.size), x, x)
        assert len(scans) == 1


def test_a_centralizing_pair_needs_no_normal_core(monkeypatch):
    calls = []
    normal_core = FinGroup.normal_core
    monkeypatch.setattr(FinGroup, "normal_core", lambda self, h: calls.append(h) or normal_core(self, h))
    g = sym3()
    t = transpositions(g)[0]
    assert check_coset_pair(g, g.subgroup_from([t]), t) == (True, True)
    assert calls == []
    assert check_coset_pair(g, g.subgroup_from([t]), transpositions(g)[1]) == (False, False)
    assert len(calls) == 1


def test_sl2_f3_construction():
    group, matrices = special_linear_2(3)
    assert group.n == 24
    assert matrices[0] == (1, 0, 0, 1)
    index = {m: i for i, m in enumerate(matrices)}
    h = tuple(sorted(index[(1, b, 0, 1)] for b in range(3)))
    mu = index[(2, 2, 0, 2)]
    valid, strict = check_coset_pair(group, h, mu)
    assert valid and strict
    rack = coset_rack(group, h, mu)
    assert rack.n == 8
    assert is_connected(rack)
    assert inner_group(rack).order() == 24
    sigma = rack.canonical_automorphism()
    assert all(sigma(i) != i for i in range(8))
    assert (sigma * sigma).is_identity()


def test_sl2_needs_a_prime_modulus():
    for p in (4, 6, 9, 25):
        with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
            special_linear_2(p)
    for p in (0, 1, -3):
        with pytest.raises(ValueError, match=f"modulus {p} is below 2"):
            special_linear_2(p)
    assert [special_linear_2(p)[0].n for p in (2, 3, 5)] == [6, 24, 120]
    with pytest.raises(FormatError) as exc:
        parse_sl2("# composite\nsl2 6\n1 x 0 1\n")  # the header fails before the entries
    assert exc.value.line == 2 and "not prime" in str(exc.value)


def test_sl2_order_is_bounded_before_the_closure():
    """SL2(F_p) has p(p^2 - 1) elements and the closure may reach them all, so
    p is refused before it runs, whatever the generators; p <= 13 is admitted."""
    assert 13 * (13**2 - 1) <= MAX_SL2_ORDER < 17 * (17**2 - 1)
    assert special_linear_2(13, [(1, 1, 0, 1)])[0].n == 13
    for p, generators in ((17, None), (17, [(1, 1, 0, 1)]), (1009, None)):
        message = rf"^SL2\(F_{p}\) has order {p * (p * p - 1)}, above the bound {MAX_SL2_ORDER}$"
        with pytest.raises(ValueError, match=message):
            special_linear_2(p, generators)
    start = time.process_time()
    with pytest.raises(FormatError) as exc:
        parse_sl2("# a large prime\nsl2 1009\n1 1 0 1\n")
    assert time.process_time() - start < 0.1
    assert exc.value.line == 2
    assert str(exc.value) == f"line 2: SL2(F_1009) has order 1027242720, above the bound {MAX_SL2_ORDER}"


def test_sl2_trial_division_stops_below_the_order_bound():
    """Trial division stops where every admitted p is decided, so a long prime
    costs no time in sqrt(p), and a composite with no small factor is refused
    by the order bound."""
    p = 2**61 - 1  # a prime
    start = time.process_time()
    with pytest.raises(FormatError) as exc:
        parse_sl2(f"sl2 {p}\n")
    assert time.process_time() - start < 0.1
    assert str(exc.value) == f"line 1: SL2(F_{p}) has order {p * (p * p - 1)}, above the bound {MAX_SL2_ORDER}"
    with pytest.raises(ValueError, match=rf"^SL2\(F_121\) has order 1771440, above the bound {MAX_SL2_ORDER}$"):
        special_linear_2(11 * 11)


def test_sl2_file_format():
    text = "sl2 3\n1 1 0 1\n1 0 1 1\n"
    group, matrices = parse_sl2(text)
    assert group.n == 24
    # the group format reads sl2 files too, also after a comment
    for prefix in ("", "# SL2(F_3)\n\n"):
        assert parse_group(prefix + text).cayley == group.cayley
    with pytest.raises(FormatError):
        parse_sl2("sl2 3\n1 1 0 2\n")  # determinant 2
    for p in (0, 1, -3):
        with pytest.raises(FormatError) as exc:
            parse_sl2(f"# modulus below 2\nsl2 {p}\n1 0 0 1\n")
        assert exc.value.line == 2


def test_group_file_round_trip():
    g = sym3()
    assert parse_group(format_group(g)).cayley == g.cayley
    with pytest.raises(FormatError) as exc:
        parse_group("group 2\n0 1\n1 x\n")
    assert exc.value.line == 3


def test_transitive_crossed():
    g = sym3()
    t = transpositions(g)[0]
    x = transitive_crossed(g, (0,), t)
    assert x.size == 6
    assert x.delta == tuple(g.conj(a, t) for a in range(6))
    one_point = transitive_crossed(g, tuple(range(6)), 0)
    assert one_point.size == 1
    with pytest.raises(ValueError):
        transitive_crossed(g, g.subgroup_from([transpositions(g)[1]]), t)


def test_transitive_crossed_iso():
    g = sym3()
    t1, t2 = transpositions(g)[:2]
    assert transitive_crossed_iso(g, ((0,), t1), ((0,), t2))
    assert not transitive_crossed_iso(g, ((0,), 0), ((0,), t1))
    h = g.subgroup_from([t1])
    conj_h = tuple(sorted(g.conj(t2, x) for x in h))
    assert transitive_crossed_iso(g, (h, t1), (conj_h, g.conj(t2, t1)))


def test_crossed_to_rack():
    g = sym3()
    t = transpositions(g)[0]
    # the transposition class as a crossed set: cosets of the centralizer
    # with crossing g -> g t g^(-1)
    x = transitive_crossed(g, g.centralizer(t), t)
    assert sorted(set(x.delta)) == sorted(transpositions(g))
    assert are_isomorphic(crossed_to_rack(x), dihedral(3))

    # over the trivial subgroup the same crossing gives a connected order-6
    # rack, the coset rack of (trivial, t)
    free = transitive_crossed(g, (0,), t)
    rack = crossed_to_rack(free)
    assert rack.n == 6
    assert is_connected(rack)
    assert rack == coset_rack(g, (0,), t)

    identity_crossing = transitive_crossed(g, (0,), 0)
    assert crossed_to_rack(identity_crossing) == trivial(6)


def test_crossed_to_rack_matches_coset_rack():
    group, matrices = special_linear_2(3)
    index = {m: i for i, m in enumerate(matrices)}
    h = tuple(sorted(index[(1, b, 0, 1)] for b in range(3)))
    mu = index[(2, 2, 0, 2)]
    assert crossed_to_rack(transitive_crossed(group, h, mu)) == coset_rack(group, h, mu)


def test_rack_to_crossed_round_trip(racks_by_order):
    for n in range(1, 5):
        for r in racks_by_order[n]:
            x = rack_to_crossed(r)
            assert crossed_to_rack(x) == r


def test_rack_to_crossed_details():
    x = rack_to_crossed(trivial(2))
    assert x.group.n == 2  # the symmetric group on two points
    assert x.delta == (0, 0)
    y = rack_to_crossed(dihedral(3))
    assert y.group.n == 6
    with pytest.raises(ValueError):
        rack_to_crossed(RackTable([]))


def test_rack_to_crossed_bounds_group_order():
    # trivial(6), with the 720 automorphisms of S_6, stays inside the bound
    assert 720 <= MAX_CROSSED_GROUP_ORDER < 5040
    assert rack_to_crossed(product(dihedral(3), dihedral(3))).group.n == 432
    with pytest.raises(ValueError, match=f"order 5040 exceeds .* bound {MAX_CROSSED_GROUP_ORDER}"):
        rack_to_crossed(trivial(7))


def test_reverse_round_trip_equivalence(racks_by_order):
    for n in range(1, 4):
        for r in racks_by_order[n]:
            x = rack_to_crossed(r)
            back = crossed_to_rack(x)
            again = rack_to_crossed(back)
            f = list(range(x.group.n))
            w = list(range(x.size))
            assert is_equivalence(f, w, x, again)


def test_reverse_round_trip_from_foreign_group():
    # start from crossed sets over groups other than the automorphism
    # group; the action homomorphism into it gives the equivalence
    g = sym3()
    t = transpositions(g)[0]
    for subgroup, a in (((0,), t), (g.centralizer(t), t), (g.subgroup_from([t]), 0)):
        x = transitive_crossed(g, subgroup, a)
        y = rack_to_crossed(crossed_to_rack(x))
        index = {p: i for i, p in enumerate(y.action)}
        f = [index[x.action[gg]] for gg in range(g.n)]
        assert is_equivalence(f, list(range(x.size)), x, y)


def test_crossed_sum_and_product(racks_by_order):
    small = [(rack_to_crossed(r), r) for r in racks_by_order[2] + racks_by_order[3][:2]]
    for x, rx in small:
        for y, ry in small:
            assert are_isomorphic(crossed_to_rack(crossed_sum(x, y)), disjoint_union(rx, ry))
            assert crossed_to_rack(crossed_product(x, y)) == product(rx, ry)


def test_crossed_sum_with_empty():
    x = rack_to_crossed(cycle_rack(2))
    empty = CrossedGSet(cyclic_group(1), 0, (Perm.identity(0),), ())
    total = crossed_sum(x, empty)
    assert total.size == x.size
    f = [x.group.mul(a, 0) for a in range(x.group.n)]  # G -> G x 1 is the identity here
    assert is_equivalence(list(range(x.group.n)), list(range(x.size)), x, x)
    assert crossed_to_rack(total) == crossed_to_rack(x)


def test_diagonal_product():
    g = sym3()
    t = transpositions(g)[0]
    x = transitive_crossed(g, (0,), t)
    one = transitive_crossed(g, tuple(range(6)), 0)
    diag = diagonal_product_fixed_group(x, one)
    assert diag.size == x.size
    assert crossed_to_rack(diag) == crossed_to_rack(x)
    with pytest.raises(ValueError):
        diagonal_product_fixed_group(x, transitive_crossed(cyclic_group(2), (0,), 0))


def test_same_group_sum_versus_product_group_sum():
    # Two models of the sum of crossed sets over one group G: the combined
    # crossing over G itself, and the disjoint crossing over G x G.  The
    # diagonal G -> G x G with the identity carrier map is NOT a morphism
    # between them (its square needs (d(y), d(y)) = (d(y), e)), so the two
    # models are linked by a zigzag through the free-product sum rather than
    # a single equivalence; what is directly checkable is that both induce
    # the same element over the class registry.
    from rackring import BurnsideRing

    g = sym3()
    t1, t2 = transpositions(g)[:2]
    y = transitive_crossed(g, (0,), t1)
    z = transitive_crossed(g, (0,), t2)
    over_g = crossed_sum_same_group(y, z)
    over_gg = crossed_sum(y, z)
    diag = [a * g.n + a for a in range(g.n)]
    assert not is_equivalence(diag, list(range(over_g.size)), over_g, over_gg)
    ring = BurnsideRing()
    assert ring.of_rack(crossed_to_rack(over_g)) == ring.of_rack(crossed_to_rack(over_gg))


def crossed_sum_same_group(x, y):
    """Disjoint union of two crossed sets over one shared group."""
    g = x.group
    action = tuple(
        Perm(list(x.action[a].images) + [x.size + v for v in y.action[a].images])
        for a in range(g.n)
    )
    return CrossedGSet(g, x.size + y.size, action, x.delta + y.delta)


def test_is_equivalence_rejects_non_bijections():
    x = rack_to_crossed(trivial(2))
    assert not is_equivalence([0, 1], [0, 0], x, x)


def test_crossed_validation_rejects_bad_data():
    g = cyclic_group(2)
    three_cycle = Perm.from_cycles(3, [0, 1, 2])
    with pytest.raises(ValueError):
        # action[1]^2 should equal action[0] = id but a 3-cycle squares to
        # its inverse: not a homomorphism
        CrossedGSet(g, 3, (Perm.identity(3), three_cycle), (0, 0, 0))
    swap = Perm.from_cycles(2, [0, 1])
    with pytest.raises(ValueError):
        CrossedGSet(g, 2, (swap, Perm.identity(2)), (0, 0))  # identity must act trivially
    s3 = sym3()
    t = transpositions(s3)[0]
    x = transitive_crossed(s3, s3.centralizer(t), t)
    with pytest.raises(ValueError):
        # constant crossing over a nonabelian orbit breaks equivariance
        CrossedGSet(s3, x.size, x.action, (t,) * x.size)


def test_crossed_actions_give_valid_racks_over_small_groups():
    for group in (cyclic_group(4), sym3(), special_linear_2(3)[0]):
        seen = set()
        for gen in range(group.n):
            h = group.subgroup_from([gen])
            if h in seen:
                continue
            seen.add(h)
            centralizing = [
                a
                for a in range(group.n)
                if all(group.mul(a, x) == group.mul(x, a) for x in h)
            ]
            for a in centralizing[:2]:
                x = transitive_crossed(group, h, a)
                rack = crossed_to_rack(x)
                assert validate_table(rack.table).ok


def assert_passes_public_checks(x):
    """The checks a crossed-action builder skips hold for what it built."""
    CrossedGSet(x.group, x.size, x.action, x.delta)
    FinGroup(x.group.cayley)
    assert validate_table(crossed_to_rack(x).table).ok


def test_crossed_builders_pass_the_public_checks(racks_by_order):
    singles = [rack_to_crossed(r) for n in range(1, 5) for r in racks_by_order[n]]
    singles += [rack_to_crossed(product(dihedral(3), dihedral(3))), rack_to_crossed(trivial(6))]
    g = sym3()
    transitive = [transitive_crossed(g, g.subgroup_from([h]), a) for h in range(g.n) for a in g.centralizer(h)]
    small = singles[:9]  # the racks up to order 3
    built = singles + transitive
    built += [crossed_sum(x, y) for x in small for y in small]
    built += [crossed_product(x, y) for x in small for y in small]
    for sets in (singles, transitive):
        built += [diagonal_product_fixed_group(x, y) for x in sets for y in sets if x.group.cayley == y.group.cayley]
    for x in built:
        assert_passes_public_checks(x)


def test_identity_crossing_gives_trivial_quandles():
    g = sym3()
    seen = set()
    for gens in ([0], *[[t] for t in range(1, 6)], [1, 3]):
        h = g.subgroup_from(gens)
        if h in seen:
            continue
        seen.add(h)
        rack = crossed_to_rack(transitive_crossed(g, h, 0))
        assert rack == trivial(6 // len(h))


def test_sum_additivity_of_classes(ring, racks_by_order):
    for rx in racks_by_order[2]:
        for ry in racks_by_order[3][:3]:
            x, y = rack_to_crossed(rx), rack_to_crossed(ry)
            total = ring.of_rack(crossed_to_rack(crossed_sum(x, y)))
            assert total == ring.of_rack(rx) + ring.of_rack(ry)


def test_tabulated_groups_match_pinned_digest():
    """Cayley tables, element orders and the crossed action of d3 x d3, as
    tabulated before the constructions shared one table builder."""
    digest = hashlib.sha256()
    for m in range(1, 5):
        digest.update(repr(symmetric_group(m).cayley).encode())
    for order in range(2, 13, 2):
        digest.update(repr(dihedral_group(order).cayley).encode())
    for p in (3, 5):
        group, matrices = special_linear_2(p)
        digest.update(repr((group.cayley, matrices)).encode())
    x = rack_to_crossed(product(dihedral(3), dihedral(3)))
    digest.update(repr((x.group.cayley, [g.images for g in x.action], x.delta)).encode())
    assert digest.hexdigest() == "d8b478f324c225e4e1e0a7f49874c333ae4544c40cb4d7ed1fecd4171d4f9fee"
