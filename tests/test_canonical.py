import hashlib
import math
import random
import time
from itertools import permutations

import pytest

from rackring import (
    EnumerationFilter,
    Perm,
    RackTable,
    are_isomorphic,
    automorphism_group,
    automorphisms,
    canonical_form,
    canonical_key,
    centralizer_order_in_sym,
    conjugation_class_quandle,
    cycle_rack,
    dihedral,
    disjoint_union,
    enumerate_morphisms,
    enumerate_racks,
    find_isomorphism,
    inner_group,
    is_homogeneous,
    key_order,
    key_table,
    permutation_rack,
    product,
    symmetric_group,
    trivial,
)
from rackring import canonical
from rackring.canonical import _initial_colors, _is_transposition_automorphism, _refine
from rackring.groups import conjugation_quandle
from rackring.perms import PermGroup, _reach


def test_key_invariant_under_all_relabelings(racks_by_order):
    for n in range(5):
        for r in racks_by_order[n]:
            key = canonical_key(r)
            for images in permutations(range(n)):
                assert canonical_key(r.relabel(Perm(images))) == key


def test_key_is_idempotent(racks_by_order):
    for n in range(5):
        for r in racks_by_order[n]:
            form, _ = canonical_form(r)
            again, relabeling = canonical_form(form)
            assert again == form
            assert canonical_key(form) == canonical_key(r)


def test_canonical_form_witness(racks_by_order):
    for n in range(5):
        for r in racks_by_order[n]:
            form, p = canonical_form(r)
            assert r.relabel(p) == form


def test_key_round_trip_serialization():
    for r in (dihedral(3), trivial(4), RackTable([]), cycle_rack(2)):
        key = canonical_key(r)
        assert key_order(key) == r.n
        assert canonical_key(key_table(key)) == key
    key = canonical_key(dihedral(3))
    for bad in (key[:3], key[:-1], bytes.fromhex("00000003000100000002000000020001000200010000")):
        with pytest.raises(ValueError):
            key_table(bad)


def test_table_bytes_layout_and_degree_bound():
    # a 4-byte big-endian order, then the entries row by row, 2 bytes each
    assert canonical.table_bytes(cycle_rack(2)) == bytes.fromhex("00000002" + "0001000000010000")
    assert canonical.table_bytes(RackTable([])) == bytes(4)
    with pytest.raises(ValueError, match="order 65536 exceeds the serializable bound 65535"):
        canonical.table_bytes(RackTable._wrap([()] * 65536))


def test_distinct_structures_have_distinct_keys():
    assert canonical_key(trivial(2)) != canonical_key(cycle_rack(2))


def test_iso_examples():
    sym3 = symmetric_group(3)
    transpositions = [g for g in range(6) if sym3.mul(g, g) == 0 and g != 0]
    assert canonical_key(dihedral(3)) == canonical_key(
        conjugation_class_quandle(sym3, transpositions)
    )

    fixed_point_free = permutation_rack(Perm.from_cycles(4, [0, 1], [2, 3]))
    split = disjoint_union(cycle_rack(2), cycle_rack(2))
    assert not are_isomorphic(fixed_point_free, split)

    assert not are_isomorphic(trivial(3), dihedral(3))
    assert are_isomorphic(RackTable([]), RackTable([]))


def test_find_isomorphism_witness(racks_by_order):
    for n in range(5):
        for r in racks_by_order[n]:
            for images in permutations(range(n)):
                other = r.relabel(Perm(images))
                witness = find_isomorphism(r, other)
                assert witness is not None
                for a in range(n):
                    for b in range(n):
                        assert witness(r.apply(a, b)) == other.apply(witness(a), witness(b))
            if n >= 2:
                break  # one representative per order beyond tiny cases is plenty


def test_find_isomorphism_none():
    assert find_isomorphism(trivial(2), cycle_rack(2)) is None
    assert find_isomorphism(trivial(2), trivial(3)) is None


def test_automorphism_group_orders():
    assert automorphism_group(trivial(3)).order() == 6
    assert automorphism_group(permutation_rack(Perm.from_cycles(4, [0, 1], [2, 3]))).order() == 8
    assert automorphism_group(dihedral(3)).order() == 6


def test_automorphism_group_of_permutation_rack_is_centralizer():
    for degree in range(1, 6):
        for images in permutations(range(degree)):
            p = Perm(images)
            aut = automorphism_group(permutation_rack(p))
            assert aut.order() == centralizer_order_in_sym(p)


def test_automorphisms_satisfy_conjugation_identity(racks_by_order):
    for n in range(1, 5):
        for r in racks_by_order[n]:
            rows = [r.row_perm(a) for a in range(n)]
            for alpha in automorphisms(r):
                for x in range(n):
                    assert rows[alpha(x)] == alpha * rows[x] * alpha.inverse()


def brute_automorphisms(r):
    """Oracle: every permutation that preserves the table, in lexicographic order."""
    n = r.n
    return [
        p
        for p in permutations(range(n))
        if all(p[r.apply(a, b)] == r.apply(p[a], p[b]) for a in range(n) for b in range(n))
    ]


def test_automorphisms_match_brute_force(racks_by_order):
    for n in range(5):
        for r in racks_by_order[n]:
            assert [alpha.images for alpha in automorphisms(r)] == brute_automorphisms(r)


def test_orbit_tests_match_brute_force(racks_by_order):
    for n in range(1, 5):
        for r in racks_by_order[n]:
            auts = brute_automorphisms(r)
            orbit_of = {x: orbit for orbit in automorphism_group(r).orbits() for x in orbit}
            for s in range(n):
                for t in range(n):
                    assert (t in orbit_of[s]) == any(p[s] == t for p in auts)
            assert is_homogeneous(r) == all(any(p[0] == t for p in auts) for t in range(n))


def test_automorphism_group_order_counts_bijective_endomorphisms(racks_by_order):
    d3_squared = product(dihedral(3), dihedral(3))
    for r in [r for n in range(1, 6) for r in racks_by_order[n]] + [d3_squared]:
        bijective = sum(1 for f in enumerate_morphisms(r, r) if len(set(f)) == r.n)
        assert automorphism_group(r).order() == bijective
    assert automorphism_group(d3_squared).order() == 432


def test_dihedral_automorphism_group_orders():
    for p in (5, 7, 11, 13):
        assert automorphism_group(dihedral(p)).order() == p * (p - 1)
    assert automorphism_group(trivial(16)).order() == math.factorial(16)


def test_inner_group_inside_automorphism_group(racks_by_order):
    for n in range(1, 5):
        for r in racks_by_order[n]:
            aut = automorphism_group(r)
            for a in range(n):
                assert r.row_perm(a) in aut
            assert aut.order() % inner_group(r).order() == 0


def test_automorphism_group_empty_rack_errors():
    with pytest.raises(ValueError):
        automorphism_group(RackTable([]))


def test_distinct_keys_mean_nonisomorphic_at_order_five(racks_by_order):
    # independent route: distinct enumeration representatives must admit no
    # relabeling onto each other, checked against all 120 permutations of
    # every earlier representative
    reps = racks_by_order[5]
    perms = [Perm(images) for images in permutations(range(5))]
    assert len({canonical_key(r) for r in reps}) == len(reps)
    relabelings = set()
    for r in reps:
        assert r not in relabelings
        relabelings.update(r.relabel(p) for p in perms)


def test_keys_of_racks_to_order_six_and_quandles_of_order_seven_are_pinned():
    # digest of the sorted keys as the canonical search gave them before it
    # pruned by automorphism orbits; every table is keyed in reversed labels
    tables = [t for n in range(7) for t in enumerate_racks(EnumerationFilter(n))]
    tables += enumerate_racks(EnumerationFilter(7, quandle_only=True))
    keys = {canonical_key(t.relabel(Perm(range(t.n - 1, -1, -1)))) for t in tables}
    assert len(keys) == 754
    digest = hashlib.sha256(b"".join(sorted(keys))).hexdigest()
    assert digest == "2c3c8910fb5ab0e007a4e1717fb23499679f80a42d10eb1cad5cdd1a9eca08cb"


def test_large_racks_key_like_a_relabeling():
    d3 = dihedral(3)
    for r in (
        product(product(d3, d3), d3),
        conjugation_quandle(symmetric_group(5)),
        trivial(40),
        dihedral(61),
    ):
        images = list(range(r.n))
        random.Random(r.n).shuffle(images)
        assert canonical_key(r.relabel(Perm(images))) == canonical_key(r)


def test_large_symmetric_product_key_stability():
    # order 16, huge automorphism group: key must match under a relabeling
    tetra = conjugation_class_quandle_of_tetrahedron()
    square = product(tetra, tetra)
    shuffled = square.relabel(Perm.from_cycles(16, [0, 5, 11], [2, 14]))
    assert canonical_key(square) == canonical_key(shuffled)


def conjugation_class_quandle_of_tetrahedron():
    from rackring import EnumerationFilter, enumerate_racks

    (tetra,) = enumerate_racks(EnumerationFilter(4, quandle_only=True, connected_only=True))
    return tetra


def _reference_refine(table, colors):
    """Refinement as it was before it skipped singleton cells: sorted triples
    of every point in every round, and one more round to confirm stability."""
    n = len(table)
    while True:
        signatures = []
        for a in range(n):
            row = table[a]
            local = sorted((colors[b], colors[row[b]], colors[table[b][a]]) for b in range(n))
            signatures.append((colors[a], tuple(local)))
        ranking = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new = [ranking[sig] for sig in signatures]
        if new == colors:
            return colors
        colors = new


@pytest.fixture(scope="module")
def racks_to_six_and_quandles_of_seven():
    tables = [t for n in range(1, 7) for t in enumerate_racks(EnumerationFilter(n))]
    return tables + enumerate_racks(EnumerationFilter(7, quandle_only=True))


@pytest.fixture(scope="module")
def relabeled_racks_to_six_and_quandles_of_seven(racks_to_six_and_quandles_of_seven):
    rng = random.Random(6)
    relabeled = []
    for t in racks_to_six_and_quandles_of_seven:
        images = list(range(t.n))
        rng.shuffle(images)
        relabeled.append(t.relabel(Perm(images)).table)
    return relabeled


def test_refine_matches_the_reference(relabeled_racks_to_six_and_quandles_of_seven):
    rng = random.Random(7)
    for table in relabeled_racks_to_six_and_quandles_of_seven:
        n = len(table)
        columns = tuple(zip(*table))
        initial = canonical._initial_colors(table)
        individualized = [2 * c for c in initial]
        individualized[initial.index(0)] = -1
        starts = [initial, individualized]
        for _ in range(3):
            colors = [rng.choice((-1, 0, 0, 1, 3)) for _ in range(n)]
            colors[rng.randrange(n)] = -1
            starts.append(colors)
        for colors in starts:
            assert canonical._refine(table, columns, colors) == _reference_refine(table, colors)


def test_canonical_search_matches_the_reference_refine(relabeled_racks_to_six_and_quandles_of_seven, monkeypatch):
    d3 = dihedral(3)
    tables = relabeled_racks_to_six_and_quandles_of_seven + [product(product(d3, d3), d3).table]
    searches = [canonical._canonical_search(t) for t in tables]
    monkeypatch.setattr(canonical, "_refine", lambda table, columns, colors: _reference_refine(table, colors))
    assert [canonical._canonical_search(t) for t in tables] == searches


@pytest.fixture(scope="module")
def pinned_tables(racks_to_six_and_quandles_of_seven, relabeled_racks_to_six_and_quandles_of_seven):
    d3 = dihedral(3)
    large = [product(product(d3, d3), d3), conjugation_quandle(symmetric_group(5)), trivial(40), dihedral(61)]
    rng = random.Random(5)
    relabeled_large = []
    for r in large:
        images = list(range(r.n))
        rng.shuffle(images)
        relabeled_large.append(r.relabel(Perm(images)).table)
    tables = [r.table for r in racks_to_six_and_quandles_of_seven + large]
    tables += relabeled_racks_to_six_and_quandles_of_seven + relabeled_large
    assert len(tables) == 1514
    return tables


def test_canonical_search_keys_are_pinned(pinned_tables):
    # digest of every (flat table, labeling) as the search gave them before it
    # jumped back from a leaf that proves an automorphism
    digest = hashlib.sha256()
    for table in pinned_tables:
        flat, label, _ = canonical._canonical_search(table)
        digest.update(repr((flat, label)).encode())
    assert digest.hexdigest() == "17fc49d111fa3b3f376bf16415966af99aad7312acaa90e32a0347f89eb59b1c"


def test_canonical_search_outputs_are_pinned(pinned_tables):
    # digest of every (flat table, labeling, automorphisms in discovery order)
    # as the search gives them since it jumps back from a leaf that proves an
    # automorphism; the keys digest above did not change with the jump
    digest = hashlib.sha256()
    for table in pinned_tables:
        digest.update(repr(canonical._canonical_search(table)).encode())
    assert digest.hexdigest() == "ff14b3d1f8395ffa5035964d8aafc5b03834f14f27db770abdab090d196796d2"


def _reference_canonical_search(table):
    """The search before it jumped back from a leaf that proves an automorphism.

    Return (best flat table, labeling p, automorphisms) with relabel(table, p)
    minimal; the automorphisms are image tuples that generate the whole group.

    A child is skipped when it lies in the orbit of a tried sibling under the
    automorphisms found so far that fix the prefix pointwise.  That keeps the
    least leaf and its labeling, and a search that prunes only by automorphisms
    it found has found generators of the whole group (McKay & Piperno,
    Practical Graph Isomorphism II, 2014).
    """
    n = len(table)
    columns = tuple(zip(*table))
    best_flat = best_label = best_verts = None
    auts = []  # discovered automorphisms, as image tuples, in order of discovery
    known = set()

    def found(g):
        if g not in known:
            known.add(g)
            auts.append(g)

    def leaf(label):
        # a refined discrete coloring ranks the points 0..n-1: it is the labeling
        nonlocal best_flat, best_label, best_verts
        verts = sorted(range(n), key=label.__getitem__)
        flat = tuple([label[row[b]] for row in map(table.__getitem__, verts) for b in verts])
        if best_flat is None or flat < best_flat:
            best_flat, best_label, best_verts = flat, label, verts
        elif flat == best_flat:
            found(tuple(best_verts[label[v]] for v in range(n)))

    def rec(colors, fixed, gens):
        # gens: every automorphism found so far that fixes `fixed` pointwise
        colors = _refine(table, columns, colors)
        classes = {}
        for v in range(n):
            classes.setdefault(colors[v], []).append(v)
        target = next((classes[c] for c in sorted(classes) if len(classes[c]) > 1), None)
        if target is None:
            leaf(colors)
            return
        seen, u = len(auts), target[0]
        for v in target[1:]:
            if _is_transposition_automorphism(table, columns, u, v):
                found(tuple(v if x == u else u if x == v else x for x in range(n)))
        gens.extend(auts[seen:])  # new transpositions move only target points
        seen = len(auts)
        tried, reached = [], set()
        for v in target:
            if v in reached:
                continue
            new_colors = [2 * c for c in colors]
            new_colors[v] -= 1
            rec(new_colors, fixed + [v], [g for g in gens if g[v] == v])
            tried.append(v)
            new = [g for g in auts[seen:] if all(g[x] == x for x in fixed)]
            seen = len(auts)
            if new:
                gens.extend(new)
                reached = _reach(gens, tried)
            else:  # reached is a union of orbits, and v lies in none of them
                reached |= _reach(gens, [v])

    if n == 0:
        return (), [], []
    rec(_initial_colors(table), [], [])
    return best_flat, best_label, auts


def test_canonical_search_matches_the_reference_search(pinned_tables):
    d3, d5 = dihedral(3), dihedral(5)
    large = [product(product(d3, d3), d3), conjugation_quandle(symmetric_group(5)), dihedral(61), product(product(d5, d5), d5)]
    rng = random.Random(22)
    tables = list(pinned_tables)
    for r in large:
        images = list(range(r.n))
        rng.shuffle(images)
        tables.append(r.relabel(Perm(images)).table)
    for table in tables:
        n = len(table)
        flat, label, auts = canonical._canonical_search(table)
        ref_flat, ref_label, ref_auts = _reference_canonical_search(table)
        assert (flat, label) == (ref_flat, ref_label)
        assert len(auts) <= len(ref_auts)
        if auts != ref_auts:  # equal lists generate equal groups: trivial(40) builds no chain of S_40
            group, ref_group = PermGroup(n, map(Perm, auts)), PermGroup(n, map(Perm, ref_auts))
            assert group.order() == ref_group.order()
            if n <= 8:
                assert set(group.elements()) == set(ref_group.elements())


def test_keys_of_large_racks_are_pinned():
    # digest of the keys, each rack in its built labeling, as the search gave
    # them before refinement skipped singleton cells
    d3, d5 = dihedral(3), dihedral(5)
    racks = (
        product(product(d3, d3), d3),
        conjugation_quandle(symmetric_group(5)),
        trivial(40),
        dihedral(61),
        product(product(d5, d5), d5),
    )
    digest = hashlib.sha256(b"".join(canonical_key(r) for r in racks)).hexdigest()
    assert digest == "67c56cbd016f8fd40316894aa9f84dddf0d9ab914cc4051e4cef454fc35ff326"


def _reference_is_transposition_automorphism(table, u, v):
    """The definition, over all n^2 entries: swap(a |> b) = swap(a) |> swap(b)."""
    n = len(table)
    swap = list(range(n))
    swap[u], swap[v] = v, u
    for a in range(n):
        row = table[a]
        srow = table[swap[a]]
        for b in range(n):
            if swap[row[b]] != srow[swap[b]]:
                return False
    return True


class _Lines(tuple):
    """The rows or columns of a table, noting which lines are read."""

    def __getitem__(self, i):
        self.read.add(i)
        return tuple.__getitem__(self, i)


def test_transposition_rule_matches_the_definition(racks_by_order):
    d3 = dihedral(3)
    tables = [r.table for n in range(6) for r in racks_by_order[n]]
    rng = random.Random(12)
    for r in (trivial(12), product(cycle_rack(4), trivial(3)), product(product(d3, d3), d3), product(trivial(3), dihedral(4))):
        images = list(range(r.n))
        rng.shuffle(images)
        tables.append(r.relabel(Perm(images)).table)
    pairs = automorphic = 0
    for table in tables:
        rows, columns = _Lines(table), _Lines(zip(*table))
        for u, v in permutations(range(len(table)), 2):
            rows.read, columns.read = set(), set()
            verdict = canonical._is_transposition_automorphism(rows, columns, u, v)
            assert verdict == _reference_is_transposition_automorphism(table, u, v)
            assert rows.read | columns.read <= {u, v}
            pairs += 1
            automorphic += verdict
    assert (pairs, automorphic) == (2846, 460)


def _budget_unit():
    """CPU time of 495 n^2 scans of trivial(100), timed in the calling process, so that
    budgets in this unit cancel the speed of the machine."""
    table = trivial(100).table
    start = time.process_time()
    for _ in range(5):
        for v in range(1, 100):
            _reference_is_transposition_automorphism(table, 0, v)
    return time.process_time() - start


def test_trivial_rack_of_order_100_keys_within_budget():
    # keying takes about 3 units by the row rule, 16 by the scan
    unit = _budget_unit()
    start = time.process_time()
    canonical_key(trivial(100))
    assert time.process_time() - start < 8 * unit


def test_relabeled_trivial_rack_of_order_200_keys_within_five_seconds():
    # after each child the pruning re-walks its orbits over the 19,900 transpositions
    # only while the target cell is not yet covered
    images = list(range(200))
    random.Random(200).shuffle(images)
    relabeled = trivial(200).relabel(Perm(images))
    start = time.process_time()
    key = canonical_key(relabeled)
    assert time.process_time() - start < 5
    assert key == canonical.table_bytes(trivial(200))


def test_order_125_product_keys_like_a_relabeling():
    # the digest is that of the key of d5^3 in its built labeling, pinned above
    d5 = dihedral(5)
    images = list(range(125))
    random.Random(125).shuffle(images)
    key = canonical_key(product(product(d5, d5), d5).relabel(Perm(images)))
    assert hashlib.sha256(key).hexdigest() == "7343e3fe3b5dc4df5cc3a72e8295ae469a46c275df727c656cb38bc19da02a58"


def test_large_symmetric_products_key_like_a_relabeling_within_budget():
    # each digest is that of the key of the product in its built labeling, as the search
    # gave it before it jumped back from a leaf that proves an automorphism; a relabeled
    # copy keys in about 2 (d17^2) and 3 (d3^5) units, against 50 to 120 before the jump
    d3, d17 = dihedral(3), dihedral(17)
    unit = _budget_unit()
    for r, pinned in (
        (product(d17, d17), "d454a6ef7ddfa956754e465d45452648cb05561a128844b736b26c4a31ddcc7e"),
        (product(product(product(product(d3, d3), d3), d3), d3), "890d9da279ee76fde5f0e64e5fbfa60659b8de40ca217f02544e806774a77a0f"),
    ):
        images = list(range(r.n))
        random.Random(r.n).shuffle(images)
        relabeled = r.relabel(Perm(images))
        start = time.process_time()
        key = canonical_key(relabeled)
        assert time.process_time() - start < 12 * unit
        assert hashlib.sha256(key).hexdigest() == pinned
