import hashlib
import random
from itertools import permutations
from itertools import product as iproduct

import pytest

from rackring import (
    ClassRegistry,
    EnumerationFilter,
    Perm,
    RackTable,
    canonical_key,
    centralizer_order_in_sym,
    count,
    enumerate_racks,
    enumerate_racks_naive,
    is_connected,
    populate_registry,
    validate_table,
)
from rackring.enumeration import _centralizer_fixing, _RowSearch


def keyset(tables):
    return {canonical_key(t) for t in tables}


def test_small_rack_counts():
    assert count(EnumerationFilter(1)) == 1
    assert count(EnumerationFilter(2)) == 2
    assert count(EnumerationFilter(3)) == 6
    assert count(EnumerationFilter(4)) == 19
    assert count(EnumerationFilter(5)) == 74
    assert count(EnumerationFilter(6)) == 353


def test_quandle_counts():
    assert count(EnumerationFilter(3, quandle_only=True)) == 3
    assert count(EnumerationFilter(4, quandle_only=True)) == 7
    assert count(EnumerationFilter(5, quandle_only=True)) == 22
    assert count(EnumerationFilter(6, quandle_only=True)) == 73
    assert count(EnumerationFilter(7, quandle_only=True)) == 298
    assert count(EnumerationFilter(8, quandle_only=True)) == 1581


def forms(tables):
    return [t.table for t in tables]


def test_connected_quandle_counts_through_order_eight():
    got = [
        count(EnumerationFilter(n, quandle_only=True, connected_only=True))
        for n in range(1, 9)
    ]
    assert got == [1, 0, 1, 1, 3, 2, 5, 3]


def test_connected_search_matches_filtered_full_search():
    # the connected search offers only the root's row shape; filtering the
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


def emitted(filt, search=_RowSearch, seed=None):
    tables = []
    search(filt, tables.append, rng=None if seed is None else random.Random(seed)).run()
    return tables


def digest(tables):
    return hashlib.sha256(repr(tables).encode()).hexdigest()[:16]


def test_symmetry_pruning_emits_fewer_tables():
    # fixing only row 0 emits 1405 tables for the 298 quandles of order 7
    # and 917 for the 353 racks of order 6; the stabiliser rule emitted 788
    # and 608
    quandles = emitted(EnumerationFilter(7, quandle_only=True))
    racks = emitted(EnumerationFilter(6))
    assert 298 <= len(quandles) < 400
    assert 353 <= len(racks) < 400
    assert all(validate_table(rows).ok for rows in quandles + racks)
    # table for table and in order: the sequences of the lex-leader rule
    connected_quandles = emitted(EnumerationFilter(7, quandle_only=True, connected_only=True))
    connected_racks = emitted(EnumerationFilter(6, connected_only=True))
    assert (len(racks), digest(racks)) == (385, "69712ce753c4e524")
    assert (len(quandles), digest(quandles)) == (389, "0fdbbfe7fb77fa08")
    assert (len(connected_quandles), digest(connected_quandles)) == (35, "4cefed33532ef2e4")
    assert (len(connected_racks), digest(connected_racks)) == (30, "f74a9d39bd32a8c2")


def test_order_eight_connected_emission_counts():
    # 229 and 346 under the stabiliser rule
    quandles = emitted(EnumerationFilter(8, quandle_only=True, connected_only=True))
    racks = emitted(EnumerationFilter(8, connected_only=True))
    assert (len(quandles), digest(quandles)) == (92, "c324ddb2e89750f9")
    assert (len(racks), digest(racks)) == (158, "729c54101b4a6c26")


def test_default_bound_sequences_are_pinned():
    # racks of order 7, one past the default rack bound, and quandles of
    # the default bound 8, table for table
    racks = emitted(EnumerationFilter(7))
    quandles = emitted(EnumerationFilter(8, quandle_only=True))
    assert (len(racks), digest(racks)) == (2339, "e27148076595b775")
    assert (len(quandles), digest(quandles)) == (2170, "ecfa01bfc2615f02")


def test_try_assign_rechecks_an_assigned_index():
    # a queue entry for an index assigned since it was queued is checked
    # against the row there: the first entry of a trial at an assigned index
    search = _RowSearch(EnumerationFilter(3, quandle_only=True), None)

    def table(images):
        return bytes(images) + bytes(range(len(images), 256))

    assert search._try_assign(0, table((0, 2, 1))) is not None
    rows, assigned = list(search.rows), list(search.assigned)
    assert assigned == [0]
    # the same row passes and assigns nothing new
    mark, _ = search._try_assign(0, table((0, 2, 1)))
    assert mark == 1 and search.assigned == assigned
    # another row fails and leaves the state as it was
    assert search._try_assign(0, table((0, 1, 2))) is None
    assert search.rows == rows and search.assigned == assigned


class StabilizerSearch(_RowSearch):
    """The rule the lex-leader rule replaced, as a reference: a candidate
    row is tried only if it is the least of its conjugates under the maps of
    the root group that fix every assigned index and the branch index and
    commute with every assigned row."""

    def _settle(self):
        return []

    def _branch(self, group=None):
        rows = self.rows
        if group is None:
            group = _centralizer_fixing(rows[0][: self.n])
        if len(self.assigned) == self.n:
            self.emit(tuple(tuple(row[: self.n]) for row in rows))
            return
        free = [i for i in range(self.n) if rows[i] is None]
        index = free[0] if self.rng is None else self.rng.choice(free)
        group = [g for g in group if g[0][index] == index]
        for shape in self._shuffled(self.shapes):
            for q in self._shuffled(self.cands[index][shape]):
                stabilizer = []
                for g in group:
                    c, ci = g
                    conj = bytes(map(c.__getitem__, map(q.__getitem__, ci)))
                    if conj < q:
                        break
                    if conj == q:
                        stabilizer.append(g)
                else:
                    undo = self._try_assign(index, q + bytes(range(self.n, 256)))
                    if undo is not None:
                        self._branch(stabilizer)
                        self._rollback(*undo)


def test_reference_search_reproduces_the_stabilizer_rule_sequences():
    pins = [
        (EnumerationFilter(6), 608, "636b3737731ce2cc"),
        (EnumerationFilter(7, quandle_only=True), 788, "1c5e96f398f1263f"),
        (EnumerationFilter(7, quandle_only=True, connected_only=True), 52, "d0e7da4ecd23a240"),
        (EnumerationFilter(6, connected_only=True), 37, "d97243674c603d79"),
    ]
    for filt, length, pin in pins:
        tables = emitted(filt, StabilizerSearch)
        assert (len(tables), digest(tables)) == (length, pin)


def row_keys(tables):
    return {canonical_key(RackTable._wrap(rows)) for rows in tables}


@pytest.mark.parametrize("seed", [None, 2, 11])
def test_lex_leader_rule_keeps_the_classes_of_the_stabilizer_rule(seed):
    cases = (
        [EnumerationFilter(n) for n in range(7)]
        + [EnumerationFilter(n, quandle_only=True) for n in range(8)]
        + [EnumerationFilter(n, quandle_only=True, connected_only=True) for n in range(9)]
        + [EnumerationFilter(n, connected_only=True) for n in range(8)]
    )
    for filt in cases:
        new = emitted(filt, seed=seed)
        old = emitted(filt, StabilizerSearch, seed)
        assert len(new) <= len(old)
        assert row_keys(new) == row_keys(old), filt


def relabel(rows, c):
    """The table c.T: c(a) |> c(b) = c(a |> b)."""
    image = [[None] * len(rows) for _ in rows]
    for a, row in enumerate(rows):
        for b, x in enumerate(row):
            image[c[a]][c[b]] = c[x]
    return tuple(map(tuple, image))


@pytest.mark.parametrize(
    "filt",
    [EnumerationFilter(n) for n in range(6)] + [EnumerationFilter(n, quandle_only=True) for n in range(7)],
    ids=[f"racks{n}" for n in range(6)] + [f"quandles{n}" for n in range(7)],
)
def test_emitted_tables_are_the_lex_leaders_of_their_root_orbits(filt):
    tables = emitted(filt)
    assert len(set(tables)) == len(tables)
    found = set(tables)
    for rows in tables:
        if not rows:
            continue
        for c, _ in _centralizer_fixing(rows[0]):
            image = relabel(rows, c)
            assert image[0] == rows[0]
            assert rows <= image
            # the least table of an orbit is the one emitted, so no other
            assert image == rows or image not in found
    for seed in (1, 4, 9):
        assert set(emitted(filt, seed=seed)) == found


def shape(rows, a):
    """Cycle type of row a and the length of its cycle through a."""
    length, x = 1, rows[a][a]
    while x != a:
        length, x = length + 1, rows[a][x]
    return Perm(rows[a]).cycle_lengths(), length


@pytest.mark.parametrize(
    "filt",
    [EnumerationFilter(n) for n in (5, 6)] + [EnumerationFilter(n, connected_only=True) for n in (6, 7, 8)],
    ids=["racks5", "racks6", "connected6", "connected7", "connected8"],
)
@pytest.mark.parametrize("seed", [None, 5])
def test_emitted_rows_have_shapes_at_most_the_root(filt, seed):
    # the root takes the largest shape of its table, and a connected rack's
    # rows are all conjugate by inner automorphisms, which keep the shape
    tables = emitted(filt, seed=seed)
    assert tables
    for rows in tables:
        root = shape(rows, 0)
        shapes = {shape(rows, a) for a in range(filt.order)}
        assert max(shapes) == root
        if filt.connected_only:
            assert shapes == {root}


class InvariantCheckingSearch(_RowSearch):
    """Checks at every branch that the assigned indices are closed under |>
    and that no assigned row sends a free index to an assigned one."""

    branches = 0

    def _branch(self):
        rows = self.rows
        free = [x for x in range(self.n) if rows[x] is None]
        for a in self.assigned:
            assert all(rows[rows[a][b]] is not None for b in self.assigned)
            assert all(rows[rows[a][x]] is None for x in free)
        self.branches += 1
        super()._branch()


@pytest.mark.parametrize("filt", [EnumerationFilter(5), EnumerationFilter(6, quandle_only=True)], ids=["racks5", "quandles6"])
@pytest.mark.parametrize("seed", [None, 4, 9])
def test_assigned_indices_stay_closed_under_the_operation(filt, seed):
    tables = []
    search = InvariantCheckingSearch(filt, tables.append, rng=None if seed is None else random.Random(seed))
    search.run()
    assert search.branches > len(tables) > 0


class ClashCheckingSearch(_RowSearch):
    """Tries every candidate that `_clashes` rejects on the live state, where
    `_try_assign` must refuse it too."""

    rejected = 0

    def _clashes(self, index, q, assigned):
        if not super()._clashes(index, q, assigned):
            return False
        assert self._try_assign(index, q) is None
        self.rejected += 1
        return True


@pytest.mark.parametrize(
    "filt",
    [EnumerationFilter(n) for n in range(6)]
    + [EnumerationFilter(n, quandle_only=True) for n in range(7)]
    + [EnumerationFilter(n, connected_only=True) for n in range(7)],
    ids=[f"racks{n}" for n in range(6)] + [f"quandles{n}" for n in range(7)] + [f"connected{n}" for n in range(7)],
)
@pytest.mark.parametrize("seed", [None, 4, 9])
def test_rejected_candidates_fail_their_trial(filt, seed):
    tables = []
    search = ClashCheckingSearch(filt, tables.append, rng=None if seed is None else random.Random(seed))
    search.run()
    # the refused trials roll back, so the search goes on as before
    assert tables == emitted(filt, seed=seed)
    if filt.order >= 5:
        assert search.rejected > 0


class TrialCountingSearch(_RowSearch):
    trials = 0

    def _try_assign(self, index, row):
        self.trials += 1
        return super()._try_assign(index, row)


def test_trial_assignments_are_pinned():
    # 10190, 8898 and 1097 before candidates were rejected on the assigned rows
    pins = [
        (EnumerationFilter(6), 1850),
        (EnumerationFilter(7, quandle_only=True), 2677),
        (EnumerationFilter(7, quandle_only=True, connected_only=True), 535),
    ]
    for filt, trials in pins:
        search = TrialCountingSearch(filt, lambda rows: None)
        search.run()
        assert search.trials == trials, filt


@pytest.fixture(scope="module")
def searches():
    """The search objects of orders 0 to 8, racks and quandles, built once."""
    return {(n, q): _RowSearch(EnumerationFilter(n, quandle_only=q), None) for n in range(9) for q in (False, True)}


def test_search_shapes_are_the_row_shapes_of_the_symmetric_group(searches):
    # every (cycle type, length of the cycle through the row's index) of a
    # permutation, largest first, with j = 1 in quandle searches; order 0
    # has no rows
    for n in range(8):
        brute = {shape((p,), 0) for p in permutations(range(n)) if p}
        for quandle_only in (False, True):
            expected = sorted((s for s in brute if s[1] == 1 or not quandle_only), reverse=True)
            roots = searches[n, quandle_only].roots
            assert [s for s, _ in roots] == expected
            assert all(shape((root,), 0) == s for s, root in roots)


def test_root_group_is_the_centralizer_fixing_the_root_point(searches):
    for n in range(1, 9):
        for quandle_only in (False, True):
            for _, root in searches[n, quandle_only].roots:
                group = _centralizer_fixing(root)
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
                if n <= 6:
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
    with pytest.raises(ValueError):
        EnumerationFilter(-1)
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
    # the connected search registers the connected classes of the full one
    cases = [(n, False) for n in range(7)] + [(n, True) for n in range(8)]
    for n, quandle_only in cases:
        filt = EnumerationFilter(n, quandle_only=quandle_only)
        registry = ClassRegistry()
        assert populate_registry(filt, registry) == len(registry)
        expected = [t for t in enumerate_racks(filt) if t.n and is_connected(t)]
        entries = registry.entries()
        assert [e.id for e in entries] == list(range(len(entries)))
        assert [e.key for e in entries] == sorted(canonical_key(t) for t in expected)
        assert forms(e.table for e in entries) == forms(expected)
