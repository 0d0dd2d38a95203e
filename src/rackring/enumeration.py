"""Isomorph-free exhaustive generation of racks and quandles.

Generation branches over whole rows (left multiplications), propagating the
closure constraint: once rows a and b are fixed, the row at position a |> b
must be the conjugate row_a . row_b . row_a^(-1).  Symmetry is cut by
forcing row 0 into a canonical layout for its cycle type and requiring its
type to be maximal among all rows; every isomorphism class keeps at least
one representative, and survivors are deduplicated by canonical key.  A
naive generate-filter-dedup oracle over all row assignments, with pairwise
relabeling tests, cross-checks the generator at small orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .canonical import canonical_form, table_bytes
from .perms import _cycle_lengths
from .racks import RackTable
from .structure import _orbit_partition

DEFAULT_QUANDLE_BOUND = 8
DEFAULT_RACK_BOUND = 6
NAIVE_BOUND = 4


@dataclass(frozen=True)
class EnumerationFilter:
    order: int
    quandle_only: bool = False
    connected_only: bool = False

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")


def _partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _lay_cycles(images, parts, start):
    """Place cycles of the given lengths on consecutive indices from start."""
    pos = start
    for length in parts:
        for i in range(pos, pos + length - 1):
            images[i] = i + 1
        images[pos + length - 1] = pos
        pos += length


def _root_rows(n, quandle_only):
    """Canonical candidate rows for index 0, one per admissible shape.

    Any table can be relabeled so that an element whose row has maximal
    cycle type sits at index 0 with its row in this layout, so restricting
    row 0 to these shapes loses no isomorphism class.
    """
    roots = []
    for partition in _partitions(n):
        if quandle_only:
            if 1 not in partition:
                continue
            rest = list(partition)
            rest.remove(1)
            images = [0] * n
            _lay_cycles(images, sorted(rest, reverse=True), 1)
            roots.append(tuple(images))
        else:
            for j in sorted(set(partition), reverse=True):
                rest = list(partition)
                rest.remove(j)
                images = [0] * n
                _lay_cycles(images, [j], 0)
                _lay_cycles(images, sorted(rest, reverse=True), j)
                roots.append(tuple(images))
    return roots


def _compose(p, q):
    return tuple(p[v] for v in q)


def _invert(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


class _RowSearch:
    def __init__(self, n, quandle_only, emit, rng=None):
        self.n = n
        self.quandle_only = quandle_only
        self.emit = emit
        self.rng = rng
        perms = list(permutations(range(n)))
        self.type_of = {p: _cycle_lengths(p) for p in perms}
        all_types = sorted(set(self.type_of.values()), reverse=True)
        self.all_types = all_types
        self.cands = []
        for i in range(n):
            by_type = {t: [] for t in all_types}
            for p in perms:
                if quandle_only and p[i] != i:
                    continue
                by_type[self.type_of[p]].append(p)
            self.cands.append(by_type)
        self.rows = [None] * n
        self.invs = [None] * n
        self.assigned = []
        self.root_type = None

    def run(self):
        if self.n == 0:
            self.emit(())
            return
        roots = _root_rows(self.n, self.quandle_only)
        if self.rng is not None:
            self.rng.shuffle(roots)
        for root in roots:
            self.root_type = _cycle_lengths(root)
            trail = self._try_assign(0, root)
            if trail is not None:
                self._branch()
                self._rollback(trail)

    def _try_assign(self, index, row):
        """Assign a row and propagate conjugation constraints; None on conflict."""
        rows, invs, type_of = self.rows, self.invs, self.type_of
        trail = []
        queue = [(index, row)]
        while queue:
            i, q = queue.pop()
            if rows[i] is not None:
                if rows[i] != q:
                    self._rollback(trail)
                    return None
                continue
            if (self.quandle_only and q[i] != i) or type_of[q] > self.root_type:
                self._rollback(trail)
                return None
            rows[i] = q
            invs[i] = qi = _invert(q)
            self.assigned.append(i)
            trail.append(i)
            for a in self.assigned:
                ra, ia = rows[a], invs[a]
                queue.append((q[a], _compose(q, _compose(ra, qi))))
                queue.append((ra[i], _compose(ra, _compose(q, ia))))
        return trail

    def _rollback(self, trail):
        for i in reversed(trail):
            self.rows[i] = None
            self.invs[i] = None
            self.assigned.pop()

    def _branch(self):
        rows = self.rows
        if len(self.assigned) == self.n:
            self.emit(tuple(rows))
            return
        free = [i for i in range(self.n) if rows[i] is None]
        index = free[0] if self.rng is None else self.rng.choice(free)
        pinned = None
        for a in self.assigned:
            c = rows[a][index]
            if rows[c] is not None:
                q = _compose(self.invs[a], _compose(rows[c], rows[a]))
                if pinned is None:
                    pinned = q
                elif pinned != q:
                    return
        if pinned is not None:
            trail = self._try_assign(index, pinned)
            if trail is not None:
                self._branch()
                self._rollback(trail)
            return
        by_type = self.cands[index]
        types = [t for t in self.all_types if t <= self.root_type]
        if self.rng is not None:
            types = list(types)
            self.rng.shuffle(types)
        for t in types:
            cands = by_type[t]
            if self.rng is not None:
                cands = list(cands)
                self.rng.shuffle(cands)
            for q in cands:
                trail = self._try_assign(index, q)
                if trail is not None:
                    self._branch()
                    self._rollback(trail)


def _bound_for(filt: EnumerationFilter, bound):
    if bound is not None:
        return bound
    return DEFAULT_QUANDLE_BOUND if filt.quandle_only else DEFAULT_RACK_BOUND


def enumerate_racks(filt: EnumerationFilter, *, bound=None, rng=None):
    """Canonical representatives of all classes matching the filter, by key."""
    limit = _bound_for(filt, bound)
    if filt.order > limit:
        raise ValueError(f"order {filt.order} exceeds the configured bound {limit}")
    found = {}

    def emit(rows):
        if filt.connected_only:
            if not rows or len(_orbit_partition(rows)) != 1:
                return
        form, _ = canonical_form(RackTable._wrap(rows))
        key = table_bytes(form)
        if key not in found:
            found[key] = form
    _RowSearch(filt.order, filt.quandle_only, emit, rng=rng).run()
    return [found[key] for key in sorted(found)]


def count(filt: EnumerationFilter, **kw) -> int:
    return len(enumerate_racks(filt, **kw))


def populate_registry(filt: EnumerationFilter, registry, **kw) -> int:
    """Register every connected class found; returns the number added."""
    before = len(registry)
    for table in enumerate_racks(filt, **kw):
        if len(_orbit_partition(table.table)) == 1 and table.n >= 1:
            registry.register(table)
    return len(registry) - before


# -- naive oracle ---------------------------------------------------------------


def _self_distributive(rows):
    n = len(rows)
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            rab = rows[ra[b]]
            rb = rows[b]
            for c in range(n):
                if ra[rb[c]] != rab[ra[c]]:
                    return False
    return True


def _iso_naive(t1, t2, perms):
    n = len(t1)
    for p in perms:
        if all(p[t1[x][y]] == t2[p[x]][p[y]] for x in range(n) for y in range(n)):
            return True
    return False


def enumerate_racks_naive(filt: EnumerationFilter):
    """Independent oracle: all row assignments, filtered and deduplicated
    by pairwise relabeling tests (no canonical keys involved)."""
    n = filt.order
    if n > NAIVE_BOUND:
        raise ValueError(f"naive oracle is limited to order {NAIVE_BOUND}")
    perms = list(permutations(range(n)))
    rowsets = []
    for a in range(n):
        rowsets.append([p for p in perms if p[a] == a] if filt.quandle_only else perms)
    reps = []
    for combo in product(*rowsets):
        if not _self_distributive(combo):
            continue
        if any(_iso_naive(combo, rep, perms) for rep in reps):
            continue
        reps.append(combo)
    tables = [RackTable._wrap(rows) for rows in reps]
    if filt.connected_only:
        tables = [t for t in tables if t.n >= 1 and len(_orbit_partition(t.table)) == 1]
    return tables
