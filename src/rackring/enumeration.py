"""Isomorph-free exhaustive generation of racks and quandles.

Generation branches over whole rows (left multiplications), propagating the
closure constraint: once rows a and b are fixed, the row at position a |> b
must be the conjugate row_a . row_b . row_a^(-1).  Rows are keyed by shape
(t, j): the cycle type t of row a and the length j of its cycle through a.
The automorphism s(a) = a |> a commutes with row a, which sends a to s(a),
so that cycle is the s-orbit of a: j = 1 throughout a quandle, and a
connected rack, whose rows are conjugate by inner automorphisms, has one
shape.  Symmetry is cut three ways.  Row 0 takes a canonical layout for the
largest shape of its table, so the other rows have shapes up to it, j = 1 in
quandle searches and exactly it in connected ones.  The relabellings that
keep the root, its centralizer fixing 0, map completions onto completions,
and only the least completion of each orbit survives: rows are compared in
index order as soon as both are assigned (the lex-leader rule of Crawford,
Ginsberg, Luks and Roy, 1996, as orbit pruning in the sense of McKay,
Isomorph-free exhaustive generation, 1998).  Every isomorphism class keeps at
least one representative; the survivors, about 1.4 tables per class for the
quandles of order 8, are deduplicated by canonical key.  A naive
generate-filter-dedup oracle over all row assignments, with pairwise
relabeling tests, cross-checks the generator at small orders.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations, product

from .canonical import canonical_form, table_bytes
from .perms import _closure, _compose, _cycles, _invert
from .racks import RackTable, _distributivity_failure
from .structure import is_connected

DEFAULT_QUANDLE_BOUND = 8
DEFAULT_RACK_BOUND = 6
NAIVE_BOUND = 4


class EnumerationFilter(namedtuple("EnumerationFilter", "order quandle_only connected_only")):
    __slots__ = ()

    def __new__(cls, order, quandle_only=False, connected_only=False):
        if order < 0:
            raise ValueError("order must be nonnegative")
        return super().__new__(cls, order, quandle_only, connected_only)


def _root_row(t, j):
    """The canonical row for index 0 of shape (t, j): the cycles of t as
    consecutive blocks, the one through 0 first and of length j.

    Any table can be relabeled so that an element whose row has maximal
    shape sits at index 0 with its row in this layout, so restricting
    row 0 to these layouts loses no isomorphism class.
    """
    rest = list(t)
    rest.remove(j)
    images = []
    for length in (j, *rest):
        start = len(images)
        images += range(start + 1, start + length)
        images.append(start)
    return tuple(images)


def _centralizer_fixing(row):
    """The permutations other than the identity that commute with `row` and
    fix 0, each paired with its inverse.

    Such a permutation fixes the cycle of 0 pointwise and sends the other
    cycles of `row` to cycles of the same length, each with a rotation.  They
    are generated by the rotations of those cycles and by the swaps of
    consecutive cycles of equal length, point by point from their least points.
    """
    cycles = sorted((cycle for cycle in _cycles(row) if 0 not in cycle), key=len)
    identity = tuple(range(len(row)))
    gens = [tuple(row[x] if x in cycle else x for x in identity) for cycle in cycles if len(cycle) > 1]
    for xs, ys in zip(cycles, cycles[1:]):
        if len(xs) == len(ys):
            c = list(identity)
            for x, y in zip(xs, ys):
                c[x], c[y] = y, x
            gens.append(tuple(c))
    return [(c, _invert(c)) for c in _closure(identity, gens, _compose)[1:]]


class _RowSearch:
    """Row-by-row search for every rack table matching a filter, up to
    isomorphism: `emit` receives at least one table of each class.

    Rows are admitted by shape (t, j), cycle type and the length of the
    cycle through the row's own index: up to the root's, which is the largest
    of its table, with j = 1 in quandle searches (row a sends a to a |> a)
    and equal to the root's in connected ones, whose rows are all conjugate.

    Propagation fills a |> b for every assigned pair, so after each
    successful `_try_assign` the assigned indices are closed under |>.  Each
    row, a bijection, maps that set onto itself, so no free row is pinned,
    and a candidate q with L_q(a).q != q.L_a for assigned a, q(a) goes untried.

    A map c of the root group relabels a completion T into another,
    (c.T)[k] = c.T[c^-1(k)].c^-1, and T survives only if T <= c.T for every
    c, rows compared in index order.  `pending` carries down the recursion
    each live c with the least index k at which T and c.T may differ; once
    rows k and c^-1(k) are assigned, a smaller image prunes the node, a
    larger one drops c and an equal one moves k on.  So the emitted tables,
    one per orbit, do not depend on the branching order.
    """

    def __init__(self, filt, emit, rng=None):
        n = self.n = filt.order
        self.connected_only = filt.connected_only
        self.emit = emit
        self.rng = rng
        self.identity = tuple(range(n))
        # cands[i][s]: the rows admissible at index i of shape s
        self.cands = [{} for _ in range(n)]
        for p in permutations(range(n)):
            cycles = _cycles(p)
            t = tuple(sorted(map(len, cycles), reverse=True))
            for cycle in cycles:
                shape = t, len(cycle)
                if len(cycle) == 1 or not filt.quandle_only:
                    for i in cycle:
                        self.cands[i].setdefault(shape, []).append(p)
        # one root per admissible shape, largest first
        self.roots = [(s, _root_row(*s)) for s in sorted(self.cands[0], reverse=True)] if n else []
        self.rows = [None] * n
        self.invs = [None] * n
        self.assigned = []
        self.shapes = None
        # the live maps (c, c^-1, k): T and c.T agree on the rows below k
        self.pending = []

    def run(self):
        if self.n == 0:
            self.emit(())
            return
        for shape, root in self._shuffled(self.roots):
            self.shapes = [shape] if self.connected_only else [s for s, _ in self.roots if s <= shape]
            # the identity root's one completion, the trivial rack, is fixed by every map
            group = _centralizer_fixing(root) if root != self.identity else []
            self.pending = [(c, ci, 0) for c, ci in group]
            undo = self._try_assign(0, root)
            if undo is not None:
                self._branch()
                self._rollback(*undo)

    def _try_assign(self, index, row):
        """Assign `row`, propagate conjugation constraints and settle the
        pending maps; the arguments of `_rollback`, or None on conflict.

        `row` comes from the root layouts or the candidate lists, and a
        propagated row p.r.p^-1 at p(a), for r at a, has the cycle type of r
        and a cycle through p(a) as long as r's through a, so every row has an
        admitted shape.  A constraint on an assigned index is checked at once;
        a constraint on a free index waits in the queue.
        """
        rows, invs, assigned = self.rows, self.invs, self.assigned
        mark = len(assigned)
        # (index, p, r, p^-1): the row at index is p.r.p^-1
        identity = self.identity
        queue = [(index, identity, row, identity)]
        while queue:
            i, p, r, pi = queue.pop()
            q = tuple(map(p.__getitem__, map(r.__getitem__, pi)))
            if rows[i] is not None:
                if rows[i] != q:
                    self._rollback(mark)
                    return None
                continue
            rows[i] = q
            invs[i] = qi = _invert(q)
            assigned.append(i)
            for a in assigned:
                ra, ia = rows[a], invs[a]
                j = q[a]
                if rows[j] is None:
                    queue.append((j, q, ra, qi))
                elif rows[j] != tuple(map(q.__getitem__, map(ra.__getitem__, qi))):
                    self._rollback(mark)
                    return None
                j = ra[i]
                if rows[j] is None:
                    queue.append((j, ra, q, ia))
                elif rows[j] != tuple(map(ra.__getitem__, map(q.__getitem__, ia))):
                    self._rollback(mark)
                    return None
        pending = self._settle()
        if pending is not None:
            previous, self.pending = self.pending, pending
            return mark, previous
        self._rollback(mark)

    def _settle(self):
        """The pending maps moved on over the assigned rows; None if a
        completion would be greater than its image."""
        rows, n = self.rows, self.n
        pending = []
        for c, ci, k in self.pending:
            while k < n:
                r, s = rows[k], rows[ci[k]]
                if r is None or s is None:
                    pending.append((c, ci, k))
                    break
                image = tuple(map(c.__getitem__, map(s.__getitem__, ci)))
                if r != image:
                    if r > image:
                        return None
                    break
                k += 1
        return pending

    def _rollback(self, mark, pending=None):
        if pending is not None:
            self.pending = pending
        for i in self.assigned[mark:]:
            self.rows[i] = self.invs[i] = None
        del self.assigned[mark:]

    def _shuffled(self, items):
        if self.rng is not None:
            items = list(items)
            self.rng.shuffle(items)
        return items

    def _clashes(self, index, q, assigned):
        """Whether row q at `index` breaks L_q(a).q = q.L_a, as `_try_assign` would find."""
        rows, xs = self.rows, self.identity
        for a, row in assigned:
            image = rows[q[a]]
            if image is not None:
                for x in xs:
                    if q[row[x]] != image[q[x]]:
                        return True
        return False

    def _branch(self):
        rows = self.rows
        if len(self.assigned) == self.n:
            self.emit(tuple(rows))
            return
        free = [i for i in range(self.n) if rows[i] is None]
        index = free[0] if self.rng is None else self.rng.choice(free)
        # the maps that fix the branch index and agree below it test q first
        fixing = [(c, ci) for c, ci, k in self.pending if k == index == ci[index]]
        assigned = [(a, rows[a]) for a in self.assigned]
        for shape in self._shuffled(self.shapes):
            for q in self._shuffled(self.cands[index][shape]):
                if self._clashes(index, q, assigned):
                    continue
                for c, ci in fixing:
                    if tuple(map(c.__getitem__, map(q.__getitem__, ci))) < q:
                        break
                else:
                    undo = self._try_assign(index, q)
                    if undo is not None:
                        self._branch()
                        self._rollback(*undo)


def enumerate_racks(filt: EnumerationFilter, *, bound=None, rng=None):
    """Canonical representatives of all classes matching the filter, by key."""
    if bound is None:
        bound = DEFAULT_QUANDLE_BOUND if filt.quandle_only else DEFAULT_RACK_BOUND
    if filt.order > bound:
        raise ValueError(f"order {filt.order} exceeds the configured bound {bound}")
    found = {}

    def emit(rows):
        table = RackTable._wrap(rows)
        if filt.connected_only and not is_connected(table):
            return
        form, _ = canonical_form(table)
        key = table_bytes(form)
        if key not in found:
            found[key] = form
    _RowSearch(filt, emit, rng=rng).run()
    return [found[key] for key in sorted(found)]


def count(filt: EnumerationFilter, **kw) -> int:
    return len(enumerate_racks(filt, **kw))


def populate_registry(filt: EnumerationFilter, registry, **kw) -> int:
    """Register every connected class found; returns the number added."""
    before = len(registry)
    for table in enumerate_racks(filt._replace(connected_only=True), **kw):
        registry.register(table)
    return len(registry) - before


# -- naive oracle ---------------------------------------------------------------


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
    rowsets = [[p for p in perms if p[a] == a] if filt.quandle_only else perms for a in range(n)]
    reps = []
    for combo in product(*rowsets):
        if _distributivity_failure(combo) is not None:
            continue
        if any(_iso_naive(combo, rep, perms) for rep in reps):
            continue
        reps.append(combo)
    tables = [RackTable._wrap(rows) for rows in reps]
    if filt.connected_only:
        tables = [t for t in tables if is_connected(t)]
    return tables
