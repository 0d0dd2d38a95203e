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
quandle searches and exactly it in connected ones.  At each free branch, a
candidate row is tried only if it is the least of its conjugates under the
permutations that fix every assigned index and the branch index and commute
with every assigned row (orbit pruning in the sense of McKay, Isomorph-free
exhaustive generation, 1998).  Every isomorphism class keeps at least one
representative; the survivors, about four tables per class for the
quandles of order 8, are deduplicated by canonical key.  A naive
generate-filter-dedup oracle over all row assignments, with pairwise
relabeling tests, cross-checks the generator at small orders.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import permutations, product

from .canonical import canonical_form, table_bytes
from .perms import _cycles, _invert
from .racks import RackTable, _distributivity_failure
from .structure import is_connected

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


def _partitions(n, largest):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _shapes(n, quandle_only):
    """Row shapes (cycle type, length of the cycle through the row's own
    index), largest first; a quandle's rows fix their index, so j = 1."""
    for t in _partitions(n, n):
        for j in sorted(set(t), reverse=True):
            if j == 1 or not quandle_only:
                yield t, j


def _root_rows(n, quandle_only):
    """Canonical candidate rows for index 0, one per admissible shape.

    Any table can be relabeled so that an element whose row has maximal
    shape sits at index 0 with its row in this layout, so restricting
    row 0 to these shapes loses no isomorphism class.
    """
    roots = []
    for t, j in _shapes(n, quandle_only):
        rest = list(t)
        rest.remove(j)
        images = []
        for length in (j, *rest):
            start = len(images)
            images += range(start + 1, start + length)
            images.append(start)
        roots.append(tuple(images))
    return roots


def _centralizer_fixing(row, point):
    """The permutations other than the identity that commute with `row` and
    fix `point`, each paired with its inverse.

    Such a permutation fixes the cycle of `point` pointwise and sends the
    other cycles of `row` to cycles of the same length, each with a rotation.
    """
    by_length = {}
    for cycle in _cycles(row):
        if point not in cycle:
            by_length.setdefault(len(cycle), []).append(cycle)
    choices = []
    for length, cycles in by_length.items():
        maps = []
        for targets in permutations(cycles):
            for shifts in product(range(length), repeat=len(cycles)):
                maps.append([
                    (src[t], dst[(t + s) % length])
                    for src, dst, s in zip(cycles, targets, shifts)
                    for t in range(length)
                ])
        choices.append(maps)
    identity = tuple(range(len(row)))
    group = []
    for parts in product(*choices):
        c = list(identity)
        for part in parts:
            for x, y in part:
                c[x] = y
        c = tuple(c)
        if c != identity:
            group.append((c, _invert(c)))
    return group


class _RowSearch:
    """Row-by-row search for every rack table matching a filter, up to
    isomorphism: `emit` receives at least one table of each class.

    Rows are admitted by shape (t, j), cycle type and the length of the
    cycle through the row's own index: up to the root's, which is the largest
    of its table, with j = 1 in quandle searches (row a sends a to a |> a)
    and equal to the root's in connected ones, whose rows are all conjugate.

    Propagation fills a |> b for every assigned pair, so after each
    successful `_try_assign` the assigned indices are closed under |>.  Each
    row, a bijection, maps that set onto itself, so no free row is pinned.

    `_branch` carries `group`, the permutations other than the identity that
    fix every assigned index and commute with every assigned row, each with
    its inverse.  Relabelling a completion by such a c keeps the assigned
    rows and turns the row q at a free index that c fixes into c.q.c^-1, of
    the same shape, so only the least of those conjugates is tried.
    """

    def __init__(self, filt, emit, rng=None):
        n = self.n = filt.order
        self.connected_only = filt.connected_only
        self.emit = emit
        self.rng = rng
        self.identity = tuple(range(n))
        shapes = list(_shapes(n, filt.quandle_only))
        self.roots = list(zip(shapes, _root_rows(n, filt.quandle_only)))
        # cands[i][s]: the rows admissible at index i of shape s, largest s first
        self.cands = [{s: [] for s in shapes} for _ in range(n)]
        for p in permutations(range(n)):
            cycles = _cycles(p)
            t = tuple(sorted(map(len, cycles), reverse=True))
            for cycle in cycles:
                shape = t, len(cycle)
                if shape in self.cands[0]:
                    for i in cycle:
                        self.cands[i][shape].append(p)
        self.rows = [None] * n
        self.invs = [None] * n
        self.shape_at = [None] * n
        self.assigned = []
        self.shapes = None

    def run(self):
        if self.n == 0:
            self.emit(())
            return
        roots = self.roots
        if self.rng is not None:
            roots = list(roots)
            self.rng.shuffle(roots)
        for shape, root in roots:
            self.shapes = [shape] if self.connected_only else [s for s in self.cands[0] if s <= shape]
            trail = self._try_assign(0, root, shape)
            if trail is not None:
                self._branch(_centralizer_fixing(root, 0))
                self._rollback(trail)

    def _try_assign(self, index, row, shape):
        """Assign `row`, of shape `shape`, and propagate conjugation
        constraints; None on conflict.

        `row` comes from the root layouts or the candidate lists, and a
        propagated row p.r.p^-1 at p(a), for r at a, has the cycle type of r
        and a cycle through p(a) as long as r's through a, so every row has an
        admitted shape.  A constraint on an assigned index is checked at once,
        and a shape unlike the row already there rejects it before the
        conjugate is built; a constraint on a free index waits in the queue.
        """
        rows, invs, shape_at = self.rows, self.invs, self.shape_at
        trail = []
        # (index, p, r, p^-1, shape of r): the row at index is p.r.p^-1
        identity = self.identity
        queue = [(index, identity, row, identity, shape)]
        while queue:
            i, p, r, pi, shape = queue.pop()
            q = tuple(map(p.__getitem__, map(r.__getitem__, pi)))
            if rows[i] is not None:
                if rows[i] != q:
                    self._rollback(trail)
                    return None
                continue
            rows[i] = q
            invs[i] = qi = _invert(q)
            shape_at[i] = shape
            self.assigned.append(i)
            trail.append(i)
            for a in self.assigned:
                ra, ia = rows[a], invs[a]
                j = q[a]
                if rows[j] is None:
                    queue.append((j, q, ra, qi, shape_at[a]))
                elif shape_at[j] != shape_at[a] or rows[j] != tuple(map(q.__getitem__, map(ra.__getitem__, qi))):
                    self._rollback(trail)
                    return None
                j = ra[i]
                if rows[j] is None:
                    queue.append((j, ra, q, ia, shape))
                elif shape_at[j] != shape or rows[j] != tuple(map(ra.__getitem__, map(q.__getitem__, ia))):
                    self._rollback(trail)
                    return None
        return trail

    def _rollback(self, trail):
        for i in reversed(trail):
            self.rows[i] = None
            self.invs[i] = None
            self.assigned.pop()

    def _branch(self, group):
        rows = self.rows
        if len(self.assigned) == self.n:
            self.emit(tuple(rows))
            return
        free = [i for i in range(self.n) if rows[i] is None]
        index = free[0] if self.rng is None else self.rng.choice(free)
        group = [g for g in group if g[0][index] == index]
        by_shape = self.cands[index]
        shapes = self.shapes
        if self.rng is not None:
            shapes = list(shapes)
            self.rng.shuffle(shapes)
        for shape in shapes:
            cands = by_shape[shape]
            if self.rng is not None:
                cands = list(cands)
                self.rng.shuffle(cands)
            for q in cands:
                # what commutes with q fixes and commutes with every row and
                # index that propagating q assigns, which come from q and the
                # assigned rows by conjugation
                stabilizer = []
                for g in group:
                    c, ci = g
                    conj = tuple(map(c.__getitem__, map(q.__getitem__, ci)))
                    if conj < q:
                        break
                    if conj == q:
                        stabilizer.append(g)
                else:
                    trail = self._try_assign(index, q, shape)
                    if trail is not None:
                        self._branch(stabilizer)
                        self._rollback(trail)


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
    for table in enumerate_racks(replace(filt, connected_only=True), **kw):
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
