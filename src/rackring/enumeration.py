"""Isomorph-free exhaustive generation of racks and quandles.

Generation branches over whole rows (left multiplications), propagating the
closure constraint: once rows a and b are fixed, the row at position a |> b
must be the conjugate row_a . row_b . row_a^(-1).  Symmetry is cut three
ways.  Row 0 is forced into a canonical layout for its cycle type, which
must be maximal among all rows.  At each free branch, a candidate row is
tried only if it is the least of its conjugates under the permutations that
fix every assigned index and the branch index and commute with every
assigned row (orbit pruning in the sense of McKay, Isomorph-free exhaustive
generation, 1998).  Connected searches admit only rows of the root's cycle
type.  Every isomorphism class keeps at least one representative; the
survivors, about four tables per class for the quandles of order 8, are
deduplicated by canonical key.  A naive generate-filter-dedup oracle over
all row assignments, with pairwise relabeling tests, cross-checks the
generator at small orders.
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


def _invert(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _cycles(p):
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = p[x]
        if cycle:
            out.append(cycle)
    return out


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

    `_branch` carries `group`, the permutations other than the identity that
    fix every assigned index and commute with every assigned row, each with
    its inverse.  Relabelling a completion by such a c keeps the assigned
    rows and turns the row q at a free index that c fixes into c.q.c^-1, so
    only the least of those conjugates is tried.  A connected rack has all
    rows conjugate (row_{g(a)} = g.row_a.g^-1 for inner g), so connected
    searches admit only the root's cycle type.
    """

    def __init__(self, filt, emit, rng=None):
        n = self.n = filt.order
        self.quandle_only = filt.quandle_only
        self.connected_only = filt.connected_only
        self.emit = emit
        self.rng = rng
        self.identity = tuple(range(n))
        perms = list(permutations(range(n)))
        # rank k is the k-th largest cycle type
        types = sorted({_cycle_lengths(p) for p in perms}, reverse=True)
        rank = {t: k for k, t in enumerate(types)}
        self.rank_of = {p: rank[_cycle_lengths(p)] for p in perms}
        self.type_count = len(types)
        self.cands = []
        for i in range(n):
            by_rank = [[] for _ in types]
            for p in perms:
                if self.quandle_only and p[i] != i:
                    continue
                by_rank[self.rank_of[p]].append(p)
            self.cands.append(by_rank)
        self.rows = [None] * n
        self.invs = [None] * n
        self.rank_at = [None] * n
        self.assigned = []
        self.ranks = None
        self.admitted = None

    def run(self):
        if self.n == 0:
            self.emit(())
            return
        roots = _root_rows(self.n, self.quandle_only)
        if self.rng is not None:
            self.rng.shuffle(roots)
        for root in roots:
            root_rank = self.rank_of[root]
            if self.connected_only:
                self.ranks = [root_rank]
            else:
                self.ranks = list(range(root_rank, self.type_count))
            self.admitted = [k in self.ranks for k in range(self.type_count)]
            trail = self._try_assign(0, root)
            if trail is not None:
                self._branch(_centralizer_fixing(root, 0))
                self._rollback(trail)

    def _try_assign(self, index, row):
        """Assign a row and propagate conjugation constraints; None on conflict.

        A propagated row is a conjugate of an admitted row, so it has an
        admitted cycle type and, in a quandle, fixes its own index; only
        `row` itself is checked for both.  A constraint on an assigned index
        is checked at once, and a cycle type unlike the row already there
        rejects it before the conjugate is built; a constraint on a free
        index waits in the queue.
        """
        rows, invs, ranks = self.rows, self.invs, self.rank_at
        rank = self.rank_of[row]
        if (self.quandle_only and row[index] != index) or not self.admitted[rank]:
            return None
        trail = []
        # (index, p, r, p^-1, rank of r): the row at index is p.r.p^-1
        identity = self.identity
        queue = [(index, identity, row, identity, rank)]
        while queue:
            i, p, r, pi, rank = queue.pop()
            q = tuple(map(p.__getitem__, map(r.__getitem__, pi)))
            if rows[i] is not None:
                if rows[i] != q:
                    self._rollback(trail)
                    return None
                continue
            rows[i] = q
            invs[i] = qi = _invert(q)
            ranks[i] = rank
            self.assigned.append(i)
            trail.append(i)
            for a in self.assigned:
                ra, ia = rows[a], invs[a]
                j = q[a]
                if rows[j] is None:
                    queue.append((j, q, ra, qi, ranks[a]))
                elif ranks[j] != ranks[a] or rows[j] != tuple(map(q.__getitem__, map(ra.__getitem__, qi))):
                    self._rollback(trail)
                    return None
                j = ra[i]
                if rows[j] is None:
                    queue.append((j, ra, q, ia, rank))
                elif ranks[j] != rank or rows[j] != tuple(map(ra.__getitem__, map(q.__getitem__, ia))):
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
        pinned = None
        for a in self.assigned:
            c = rows[a][index]
            if rows[c] is not None:
                ia = self.invs[a]
                q = tuple(map(ia.__getitem__, map(rows[c].__getitem__, rows[a])))
                if pinned is None:
                    pinned = q
                elif pinned != q:
                    return
        if pinned is not None:
            # The pinned index and row come from the assigned ones by
            # conjugation, so the group fixes and commutes with them already.
            trail = self._try_assign(index, pinned)
            if trail is not None:
                self._branch(group)
                self._rollback(trail)
            return
        group = [g for g in group if g[0][index] == index]
        by_rank = self.cands[index]
        ranks = self.ranks
        if self.rng is not None:
            ranks = list(ranks)
            self.rng.shuffle(ranks)
        for k in ranks:
            cands = by_rank[k]
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
                    trail = self._try_assign(index, q)
                    if trail is not None:
                        self._branch(stabilizer)
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
    _RowSearch(filt, emit, rng=rng).run()
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
