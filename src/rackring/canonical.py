"""Canonical forms, isomorphism tests and automorphism groups of racks.

The canonical form is the lexicographically least relabeled table over an
individualization-refinement search.  Vertex invariants (diagonal fixed
flag, cycle type of the left multiplication, inner-orbit size, then
iterated neighborhood signatures) prune the search equivariantly, so equal
keys characterize isomorphic tables and the canonical representative of a
canonical representative is itself.

The search is also the one source of automorphisms: the ones it prunes by
generate the automorphism group.  The module further owns the one
propagate-and-backtrack morphism kernel, `_extend`, under morphism
censuses and coloring counts of presented quandles.
"""

from __future__ import annotations

import struct
from collections import Counter

from .perms import Perm, PermGroup, _cycle_lengths, _orbit_partition, _reach
from .racks import RackTable

MAX_DEGREE = 65535  # two bytes per table entry in the serialized key


def _initial_colors(table):
    n = len(table)
    orbit_size = [0] * n
    for orbit in _orbit_partition(table, range(n)):
        for x in orbit:
            orbit_size[x] = len(orbit)
    invariants = []
    for a in range(n):
        row = table[a]
        lengths = _cycle_lengths(row)
        invariants.append((row[a] == a, lengths, orbit_size[a]))
    ranking = {inv: i for i, inv in enumerate(sorted(set(invariants)))}
    return [ranking[inv] for inv in invariants]


def _refine(table, columns, colors):
    """Iterate neighborhood signatures to a stable, invariantly ordered coloring.

    Each round ranks a point by its old color, then by the sorted triples
    (color b, color a |> b, color b |> a) over b, read from `table[a]` and
    `columns[a]`.  Three facts keep the rounds cheap and the result exact:
    - a point alone in its cell takes the next rank in the order of its old
      color, so it needs no signature;
    - a triple (h, x, y) is the int h*m*m + x*m + y over colors shifted so
      the least is 0 (the search individualizes a point of color 0 as -1),
      and sorted ints order the multisets as sorted triples do;
    - a round that splits no cell is the last: its dense ranking is stable.
    """
    while True:
        lo = min(colors)
        m = max(colors) - lo + 1
        low = [c - lo for c in colors]
        mid = [c * m for c in low]
        high = [c * m for c in mid]
        size = Counter(colors)
        signatures = [
            (c, () if size[c] == 1 else tuple(sorted([h + mid[x] + low[y] for h, x, y in zip(high, row, col)])))
            for c, row, col in zip(colors, table, columns)
        ]
        ranking = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        colors = [ranking[sig] for sig in signatures]
        if len(ranking) == len(size):
            return colors


def _is_transposition_automorphism(table, columns, u, v):
    """Whether the swap (u v) is an automorphism: row v is row u conjugated by it, and every other
    (bijective) row maps {u, v} onto itself, so a |> v = swap(a |> u).  Reads rows and columns u, v."""
    swap = list(range(len(table)))
    swap[u], swap[v] = v, u
    if table[v][u] != swap[table[u][v]]:  # row v at u: most failing swaps fail here, before O(n) work
        return False
    column = list(map(swap.__getitem__, columns[u]))
    column[u], column[v] = columns[v][u], columns[v][v]
    return column == list(columns[v]) and tuple(map(swap.__getitem__, map(table[u].__getitem__, swap))) == table[v]


def _canonical_search(table):
    """Return (best flat table, labeling p, automorphisms) with relabel(table, p)
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


def canonical_form(r: RackTable):
    """Canonical representative and the relabeling that reaches it."""
    n = r.n
    flat, label, _ = _canonical_search(r.table)
    rows = [flat[a * n : (a + 1) * n] for a in range(n)]
    return RackTable._wrap(rows), Perm._wrap(tuple(label))


def table_bytes(r: RackTable) -> bytes:
    """Serialize a table as-is: 4-byte big-endian order, 2-byte entries."""
    if r.n > MAX_DEGREE:
        raise ValueError(f"order {r.n} exceeds the serializable bound {MAX_DEGREE}")
    return struct.pack(">I", r.n) + b"".join(
        struct.pack(">H", e) for row in r.table for e in row
    )


def canonical_key(r: RackTable) -> bytes:
    """Byte key of the canonical form; equal keys mean isomorphic racks."""
    form, _ = canonical_form(r)
    return table_bytes(form)


def key_order(key: bytes) -> int:
    return struct.unpack(">I", key[:4])[0]


def key_table(key: bytes) -> RackTable:
    """The rack table a stored key serializes, as stored (not re-canonicalized).

    This is the one decoder for keys read from files.  It raises ValueError
    unless the key is a 4-byte order n followed by exactly n*n two-byte
    entries, and InvalidRackError (a ValueError) unless they form a rack.
    """
    n = key_order(key) if len(key) >= 4 else None
    if n is None or len(key) != 4 + 2 * n * n:
        raise ValueError(f"key of {len(key)} bytes is not a 4-byte order n and n*n 2-byte entries")
    entries = struct.unpack(f">{n * n}H", key[4:])
    return RackTable(entries[a * n : (a + 1) * n] for a in range(n))


def are_isomorphic(a: RackTable, b: RackTable) -> bool:
    return find_isomorphism(a, b) is not None


def find_isomorphism(a: RackTable, b: RackTable):
    """A permutation p with p(x |>_a y) = p(x) |>_b p(y), or None."""
    if a.n != b.n:
        return None
    form_a, pa = canonical_form(a)
    form_b, pb = canonical_form(b)
    if form_a != form_b:
        return None
    return pb.inverse() * pa


def _table_constraints(table):
    """Propagation constraints of a rack table: each point x takes part in
    m = x |> u and m = u |> x for every point u."""
    n = len(table)
    return [
        [(x, u, table[x][u]) for u in range(n)] + [(u, x, table[u][x]) for u in range(n)]
        for x in range(n)
    ]


def _extend(constraints, target, first=None):
    """Yield every map f from the source points into a target rack table
    with f(m) = f(i) |> f(j) for each constraint (i, j, m), as image tuples;
    with `first` given, only the maps with f(0) = first.

    The source has one point per entry of `constraints`, and entry x lists
    the constraints with x as i or j.  Branching takes the first unassigned
    point; assigning it propagates every image the constraints force.
    """
    n = len(constraints)
    image = [None] * n

    def assign(v, w):
        """Set image[v] = w and propagate; return the trail, or None on conflict."""
        trail = []
        queue = [(v, w)]
        while queue:
            x, y = queue.pop()
            if image[x] is not None:
                if image[x] != y:
                    rollback(trail)
                    return None
                continue
            image[x] = y
            trail.append(x)
            for i, j, m in constraints[x]:
                fi, fj = image[i], image[j]
                if fi is not None and fj is not None:
                    queue.append((m, target[fi][fj]))
        return trail

    def rollback(trail):
        for x in trail:
            image[x] = None

    def rec():
        v = next((x for x in range(n) if image[x] is None), None)
        if v is None:
            yield tuple(image)
            return
        for w in range(len(target)):
            trail = assign(v, w)
            if trail is not None:
                yield from rec()
                rollback(trail)

    return rec() if first is None or assign(0, first) is not None else iter(())


def automorphism_group(r: RackTable) -> PermGroup:
    """Automorphisms as a permutation group, generated by those the
    canonical search finds; requires a nonempty rack."""
    if r.n == 0:
        raise ValueError("the empty rack has no automorphism group action")
    _, _, auts = _canonical_search(r.table)
    return PermGroup(r.n, map(Perm._wrap, auts))


def automorphisms(r: RackTable) -> list:
    """All structure-preserving permutations, sorted by image tuple."""
    if r.n == 0:
        return [Perm.identity(0)]
    return sorted(automorphism_group(r).elements(), key=lambda p: p.images)
