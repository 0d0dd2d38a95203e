"""Canonical forms, isomorphism tests and automorphism groups of racks.

The canonical form is the lexicographically least relabeled table over an
individualization-refinement search.  Vertex invariants (diagonal fixed
flag, cycle type of the left multiplication, inner-orbit size, then
iterated neighborhood signatures) prune the search equivariantly, so equal
keys characterize isomorphic tables and the canonical representative of a
canonical representative is itself.

The module also owns the one propagate-and-backtrack morphism kernel,
`_extend`.  Automorphisms, orbit tests, morphism censuses and coloring
counts of presented quandles all run on it.
"""

from __future__ import annotations

import struct

from .perms import Perm, PermGroup, _cycle_lengths, group_closure_from
from .racks import RackTable
from .structure import _orbit_partition

MAX_DEGREE = 65535  # two bytes per table entry in the serialized key


def _initial_colors(table):
    n = len(table)
    orbit_size = [0] * n
    for orbit in _orbit_partition(table):
        for x in orbit:
            orbit_size[x] = len(orbit)
    invariants = []
    for a in range(n):
        row = table[a]
        lengths = _cycle_lengths(row)
        invariants.append((row[a] == a, lengths, orbit_size[a]))
    ranking = {inv: i for i, inv in enumerate(sorted(set(invariants)))}
    return [ranking[inv] for inv in invariants]


def _refine(table, colors):
    """Iterate neighborhood signatures to a stable, invariantly ordered coloring."""
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


def _is_transposition_automorphism(table, u, v):
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


def _canonical_search(table):
    """Return (best flat table, labeling p) with relabel(table, p) minimal."""
    n = len(table)
    best_flat = [None]
    best_label = [None]
    auts = []  # discovered automorphisms, as image lists

    def leaf(colors):
        label = [0] * n
        verts = sorted(range(n), key=lambda v: colors[v])
        for rank, v in enumerate(verts):
            label[v] = rank
        flat = tuple(label[table[a][b]] for a in verts for b in verts)
        if best_flat[0] is None or flat < best_flat[0]:
            best_flat[0] = flat
            best_label[0] = label
        elif flat == best_flat[0]:
            inv_best = [0] * n
            for v, rank in enumerate(best_label[0]):
                inv_best[rank] = v
            auts.append([inv_best[label[v]] for v in range(n)])

    def rec(colors, fixed):
        colors = _refine(table, colors)
        classes = {}
        for v in range(n):
            classes.setdefault(colors[v], []).append(v)
        target = None
        for color in sorted(classes):
            if len(classes[color]) > 1:
                target = classes[color]
                break
        if target is None:
            leaf(colors)
            return
        for v in target[1:]:
            if _is_transposition_automorphism(table, target[0], v):
                swap = list(range(n))
                swap[target[0]], swap[v] = v, target[0]
                if swap not in auts:
                    auts.append(swap)
        tried = []
        for v in target:
            if any(
                all(g[u] == u for u in fixed) and g[v] == w
                for g in auts
                for w in tried
            ):
                continue
            tried.append(v)
            new_colors = [2 * c for c in colors]
            new_colors[v] -= 1
            rec(new_colors, fixed + [v])

    if n == 0:
        return (), []
    rec(_initial_colors(table), [])
    return best_flat[0], best_label[0]


def canonical_form(r: RackTable):
    """Canonical representative and the relabeling that reaches it."""
    n = r.n
    if n == 0:
        return r, Perm.identity(0)
    flat, label = _canonical_search(r.table)
    rows = [flat[a * n : (a + 1) * n] for a in range(n)]
    return RackTable._wrap(rows), Perm(label)


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
    if a.n != b.n:
        return False
    return canonical_key(a) == canonical_key(b)


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


def _extend(constraints, target, *, colors=None, first=False, seed=None):
    """Every map f from the source points into a target rack table with
    f(m) = f(i) |> f(j) for each constraint (i, j, m), as sorted image tuples.

    The source has one point per entry of `constraints`, and entry x lists
    the constraints with x as i or j.  Branching takes the first unassigned
    point; assigning it propagates every image the constraints force.  A
    coloring keeps each point on targets of its own color and makes f
    injective.  `first` stops after one completion, and `seed` fixes one
    (source, target) pair before the search.
    """
    n = len(constraints)
    image = [None] * n
    used = [False] * len(target)
    out = []

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
            if colors is not None and (used[y] or colors[x] != colors[y]):
                rollback(trail)
                return None
            image[x] = y
            used[y] = True
            trail.append(x)
            for i, j, m in constraints[x]:
                fi, fj = image[i], image[j]
                if fi is not None and fj is not None:
                    queue.append((m, target[fi][fj]))
        return trail

    def rollback(trail):
        for x in trail:
            used[image[x]] = False
            image[x] = None

    def rec():
        v = next((x for x in range(n) if image[x] is None), None)
        if v is None:
            out.append(tuple(image))
            return first
        for w in range(len(target)):
            if colors is not None and (used[w] or colors[w] != colors[v]):
                continue
            trail = assign(v, w)
            if trail is None:
                continue
            stop = rec()
            rollback(trail)
            if stop:
                return True
        return False

    if seed is None or assign(*seed) is not None:
        rec()
    out.sort()
    return out


def automorphisms(r: RackTable) -> list:
    """All structure-preserving permutations, sorted by image tuple."""
    table = r.table
    colors = _refine(table, _initial_colors(table))
    return [Perm(f) for f in _extend(_table_constraints(table), table, colors=colors)]


def automorphism_group(r: RackTable) -> PermGroup:
    """Automorphisms as a permutation group; requires a nonempty rack."""
    if r.n == 0:
        raise ValueError("the empty rack has no automorphism group action")
    return group_closure_from(r.n, automorphisms(r))


def has_automorphism_mapping(r: RackTable, source: int, target: int) -> bool:
    """Existence of an automorphism with the given image of one point.

    Stops at the first completion, so orbit questions stay cheap on racks
    whose full automorphism group would be enormous.
    """
    table = r.table
    colors = _refine(table, _initial_colors(table))
    found = _extend(_table_constraints(table), table, colors=colors, first=True, seed=(source, target))
    return bool(found)
