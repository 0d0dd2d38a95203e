"""Structural analysis of rack tables.

Covers the inner automorphism group and its orbits, the four structural
adjectives (connected, homogeneous, irreducible, indecomposable), the
partition into maximal connected subracks with its refinement tree, ideal
and decomposition listings, and profiles of homogeneous racks.
"""

from __future__ import annotations

from collections import namedtuple

from .canonical import _canonical_search
from .cycles import CycleVector
from .perms import PermGroup, _orbit_partition
from .racks import RackTable

MAX_ORBITS_FOR_IDEALS = 12


def inner_group(r: RackTable) -> PermGroup:
    """Group generated by the left multiplications (trivial for n = 0)."""
    return PermGroup(r.n, tuple(r.row_perms()))


def inn_orbits(r: RackTable) -> tuple:
    return _orbit_partition(r.table, range(r.n))


def is_connected(r: RackTable) -> bool:
    """Single orbit of the inner group; the empty rack is not connected."""
    return r.n >= 1 and len(inn_orbits(r)) == 1


def is_homogeneous(r: RackTable) -> bool:
    """Single orbit of the full automorphism group; False for the empty rack.
    The canonical search's automorphisms generate the group: no stabilizer chain."""
    if r.n == 0:
        return False
    if is_connected(r):  # Inn(r) lies in Aut(r)
        return True
    _, _, auts = _canonical_search(r.table)
    return len(_orbit_partition(auts, range(r.n))) == 1


def irreducible_components(r: RackTable) -> tuple:
    """Finest partition with a ~ b whenever a |> b != b or b |> a != a: the
    orbits of the maps, one per a, that send each b ~ a to a and fix the rest."""
    t, points = r.table, range(r.n)
    return _orbit_partition([[a if t[a][b] != b or t[b][a] != a else b for b in points] for a in points], points)


def is_irreducible(r: RackTable) -> bool:
    return r.n >= 1 and len(irreducible_components(r)) == 1


class DecompositionTree(namedtuple("DecompositionTree", "node children", defaults=((),))):
    """Node of the orbit-refinement recursion.

    `node` holds original indices; children partition the node into the
    orbits of the restricted rack.  Leaves restrict to connected racks
    (the empty rack yields a childless root by convention).
    """

    __slots__ = ()

    def height(self):
        if not self.children:
            return 0
        return 1 + max(child.height() for child in self.children)

    def leaves(self):
        if not self.children:
            return [self.node]
        out = []
        for child in self.children:
            out.extend(child.leaves())
        return out


def decomposition_tree(r: RackTable) -> DecompositionTree:
    def rec(indices):
        node = tuple(indices)
        if len(indices) <= 1:
            return DecompositionTree(node)
        orbits = _orbit_partition([r.table[a] for a in indices], indices)
        if len(orbits) == 1:
            return DecompositionTree(node)
        return DecompositionTree(node, tuple(rec(orbit) for orbit in orbits))

    return rec(tuple(range(r.n)))


def depth(r: RackTable) -> int:
    """Height of the refinement tree; 0 for connected racks and n <= 1."""
    return decomposition_tree(r).height()


def connected_parts(r: RackTable) -> list:
    """Partition of r into its maximal connected subracks.

    These are the leaves of the refinement recursion, sorted by least
    element; each leaf restricts to a connected rack.  Empty for n = 0.
    """
    if r.n == 0:
        return []
    leaves = decomposition_tree(r).leaves()
    return sorted(leaves, key=lambda leaf: leaf[0])


def enumerate_ideals(r: RackTable) -> list:
    """All ideals, which are exactly the unions of inner orbits."""
    orbits = inn_orbits(r)
    if len(orbits) > MAX_ORBITS_FOR_IDEALS:
        raise ValueError(f"{len(orbits)} orbits exceeds the configured bound {MAX_ORBITS_FOR_IDEALS}")
    out = []
    for mask in range(1 << len(orbits)):
        subset = []
        for i, orbit in enumerate(orbits):
            if mask >> i & 1:
                subset.extend(orbit)
        out.append(tuple(sorted(subset)))
    return sorted(out, key=lambda s: (len(s), s))


def enumerate_decompositions(r: RackTable) -> list:
    """Unordered pairs of complementary nonempty ideals, each listed once as
    the ideal that holds 0 and its complement."""
    full = set(range(r.n))
    return sorted(
        (ideal, tuple(sorted(full - set(ideal))))
        for ideal in enumerate_ideals(r)
        if ideal and ideal[0] == 0 and len(ideal) < r.n
    )


def profile(r: RackTable) -> CycleVector:
    """Cycle type shared by all left multiplications of a homogeneous rack."""
    if not is_homogeneous(r):
        raise ValueError("profile is only defined for homogeneous racks")
    return r.row_perm(0).cycle_type()
