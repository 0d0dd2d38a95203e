"""Permutations of {0, ..., n-1} and a small permutation-group kernel.

The group machinery is a deterministic Schreier-Sims stabilizer chain on
image tuples, for the inner and automorphism groups of small racks, with
`elements()` listing the whole group breadth-first by the one closure,
`_closure`.  It makes no attempt at large-degree performance.
"""

from __future__ import annotations

import math

from .cycles import CycleVector


class Perm:
    """An immutable permutation, stored as its tuple of images.

    `Perm(images)` and `from_cycles` check their input.  Permutations derived
    from checked ones (products, inverses, powers, the identity, rack rows,
    the canonical search's automorphisms and labellings) skip it via `_wrap`."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def _wrap(cls, images):
        """Wrap an image tuple known to be a permutation."""
        self = object.__new__(cls)
        object.__setattr__(self, "images", images)
        return self

    @classmethod
    def identity(cls, degree):
        return cls._wrap(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree, *cycles):
        points = [x for cycle in cycles for x in cycle]
        if len(set(points)) != len(points):
            raise ValueError(f"cycles repeat a point: {cycles!r}")
        for x in points:
            if not 0 <= x < degree:
                raise ValueError(f"point {x} is not in 0..{degree - 1}")
        images = list(range(degree))
        for cycle in cycles:
            for i, j in zip(cycle, cycle[1:]):
                images[i] = j
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        """Composition p * q applies q first: (p * q)(x) = p(q(x))."""
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        return Perm._wrap(_compose(self.images, other.images))

    def inverse(self):
        return Perm._wrap(_invert(self.images))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Perm.identity(self.degree)
        base = self
        while k:
            if k & 1:
                out = base * out
            base = base * base
            k >>= 1
        return out

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self):
        """Cycles of length >= 2, each starting at its least point."""
        return [c for c in _cycles(self.images) if len(c) > 1]

    def cycle_lengths(self):
        """All cycle lengths including fixed points, sorted descending."""
        return _cycle_lengths(self.images)

    def cycle_type(self):
        """Mapping {length -> number of cycles of that length}."""
        return CycleVector.of_lengths(self.cycle_lengths())

    def __str__(self):
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self):
        return f"Perm({list(self.images)!r})"

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)


def _compose(p, q):
    """Image tuple of the permutation with images p after the one with images q."""
    return tuple(map(p.__getitem__, q))


def _pair_table(rows, others):
    """Image tuples of the maps (x, y) -> (row[x], other[y]) on pairs, rows
    outermost, with (x, y) indexed as x * m + y, m the length of the others."""
    m = len(others[0]) if others else 0
    return [tuple(x * m + y for x in row for y in other) for row in rows for other in others]


def _invert(images):
    """Image tuple of the inverse permutation."""
    inv = [0] * len(images)
    for i, v in enumerate(images):
        inv[v] = i
    return tuple(inv)


def _closure(identity, gens, step):
    """Everything step(x, g) reaches from the identity, in breadth-first order."""
    elements = [identity]
    seen = {identity}
    for x in elements:  # the list grows while it is walked
        for g in gens:
            y = step(x, g)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    return elements


def _cycles(images):
    """All cycles of the permutation with these images, fixed points
    included, each starting at its least point, ordered by that point."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = images[x]
        if cycle:
            out.append(cycle)
    return out


def _cycle_lengths(images):
    """Cycle lengths of the permutation with these images, fixed points
    included, sorted descending."""
    return tuple(sorted(map(len, _cycles(images)), reverse=True))


def centralizer_order_in_sym(p: Perm) -> int:
    """Order of the centralizer of p in the full symmetric group."""
    return math.prod(length**count * math.factorial(count) for length, count in p.cycle_type().items())


def _reach(images, points):
    """The set of points that the maps with these image tuples reach from
    `points`, `points` included."""
    reached = frontier = set(points)
    while frontier:
        frontier = {image[y] for y in frontier for image in images} - reached
        reached |= frontier
    return reached


def _orbit_partition(images, points):
    """Orbits of the maps with these image tuples on `points`, as sorted
    tuples ordered by least element.  The maps must send `points` into
    itself, and each point must reach back every point it reaches, as it
    does under permutations."""
    seen, orbits = set(), []
    for x in sorted(points):
        if x not in seen:
            orbit = _reach(images, [x])
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


class PermGroup:
    """Permutation group given by generators, with a stabilizer chain.

    The chain is grown by sifting each generator in, in the order given.
    It is built deterministically: each new base point is the least point
    moved by the residue that forced it, so orders, orbits and element
    listings are reproducible.  The chain holds image tuples, not `Perm`s;
    `elements()` lists the whole group at once, breadth-first.
    """

    def __init__(self, degree, generators=()):
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
        self.degree = degree
        self.generators = generators
        self._base = []
        self._strong = []  # image tuples of the strong generators fixing base[:level]
        self._transversal = []  # dicts point -> image tuple of its coset representative
        for g in generators:
            self._sift_in(g.images, 0)

    # -- chain construction -------------------------------------------------

    def _orbit_transversal(self, level):
        b = self._base[level]
        gens = self._strong[level]
        tr = {b: tuple(range(self.degree))}
        queue = [b]
        for p in queue:  # the list grows while it is walked
            for g in gens:
                q = g[p]
                if q not in tr:
                    tr[q] = _compose(g, tr[p])
                    queue.append(q)
        self._transversal[level] = tr

    def _strip(self, g, level):
        for i in range(level, len(self._base)):
            p = g[self._base[i]]
            tr = self._transversal[i]
            if p not in tr:
                return g, i
            g = _compose(_invert(tr[p]), g)
        return g, len(self._base)

    def _sift_in(self, g, level):
        """Strip g from `level` down.  A residue other than the identity
        becomes a strong generator of every level from `level` to the one it
        dropped out at (a new base point, its least moved point, if it passed
        them all), and those levels are completed again, deepest first."""
        residue, drop = self._strip(g, level)
        if residue == tuple(range(self.degree)):
            return
        if drop == len(self._base):
            self._base.append(min(i for i in range(self.degree) if residue[i] != i))
            self._strong.append([])
            self._transversal.append({})
        for j in range(level, drop + 1):
            self._strong[j].append(residue)
        for j in range(drop, level - 1, -1):
            self._schreier_sims(j)

    def _schreier_sims(self, level):
        self._orbit_transversal(level)
        tr = self._transversal[level]
        for point in sorted(tr):
            rep = tr[point]
            for s in list(self._strong[level]):
                self._sift_in(_compose(_invert(tr[s[point]]), _compose(s, rep)), level + 1)

    # -- queries -------------------------------------------------------------

    def order(self):
        return math.prod(map(len, self._transversal))

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        residue, level = self._strip(p.images, 0)
        return residue == tuple(range(self.degree)) and level == len(self._base)

    def __contains__(self, p):
        return self.contains(p)

    def orbits(self):
        """Orbit partition of {0..n-1}: sorted orbits, ordered by least element."""
        return _orbit_partition([g.images for g in self.generators], range(self.degree))

    def is_transitive(self):
        return self.degree >= 1 and len(self.orbits()) == 1

    def elements(self):
        """Iterate over the whole group, listed at once breadth-first."""
        return map(Perm._wrap, _closure(tuple(range(self.degree)), [g.images for g in self.generators], _compose))

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order()})"
