"""Counting rack morphisms: censuses, marks and coloring counts.

A morphism f between rack tables satisfies f(a |> b) = f(a) |> f(b).  For
a connected source C the count |Mor(C, -)| is additive over decompositions
and multiplicative over products, so it extends to an integer-valued ring
map on elements over the class registry.  Presented quandles count their
colorings into a target without ever building the presented object.
Counts visit the maps with f(0) least in its inner orbit O, weighted by |O|:
composing with inner automorphisms keeps injectivity, surjectivity and image.
"""

from __future__ import annotations

from collections import namedtuple

from .burnside import BurnsideElement, BurnsideRing
from .canonical import _extend, _table_constraints, automorphism_group, canonical_key, key_order, key_table
from .perms import _orbit_partition
from .racks import FormatError, RackTable, _read_header
from .structure import is_connected


def enumerate_morphisms(c: RackTable, r: RackTable) -> list:
    """All maps f with f(a |> b) = f(a) |> f(b), as image tuples, sorted."""
    if c.n == 0:
        raise ValueError("the source must be nonempty")
    return sorted(_extend(_table_constraints(c.table), r.table))


def _orbit_weighted(constraints, target):
    """(f, |O|) for each map f with f(0) least in its inner orbit O."""
    orbits = _orbit_partition(target, range(len(target))) if constraints else [(None,)]  # no point 0: the one empty map
    return ((f, len(orbit)) for orbit in orbits for f in _extend(constraints, target, orbit[0]))


def _morphism_count(c: RackTable, r: RackTable) -> int:
    return sum(weight for _, weight in _orbit_weighted(_table_constraints(c.table), r.table))


class MorphismCensus(namedtuple("MorphismCensus", "mor inj sur by_image")):
    # by_image: hex canonical key of the image class -> count
    __slots__ = ()


def census(c: RackTable, r: RackTable) -> MorphismCensus:
    """Classify every morphism by injectivity, surjectivity and image class (listed as sorted maps meet them)."""
    if c.n == 0:
        raise ValueError("the source must be nonempty")
    by_image = {}
    keys = {}  # image set -> hex key of its class, each keyed once
    inj = sur = 0
    for f, weight in sorted(_orbit_weighted(_table_constraints(c.table), r.table)):
        values = frozenset(f)
        if len(values) == c.n:
            inj += weight
        if len(values) == r.n:
            sur += weight
        if values not in keys:
            keys[values] = canonical_key(r.restrict(sorted(values))).hex()
        by_image[keys[values]] = by_image.get(keys[values], 0) + weight
    return MorphismCensus(sum(by_image.values()), inj, sur, by_image)


def mark(c: RackTable, x: BurnsideElement, ring: BurnsideRing) -> int:
    """Morphism count from a connected source, extended linearly."""
    if not is_connected(c):
        raise ValueError("marks are only defined for connected sources")
    return sum(
        coeff * _morphism_count(c, ring.registry.entry(i).table)
        for i, coeff in x.items()
    )


def mark_matrix(sources, targets) -> list:
    """Matrix of morphism counts; sources must be connected."""
    for c in sources:
        if not is_connected(c):
            raise ValueError("marks are only defined for connected sources")
    return [[_morphism_count(c, r) for r in targets] for c in sources]


def verify_triangular_recursion(c: RackTable, r: RackTable) -> bool:
    """Check the image-splitting count identities for the pair (c, r).

    Morphisms split into injections and maps with a strictly smaller image
    class D, and for each D the factored count satisfies
    |Mor_D(c, r)| * |Aut(D)| = |Inj(D, r)| * |Sur(c, D)|.
    """
    cen = census(c, r)
    smaller = {key: cnt for key, cnt in cen.by_image.items() if key_order(bytes.fromhex(key)) < c.n}
    if cen.mor != cen.inj + sum(smaller.values()):
        return False
    for key, cnt in smaller.items():
        d = key_table(bytes.fromhex(key))
        aut_d = automorphism_group(d).order()
        inj_d_r = census(d, r).inj
        sur_c_d = census(c, d).sur
        if cnt * aut_d != inj_d_r * sur_c_d:
            return False
    return True


# -- presented quandles ----------------------------------------------------------


class PresentedQuandle(namedtuple("PresentedQuandle", "generators relations")):
    """Generators and relations g_i |> g_j = g_m (or with the inverse action).

    `relations` is a tuple of (kind, i, j, m), kind in {"apply", "unapply"}.
    """

    __slots__ = ()

    def __new__(cls, generators, relations):
        if generators < 0:
            raise ValueError(f"negative generator count {generators}")
        for kind, i, j, m in relations:
            if kind not in ("apply", "unapply"):
                raise ValueError(f"unknown relation kind {kind!r}")
            if not all(0 <= x < generators for x in (i, j, m)):
                raise ValueError("relation index out of range")
        return super().__new__(cls, generators, relations)


def trefoil_presentation() -> PresentedQuandle:
    """Three generators a, b, c with a|>b=c, b|>c=a, c|>a=b."""
    return PresentedQuandle(3, (("apply", 0, 1, 2), ("apply", 1, 2, 0), ("apply", 2, 0, 1)))


def colorings(p: PresentedQuandle, r: RackTable) -> int:
    """Number of generator assignments into r satisfying every relation.  The
    search sees only the generators in relations; each other one adds a factor |r|."""
    index = {x: k for k, x in enumerate(sorted({x for _, *relation in p.relations for x in relation}))}
    constraints = [[] for _ in index]
    for kind, i, j, m in p.relations:
        # i rdinv j = m holds exactly when i rd m = j
        relation = (index[i], index[j], index[m]) if kind == "apply" else (index[i], index[m], index[j])
        for x in {relation[0], relation[1]}:
            constraints[x].append(relation)
    return r.n ** (p.generators - len(index)) * sum(weight for _, weight in _orbit_weighted(constraints, r.table))


def parse_presentation(text: str) -> PresentedQuandle:
    """Parse `qpres <k>` followed by `i rd j = m` / `i rdinv j = m` lines."""
    lineno, k, lines = _read_header(text, "qpres", "k", "generator count")
    if k < 0:
        raise FormatError(f"negative generator count {k}", lineno)
    relations = []
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != 5 or tokens[3] != "=" or tokens[1] not in ("rd", "rdinv"):
            raise FormatError(f"expected `i rd j = m` or `i rdinv j = m`, got {line!r}", lineno)
        try:
            i, j, m = int(tokens[0]), int(tokens[2]), int(tokens[4])
        except ValueError:
            raise FormatError(f"non-integer generator index in {line!r}", lineno) from None
        kind = "apply" if tokens[1] == "rd" else "unapply"
        if not all(0 <= x < k for x in (i, j, m)):
            raise FormatError(f"generator index out of range in {line!r}", lineno)
        relations.append((kind, i, j, m))
    return PresentedQuandle(k, tuple(relations))


def format_presentation(p: PresentedQuandle) -> str:
    lines = [f"qpres {p.generators}"]
    for kind, i, j, m in p.relations:
        op = "rd" if kind == "apply" else "rdinv"
        lines.append(f"{i} {op} {j} = {m}")
    return "\n".join(lines) + "\n"
