"""Finite groups as Cayley tables, coset racks, and crossed G-sets.

A crossed G-set is a G-set X with an equivariant crossing map from X to the
group acting on itself by conjugation; it yields a rack via
a |> b = delta(a) . b, and conversely every rack arises this way from its
automorphism group.  Groups stay Cayley tables throughout so that matrix
groups over small prime fields can be ingested from generator files.

`FinGroup(...)` and `CrossedGSet(...)` check their data where it enters; what
is built here from checked data is wrapped unchecked (`_wrap`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import permutations

from .canonical import automorphism_group
from .perms import Perm, _closure, _compose, _orbit_partition, _pair_table, _reach
from .racks import FormatError, RackTable, _generators, _read_header, _read_int_rows, _significant_lines

# Largest |Aut| rack_to_crossed tabulates: 720 takes ~0.1 s, 18 MB; 5,040 ~2.4 s, 210 MB (Xeon, CPython 3.11).
MAX_CROSSED_GROUP_ORDER = 1000
# Largest |SL2(F_p)| = p(p^2 - 1) closed: p = 13 (2,184) takes ~0.3 s, 51 MB; p = 17 (4,896) ~1.8 s, 200 MB.
MAX_SL2_ORDER = 2500


class FinGroup:
    """A finite group given by its Cayley table; the identity is index 0.

    `FinGroup(cayley)` checks the group axioms.  Cyclic groups, tabulated
    closures and direct products skip it via `_wrap`."""

    __slots__ = ("cayley", "_gens")

    def __init__(self, cayley):
        object.__setattr__(self, "cayley", tuple(tuple(row) for row in cayley))
        n = len(self.cayley)
        if n == 0:
            raise ValueError("a group needs its identity at index 0; the table is empty")
        for a, row in enumerate(self.cayley):
            if len(row) != n:
                raise ValueError(f"row {a} has length {len(row)}, expected {n}")
            for b, entry in enumerate(row):
                if not isinstance(entry, int) or not 0 <= entry < n:
                    raise ValueError(f"entry [{a}][{b}] = {entry!r} out of range")
        for a in range(n):
            if self.cayley[0][a] != a or self.cayley[a][0] != a:
                raise ValueError("index 0 is not a two-sided identity")
        for a in range(n):
            if all(self.cayley[a][b] != 0 for b in range(n)):
                raise ValueError(f"element {a} has no inverse")
        # Light's test: a -> row a is a homomorphism at (a, b) iff (a.b).c == a.(b.c)
        # for all c, and such b are closed under the product even before associativity.
        rows = self.cayley
        failure = _homomorphism_failure(self, rows, _compose)
        if failure:
            a, b = failure
            c = next(c for c in range(n) if rows[rows[a][b]][c] != rows[a][rows[b][c]])
            raise ValueError(f"associativity fails at ({a}, {b}, {c})")

    @classmethod
    def _wrap(cls, cayley):
        """Wrap a Cayley table known to be a group's."""
        self = object.__new__(cls)
        object.__setattr__(self, "cayley", tuple(tuple(row) for row in cayley))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FinGroup is immutable")

    @property
    def n(self):
        return len(self.cayley)

    def __len__(self):
        return len(self.cayley)

    def mul(self, a, b):
        return self.cayley[a][b]

    def inv(self, a):
        return self.cayley[a].index(0)

    def conj(self, g, x):
        """g x g^(-1)."""
        return self.mul(self.mul(g, x), self.inv(g))

    def commutator(self, a, b):
        """a b a^(-1) b^(-1)."""
        return self.mul(self.mul(a, b), self.inv(self.mul(b, a)))

    def subgroup_from(self, gens) -> tuple:
        """Closure of the generators, as a sorted element tuple."""
        gens = list(gens)
        _check_elements(self, gens)
        return tuple(sorted(_closure(0, gens, self.mul)))

    def is_subgroup(self, elements) -> bool:
        elements = set(elements)
        return 0 in elements and set(self.subgroup_from(elements)) == elements

    def centralizer(self, g) -> tuple:
        _check_elements(self, [g])
        return tuple(x for x in range(self.n) if self.mul(x, g) == self.mul(g, x))

    def conjugacy_classes(self) -> tuple:
        """Orbits of conjugation by the greedy generators of Light's test."""
        return _orbit_partition(list(_conjugations(self, _group_generators(self))), range(self.n))

    def normal_core(self, subgroup) -> tuple:
        """Intersection of all conjugates of the subgroup: the union of the
        conjugacy classes inside it."""
        inside = set(subgroup).issuperset
        return tuple(sorted(x for cls in self.conjugacy_classes() if inside(cls) for x in cls))

    def left_cosets(self, subgroup) -> list:
        """Left cosets as sorted tuples, ordered by least element: the orbits
        of right multiplication by the subgroup's elements."""
        return list(_orbit_partition([[row[h] for row in self.cayley] for h in subgroup], range(self.n)))

    def __repr__(self):
        return f"FinGroup(order={self.n})"


# -- constructions ----------------------------------------------------------------


def _group_generators(group: FinGroup) -> list:
    """Light's greedy generators after 0, whose right multiplications reach every
    element from 0.  A property of b that holds at 0 and at each generator, and at
    b.c whenever at b and c, holds at every b, so a check of it tries these only.
    The scan runs once per group object, and none for `_tabulate`'s; `_gens` keeps the list."""
    if not hasattr(group, "_gens"):
        object.__setattr__(group, "_gens", _generators(tuple(zip(*group.cayley)))[1:])
    return group._gens


def _homomorphism_failure(group: FinGroup, value, combine):
    """The first (a, b), b a generator, with value[a.b] != combine(value[a], value[b]),
    or None.  With value[0] an identity of combine, None says a -> value[a] is a
    homomorphism: the b that pass for every a include 0 and are closed under products."""
    for b in _group_generators(group):
        value_b = value[b]
        for a, row in enumerate(group.cayley):
            if value[row[b]] != combine(value[a], value_b):
                return a, b
    return None


def _conjugations(group: FinGroup, elements):
    """For each g of the elements, the image tuple of h -> g h g^(-1)."""
    c = group.cayley
    for g in elements:
        g_inv = c[g].index(0)
        yield tuple(c[gh][g_inv] for gh in c[g])


def _check_elements(group: FinGroup, elements):
    """Raise ValueError naming the first element that is no index 0..n-1."""
    for x in elements:
        if not 0 <= x < group.n:
            raise ValueError(f"element {x} is not in 0..{group.n - 1}")


def cyclic_group(n: int) -> FinGroup:
    if n < 1:
        raise ValueError(f"a cyclic group has order >= 1, not {n}")
    return FinGroup._wrap(tuple((a + b) % n for b in range(n)) for a in range(n))


def _tabulate(elements, mul) -> tuple:
    """The group of the listed elements (a group under mul, identity
    first) as a Cayley table in that order, and the index of each element.
    Only the rows of Light's greedy generators, at most log2 n, call mul: the
    row of b.s, b reached and s a generator, is row_b after row_s."""
    index = {x: i for i, x in enumerate(elements)}
    rows = [tuple(range(len(elements)))] + [None] * (len(elements) - 1)
    gens = []

    def step(b, s):  # (b.s).y = b.(s.y)
        bs = rows[b][s]
        if rows[bs] is None:
            rows[bs] = _compose(rows[b], rows[s])
        return bs

    for g, x in enumerate(elements):
        if rows[g] is None:
            rows[g] = tuple(index[mul(x, y)] for y in elements)
            gens.append(g)
            _closure(0, gens, step)
    group = FinGroup._wrap(rows)
    object.__setattr__(group, "_gens", gens)
    return group, index


def symmetric_group(m: int) -> FinGroup:
    """Cayley table of all permutations of m letters, identity first."""
    elements = [tuple(range(m))] + sorted(
        p for p in permutations(range(m)) if p != tuple(range(m))
    )
    return _tabulate(elements, _compose)[0]


def group_from_permutations(degree: int, gens) -> tuple:
    """Closure of permutation generators: (FinGroup, element Perm list)."""
    gens = [g.images for g in gens]
    if any(len(g) != degree for g in gens):
        raise ValueError("degree mismatch")
    images = _closure(tuple(range(degree)), gens, lambda x, g: _compose(g, x))
    return _tabulate(images, _compose)[0], list(map(Perm._wrap, images))


def dihedral_group(order: int) -> FinGroup:
    """Dihedral group of the given (even, >= 2) order."""
    if order % 2 or order < 2:
        raise ValueError("dihedral groups here have even order >= 2")
    m = order // 2
    if m == 1:
        return cyclic_group(2)
    if m == 2:
        return direct_product_group(cyclic_group(2), cyclic_group(2))
    rotation = Perm.from_cycles(m, list(range(m)))
    reflection = Perm._wrap(tuple((-i) % m for i in range(m)))
    group, _ = group_from_permutations(m, [rotation, reflection])
    return group


def special_linear_2(p: int, generators=None):
    """SL2 over the prime field F_p, built by closure from generator matrices.

    Returns (group, matrices) where matrices[i] is the (a, b, c, d) of
    element i; the identity matrix has index 0.  With no generators given,
    the full group is generated from the two standard transvections.
    """
    _check_modulus(p)
    if generators is None:
        generators = [(1, 1, 0, 1), (1, 0, 1, 1)]
    for a, b, c, d in generators:
        if (a * d - b * c) % p != 1:
            raise ValueError(f"matrix {(a, b, c, d)} does not have determinant 1")

    def mat_mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)

    elements = _closure((1, 0, 0, 1), [tuple(x % p for x in m) for m in generators], mat_mul)
    return _tabulate(elements, mat_mul)[0], elements


def _check_modulus(p):
    # an admitted p has p^2 <= MAX_SL2_ORDER, so a composite one has a factor at most its fourth root
    if p < 2 or any(p % d == 0 for d in range(2, min(math.isqrt(p), math.isqrt(math.isqrt(MAX_SL2_ORDER))) + 1)):
        raise ValueError(f"modulus {p} is {'below 2' if p < 2 else 'not prime'}")
    if p * (p * p - 1) > MAX_SL2_ORDER:
        raise ValueError(f"SL2(F_{p}) has order {p * (p * p - 1)}, above the bound {MAX_SL2_ORDER}")


def conjugation_quandle(group: FinGroup) -> RackTable:
    """The whole group with g |> h = g h g^(-1)."""
    return RackTable._wrap(_conjugations(group, range(group.n)))


def conjugation_class_quandle(group: FinGroup, elements) -> RackTable:
    """A conjugation-closed subset with the conjugation operation."""
    elements = tuple(sorted(set(elements)))
    _check_elements(group, elements)
    if _reach(list(_conjugations(group, _group_generators(group))), elements) != set(elements):
        raise ValueError("the subset is not closed under conjugation")
    index = {x: i for i, x in enumerate(elements)}
    return RackTable._wrap(tuple(index[row[b]] for b in elements) for row in _conjugations(group, elements))


# -- coset racks ---------------------------------------------------------------------


def check_coset_pair(group: FinGroup, subgroup, mu) -> tuple:
    """(valid, strict): the commutator condition, and the stronger
    requirement that mu centralizes the subgroup.  The one check of a pair."""
    subgroup = tuple(subgroup)
    _check_elements(group, subgroup + (mu,))
    if not group.is_subgroup(subgroup):
        raise ValueError("not a subgroup")
    if all(group.mul(h, mu) == group.mul(mu, h) for h in subgroup):
        return True, True  # every [h, mu] is 0, which lies in every core
    core = set(group.normal_core(subgroup))
    return all(group.commutator(h, mu) in core for h in subgroup), False


def _coset_positions(group: FinGroup, subgroup):
    """The least element of each left coset of the subgroup, and the index of
    the coset of each element."""
    cosets = group.left_cosets(subgroup)
    return [coset[0] for coset in cosets], {x: i for i, coset in enumerate(cosets) for x in coset}


def coset_rack(group: FinGroup, subgroup, mu) -> RackTable:
    """Rack on the left cosets of the subgroup: aH |> bH = (a mu a^(-1)) bH.

    A valid pair makes aH -> a mu a^(-1) well defined; row aH is left
    multiplication by c_a = a mu a^(-1), a bijection, and c_(a|>b) = c_a c_b c_a^(-1)
    gives L_a L_b = L_(a|>b) L_a.  So the table is a rack and is wrapped."""
    subgroup = tuple(subgroup)
    if not check_coset_pair(group, subgroup, mu)[0]:
        raise ValueError("invalid pair: some commutator [h, mu] leaves the normal core")
    reps, position = _coset_positions(group, subgroup)
    return RackTable._wrap(tuple(position[group.mul(conj[mu], b)] for b in reps) for conj in _conjugations(group, reps))


# -- crossed G-sets ---------------------------------------------------------------


class CrossedGSet(namedtuple("CrossedGSet", "group size action delta")):
    """A G-set with an equivariant crossing into the conjugation action.

    `action[g]` is the permutation of the carrier given by g, and
    `delta[x]` is a group element with delta(g.x) = g delta(x) g^(-1).
    The acting group is part of the data, so this class also serves as the
    objects of the category of crossed actions over varying groups.

    `CrossedGSet(...)` checks the action and the crossing; the builders below
    derive actions from checked data and skip it via `_wrap`.
    """

    __slots__ = ()

    def __new__(cls, group, size, action, delta):
        if len(action) != group.n:
            raise ValueError("action must give one permutation per group element")
        if len(delta) != size:
            raise ValueError("delta must give one group element per point")
        if any(p.degree != size for p in action):
            raise ValueError("action degree mismatch")
        if not action[0].is_identity():
            raise ValueError("the identity must act trivially")
        failure = _homomorphism_failure(group, [p.images for p in action], _compose)
        if failure:
            raise ValueError(f"action is not a homomorphism at {failure}")
        gens = _group_generators(group)
        for a, conj in zip(gens, _conjugations(group, gens)):
            pa = action[a].images
            for x in range(size):
                if delta[pa[x]] != conj[delta[x]]:
                    raise ValueError(f"crossing is not equivariant at ({a}, {x})")
        return super().__new__(cls, group, size, action, delta)

    @classmethod
    def _wrap(cls, group, size, action, delta):
        """Wrap a crossed action known to be valid."""
        return tuple.__new__(cls, (group, size, action, delta))


CrossedAction = CrossedGSet


def transitive_crossed(group: FinGroup, subgroup, a) -> CrossedGSet:
    """Cosets of the subgroup with left translation and crossing gH -> g a g^(-1)."""
    subgroup = tuple(subgroup)
    if not check_coset_pair(group, subgroup, a)[1]:
        raise ValueError("the crossing element must centralize the subgroup")
    reps, position = _coset_positions(group, subgroup)
    action = tuple(Perm._wrap(tuple(position[group.mul(g, r)] for r in reps)) for g in range(group.n))
    delta = tuple(conj[a] for conj in _conjugations(group, reps))
    return CrossedGSet._wrap(group, len(reps), action, delta)


def transitive_crossed_iso(group: FinGroup, pair1, pair2) -> bool:
    """Conjugacy of (H, a) pairs: exists g with gHg^(-1) = K and gag^(-1) = b."""
    (h, a), (k, b) = pair1, pair2
    _check_elements(group, (*h, a, *k, b))
    # a search for one g, not a property of every g: generators do not suffice
    kset = set(k)
    return any(conj[a] == b and {conj[x] for x in h} == kset for conj in _conjugations(group, range(group.n)))


def crossed_to_rack(x: CrossedGSet) -> RackTable:
    """The rack a |> b = delta(a) . b (validity follows from equivariance)."""
    return RackTable._wrap(x.action[x.delta[a]].images for a in range(x.size))


def rack_to_crossed(r: RackTable) -> CrossedGSet:
    """The crossed action of the automorphism group, crossing by rows."""
    if r.n == 0:
        raise ValueError("the empty rack admits no crossed action")
    aut = automorphism_group(r)
    order = aut.order()
    if order > MAX_CROSSED_GROUP_ORDER:
        raise ValueError(f"automorphism group order {order} exceeds the crossed-action bound {MAX_CROSSED_GROUP_ORDER}")
    # sorted by image tuple, so the identity comes first
    elements = sorted(aut.elements(), key=lambda p: p.images)
    group, index = _tabulate([p.images for p in elements], _compose)
    delta = tuple(index[row] for row in r.table)
    return CrossedGSet._wrap(group, r.n, tuple(elements), delta)


def direct_product_group(g: FinGroup, h: FinGroup) -> FinGroup:
    """G x H with (a, b) indexed as a * |H| + b."""
    return FinGroup._wrap(_pair_table(g.cayley, h.cayley))


def crossed_sum(x: CrossedGSet, y: CrossedGSet) -> CrossedGSet:
    """Disjoint union over the product group, crossings (delta, e) and (e, epsilon)."""
    g, h = x.group, y.group
    action = tuple(
        Perm._wrap(pa.images + tuple(x.size + v for v in pb.images))
        for pa in x.action
        for pb in y.action
    )
    delta = tuple(d * h.n for d in x.delta) + tuple(y.delta)
    return CrossedGSet._wrap(direct_product_group(g, h), x.size + y.size, action, delta)


def crossed_product(x: CrossedGSet, y: CrossedGSet) -> CrossedGSet:
    """Cartesian product over the product group, crossing (delta, epsilon)."""
    g, h = x.group, y.group
    action = tuple(_pair_action(pa, pb) for pa in x.action for pb in y.action)
    delta = tuple(d * h.n + e for d in x.delta for e in y.delta)
    return CrossedGSet._wrap(direct_product_group(g, h), x.size * y.size, action, delta)


def diagonal_product_fixed_group(x: CrossedGSet, y: CrossedGSet) -> CrossedGSet:
    """Product over the same group with diagonal action and multiplied crossings."""
    if x.group.cayley != y.group.cayley:
        raise ValueError("both factors must share the same group")
    g = x.group
    action = tuple(map(_pair_action, x.action, y.action))
    delta = tuple(g.mul(d, e) for d in x.delta for e in y.delta)
    return CrossedGSet._wrap(g, x.size * y.size, action, delta)


def _pair_action(pa: Perm, pb: Perm) -> Perm:
    """pa x pb on pairs, with (p, q) indexed as p * |Y| + q."""
    return Perm._wrap(*_pair_table([pa.images], [pb.images]))


def is_equivalence(f, w, x: CrossedGSet, y: CrossedGSet) -> bool:
    """Check a morphism of crossed actions whose carrier map is a bijection.

    `f` maps elements of x.group to elements of y.group; `w` maps carrier
    points of x to carrier points of y.  Required: f is a homomorphism, w is
    bijective and equivariant through f, and f(delta(p)) = epsilon(w(p)).
    """
    f, w = tuple(f), tuple(w)
    if len(f) != x.group.n or len(w) != x.size:
        raise ValueError("image tables have the wrong length")
    g, h = x.group, y.group
    if any(not 0 <= v < h.n for v in f) or f[0] != 0:
        return False
    if sorted(w) != list(range(y.size)):
        return False
    if _homomorphism_failure(g, f, h.mul):
        return False
    for a in _group_generators(g):
        pa, pfa = x.action[a].images, y.action[f[a]].images
        if any(w[pa[p]] != pfa[w[p]] for p in range(x.size)):
            return False
    return all(f[x.delta[p]] == y.delta[w[p]] for p in range(x.size))


# -- text formats -----------------------------------------------------------------


def parse_group(text: str) -> FinGroup:
    """Parse the group format: `group <n>` followed by n Cayley rows, with
    the identity at index 0, or an `sl2 <p>` file (see `parse_sl2`)."""
    first = next(_significant_lines(text), None)
    if first is not None and first[1].split()[0] == "sl2":
        return parse_sl2(text)[0]
    lineno, n, lines = _read_header(text, "group", "n", "order")
    rows = _read_int_rows(lineno, lines, n)
    try:
        return FinGroup(rows)
    except ValueError as exc:
        raise FormatError(str(exc), lineno) from None


def parse_sl2(text: str):
    """Parse `sl2 <p>` plus generator matrices, one `a b c d` per line."""
    header_lineno, p, lines = _read_header(text, "sl2", "p", "prime")
    try:
        _check_modulus(p)
    except ValueError as exc:
        raise FormatError(str(exc), header_lineno) from None
    matrices = []
    for lineno, line in lines:
        try:
            entries = tuple(int(tok) % p for tok in line.split())
        except ValueError:
            raise FormatError(f"non-integer entry in {line!r}", lineno) from None
        if len(entries) != 4:
            raise FormatError(f"expected 4 entries, got {len(entries)}", lineno)
        matrices.append(entries)
    try:
        return special_linear_2(p, matrices or None)
    except ValueError as exc:
        raise FormatError(str(exc), header_lineno) from None


def format_group(group: FinGroup) -> str:
    lines = [f"group {group.n}"]
    lines.extend(" ".join(map(str, row)) for row in group.cayley)
    return "\n".join(lines) + "\n"
