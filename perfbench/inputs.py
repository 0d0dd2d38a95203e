"""Input racks for the benchmark, built with the standard library only.

Tables are tuples of rows with entry [a][b] = a |> b, the layout of the
rackring text format.  The benchmark builds its inputs here rather than with
rackring itself, so a defect in the program cannot corrupt its own inputs or
the answers they are checked against.
"""

from __future__ import annotations

import random
from itertools import permutations


def dihedral(n):
    return tuple(tuple((2 * a - b) % n for b in range(n)) for a in range(n))


def trivial(n):
    return tuple(tuple(range(n)) for _ in range(n))


def cycle_rack(n):
    """Permutation rack of one n-cycle: a |> b = b + 1 mod n."""
    return tuple(tuple((b + 1) % n for b in range(n)) for _ in range(n))


def product(r, s):
    ns = len(s)
    return tuple(
        tuple(r[a][c] * ns + s[b][d] for c in range(len(r)) for d in range(ns))
        for a in range(len(r))
        for b in range(ns)
    )


def disjoint_union(r, s):
    nr = len(r)
    rows = [tuple(row) + tuple(nr + j for j in range(len(s))) for row in r]
    rows += [tuple(range(nr)) + tuple(nr + x for x in row) for row in s]
    return tuple(rows)


def _compose(p, q):
    """p after q."""
    return tuple(p[i] for i in q)


def _inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _conjugation_table(elements):
    index = {g: i for i, g in enumerate(elements)}
    return tuple(
        tuple(index[_compose(g, _compose(h, _inverse(g)))] for h in elements)
        for g in elements
    )


def conj_symmetric(m):
    """Conjugation quandle of the symmetric group on m letters."""
    return _conjugation_table(sorted(permutations(range(m))))


def tetrahedral():
    """The class of (0 1 2) in A4 under conjugation: the order-4 tetrahedral quandle."""
    cls = {(1, 2, 0, 3)}
    while True:
        grown = cls | {_compose(g, _compose(h, _inverse(g))) for g in cls for h in cls}
        if grown == cls:
            return _conjugation_table(sorted(cls))
        cls = grown


def relabel(table, p):
    """Transport along p: new[p(a)][p(b)] = p(old[a][b])."""
    n = len(table)
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            rows[p[a]][p[b]] = p[table[a][b]]
    return tuple(tuple(r) for r in rows)


def seeded(table, seed, name):
    """Input `name` relabelled under the workload seed."""
    p = list(range(len(table)))
    random.Random(f"{seed}/{name}").shuffle(p)
    return relabel(table, p)


def rack_text(table):
    lines = [f"rack {len(table)}"]
    lines.extend(" ".join(map(str, row)) for row in table)
    return "\n".join(lines) + "\n"


def table_hex(table):
    """The rackring key layout of a table as given: 4-byte order, 2-byte entries.

    Element files accept any table in this layout, canonical or not.
    """
    n = len(table)
    return n.to_bytes(4, "big").hex() + "".join(e.to_bytes(2, "big").hex() for row in table for e in row)


def element_text(terms):
    """Element file with one `<coefficient> <hex table>` line per (coefficient, table)."""
    return "".join(f"{coeff} {table_hex(table)}\n" for coeff, table in terms)


TREFOIL = "qpres 3\n0 rd 1 = 2\n1 rd 2 = 0\n2 rd 0 = 1\n"


def is_morphism(images, source, target):
    """True when images is a bijection with images[a |> b] = images[a] |> images[b]."""
    n = len(source)
    if len(images) != n or sorted(images) != list(range(len(target))):
        return False
    return all(
        images[source[a][b]] == target[images[a]][images[b]] for a in range(n) for b in range(n)
    )
