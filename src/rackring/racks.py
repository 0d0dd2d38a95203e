"""Finite racks as left-multiplication tables.

A rack is a set with a binary operation a |> b whose left multiplications
b -> a |> b are bijections satisfying a |> (b |> c) = (a |> b) |> (a |> c).
Tables are stored row-major: entry [a][b] is a |> b, so row a is the left
multiplication by a.  Quandles are the racks with a |> a = a everywhere.
"""

from __future__ import annotations

import os
from collections import namedtuple
from operator import itemgetter

from .perms import Perm, _orbit_partition, _pair_table


class InvalidRackError(ValueError):
    pass


class FormatError(ValueError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ValidationReport(namedtuple("ValidationReport", "ok error detail where", defaults=(None, "", None))):
    # error: None or not-square | entry-out-of-range | row-not-bijective | not-self-distributive
    __slots__ = ()

    def __bool__(self):
        return self.ok


def validate_table(rows) -> ValidationReport:
    """Check that rows form a rack table; report the first violation found."""
    rows = [tuple(r) for r in rows]
    n = len(rows)
    for a, row in enumerate(rows):
        if len(row) != n:
            return ValidationReport(False, "not-square", f"row {a} has length {len(row)}, expected {n}", (a,))
    for a, row in enumerate(rows):
        for b, entry in enumerate(row):
            if not isinstance(entry, int) or not 0 <= entry < n:
                return ValidationReport(False, "entry-out-of-range", f"entry [{a}][{b}] = {entry!r}", (a, b))
    for a, row in enumerate(rows):
        if len(set(row)) != n:
            return ValidationReport(False, "row-not-bijective", f"row {a} = {list(row)} is not a bijection", (a,))
    if not _self_distributive(rows):
        a, b, c = _distributivity_failure(rows)
        ra = rows[a]
        detail = f"{a}|>({b}|>{c}) = {ra[rows[b][c]]} but ({a}|>{b})|>({a}|>{c}) = {rows[ra[b]][ra[c]]}"
        return ValidationReport(False, "not-self-distributive", detail, (a, b, c))
    return ValidationReport(True)


def _generators(rows):
    """Points taken greedily until the rows of those taken reach every point:
    the rack test's rows, and Light's test's columns of a Cayley table."""
    reached, gens = set(), []
    for x in range(len(rows)):
        if x not in reached:
            gens.append(x)
            new = {x} | ({rows[x][y] for y in reached} - reached)
            while new:
                reached |= new
                new = {rows[g][p] for p in new for g in gens} - reached
    return gens


def _self_distributive(rows):
    """True when every row a of the bijective rows is an automorphism,
    L_a L_b = L_(a|>b) L_a for all b.  Only the generators' rows are tested: if
    L_a and L_b are automorphisms, so are L_a^-1 and L_(a|>b) = L_a L_b L_a^-1,
    so the points with automorphic rows, holding the generators, are all points."""
    compose = [itemgetter(*row) for row in rows]  # compose[b](r) is r after row b
    return all(
        compose[b](rows[a]) == compose[a](rows[ab]) for a in _generators(rows) for b, ab in enumerate(rows[a])
    )


def _distributivity_failure(rows):
    """The first (a, b, c) with a |> (b |> c) != (a |> b) |> (a |> c), or None
    when the bijective rows form a rack."""
    n = len(rows)
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            rab = rows[ra[b]]
            rb = rows[b]
            for c in range(n):
                if ra[rb[c]] != rab[ra[c]]:
                    return a, b, c
    return None


class RackTable:
    """An immutable, validated rack table."""

    __slots__ = ("table",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        report = validate_table(rows)
        if not report.ok:
            raise InvalidRackError(f"{report.error}: {report.detail}")
        object.__setattr__(self, "table", rows)

    def __setattr__(self, name, value):
        raise AttributeError("RackTable is immutable")

    @classmethod
    def _wrap(cls, rows):
        """Wrap rows known to be valid (already-checked constructions)."""
        self = object.__new__(cls)
        object.__setattr__(self, "table", tuple(tuple(r) for r in rows))
        return self

    @property
    def n(self):
        return len(self.table)

    def __len__(self):
        return len(self.table)

    def __getitem__(self, a):
        return self.table[a]

    def apply(self, a, b):
        return self.table[a][b]

    def row_perm(self, a) -> Perm:
        return Perm._wrap(self.table[a])

    def row_perms(self):
        return [Perm._wrap(row) for row in self.table]

    def canonical_automorphism(self) -> Perm:
        """The permutation a -> a |> a (trivial exactly for quandles)."""
        return Perm._wrap(tuple(self.table[a][a] for a in range(self.n)))

    def is_quandle(self):
        return all(self.table[a][a] == a for a in range(self.n))

    def untwist(self) -> "RackTable":
        """The quandle on the same set with a |>' b = sigma^(-1)(a |> b)."""
        sigma_inv = self.canonical_automorphism().inverse()
        return RackTable._wrap(tuple(sigma_inv(x) for x in row) for row in self.table)

    def power(self, k: int) -> "RackTable":
        """The rack with each left multiplication replaced by its k-th power."""
        return RackTable._wrap((p**k).images for p in self.row_perms())

    def relabel(self, p: Perm) -> "RackTable":
        """Transport the structure along p: new[p(a)][p(b)] = p(old[a][b])."""
        if p.degree != self.n:
            raise ValueError("degree mismatch")
        n = self.n
        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            pa = p(a)
            for b in range(n):
                rows[pa][p(b)] = p(self.table[a][b])
        return RackTable._wrap(rows)

    def restrict(self, subset) -> "RackTable":
        """The rack on a subrack subset, reindexed order-preservingly;
        repeated points count once."""
        subset = tuple(sorted(set(subset)))
        if not is_subrack(self, subset):
            raise ValueError(f"{subset} is not a subrack")
        index = {x: i for i, x in enumerate(subset)}
        return RackTable._wrap(
            tuple(index[self.table[a][b]] for b in subset) for a in subset
        )

    def __eq__(self, other):
        return isinstance(other, RackTable) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"RackTable({[list(r) for r in self.table]!r})"


# -- constructors -------------------------------------------------------------


def trivial(n: int) -> RackTable:
    """The trivial quandle: a |> b = b."""
    return RackTable._wrap(tuple(range(n)) for _ in range(n))


def permutation_rack(p: Perm) -> RackTable:
    """The rack with a |> b = p(b) for every a."""
    return RackTable._wrap(p.images for _ in range(p.degree))


def cycle_rack(n: int) -> RackTable:
    """The permutation rack of a single n-cycle."""
    return permutation_rack(Perm.from_cycles(n, list(range(n))))


def dihedral(n: int) -> RackTable:
    """The dihedral quandle on Z/n with a |> b = 2a - b."""
    return RackTable._wrap(
        tuple((2 * a - b) % n for b in range(n)) for a in range(n)
    )


def product(r: RackTable, s: RackTable) -> RackTable:
    """Componentwise rack on pairs; (a, b) is indexed as a * |s| + b."""
    return RackTable._wrap(_pair_table(r.table, s.table))


def disjoint_union(r: RackTable, s: RackTable) -> RackTable:
    """Blocks act as given internally and trivially on each other."""
    nr = r.n
    rows = []
    for a in range(nr):
        rows.append(tuple(r.table[a]) + tuple(nr + j for j in range(s.n)))
    for b in range(s.n):
        rows.append(tuple(range(nr)) + tuple(nr + x for x in s.table[b]))
    return RackTable._wrap(rows)


# -- subsets ------------------------------------------------------------------


def is_subrack(r: RackTable, subset) -> bool:
    """True when every element of the subset maps the subset onto itself."""
    return _maps_onto_itself(r, subset, ideal=False)


def is_ideal(r: RackTable, subset) -> bool:
    """True when every element of the rack maps the subset onto itself."""
    return _maps_onto_itself(r, subset, ideal=True)


def _maps_onto_itself(r, subset, ideal):
    """True when every element of the rack (`ideal`) or of the subset maps the subset onto itself."""
    subset = set(subset)
    if not all(0 <= x < r.n for x in subset):
        raise ValueError("subset index out of range")
    return all({r.table[a][b] for b in subset} == subset for a in (range(r.n) if ideal else subset))


def inner_fixed_points(r: RackTable) -> tuple:
    """Elements fixed by every left multiplication (always an ideal)."""
    return tuple(y for y in range(r.n) if all(r.table[x][y] == y for x in range(r.n)))


def trivially_acting_part(r: RackTable) -> tuple:
    """Self-fixed elements that fix every self-fixed element (a subrack)."""
    fixed = [y for y in range(r.n) if r.table[y][y] == y]
    return tuple(
        x for x in fixed if all(r.table[x][y] == y for y in fixed)
    )


def associated_quandle(r: RackTable):
    """Quotient by the orbits of the canonical automorphism sigma.

    Returns (quandle, projection) where projection[x] is the index of the
    orbit of x.  On quandles this is the identity quotient.  Rows are
    constant on sigma-orbits, since L_(a |> a) = L_a L_a L_a^(-1) = L_a, and
    map sigma-orbits onto sigma-orbits, since sigma(a |> b) = a |> sigma(b);
    so one representative per orbit gives the quotient, always a quandle.
    """
    sigma = r.canonical_automorphism()
    orbits = _orbit_partition([sigma.images], range(r.n))
    index = {x: i for i, orbit in enumerate(orbits) for x in orbit}
    projection = tuple(index[x] for x in range(r.n))
    reps = [orbit[0] for orbit in orbits]
    return RackTable._wrap([projection[r.table[a][b]] for b in reps] for a in reps), projection


# -- text format ---------------------------------------------------------------


def _significant_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_header(text, word, symbol, noun):
    """Significant lines of a `<word> <int>` format, with the header parsed.

    Returns (header line number, header integer, the lines after it).
    """
    lines = list(_significant_lines(text))
    if not lines:
        raise FormatError(f"empty input, expected `{word} <{symbol}>` header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != word:
        raise FormatError(f"expected `{word} <{symbol}>`, got {header!r}", lineno)
    try:
        return lineno, int(parts[1]), lines[1:]
    except ValueError:
        raise FormatError(f"bad {noun} {parts[1]!r}", lineno) from None


def _read_int_rows(header_lineno, lines, n):
    """Exactly n rows of n integers, following the header on `header_lineno`."""
    if len(lines) != n:
        raise FormatError(f"expected {n} rows, found {len(lines)}", header_lineno)
    rows = []
    for lineno, line in lines:
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError(f"non-integer entry in {line!r}", lineno) from None
        if len(row) != n:
            raise FormatError(f"row has {len(row)} entries, expected {n}", lineno)
        rows.append(row)
    return rows


def parse_rack(text: str) -> RackTable:
    """Parse the rack text format: header `rack <n>`, then n rows of n entries."""
    lineno, n, lines = _read_header(text, "rack", "n", "order")
    if n < 0:
        raise FormatError(f"negative order {n}", lineno)
    return RackTable(_read_int_rows(lineno, lines, n))


def format_rack(r: RackTable) -> str:
    lines = [f"rack {r.n}"]
    lines.extend(" ".join(map(str, row)) for row in r.table)
    return "\n".join(lines) + "\n"


def load_rack(path) -> RackTable:
    return parse_rack(_read_text(path))


def _read_text(path):
    """The text of the file at `path`; an unreadable file, or one that is not
    UTF-8, is a FormatError that names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path}: not UTF-8 (byte {exc.start})") from None


def _write_text(path, text):
    """Replace `path` by a file holding `text`: write a temporary file in the
    same directory, then rename it over `path`, so readers and crashes see
    the old content or the new, never a partial file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_rack(r: RackTable, path):
    _write_text(path, format_rack(r))
