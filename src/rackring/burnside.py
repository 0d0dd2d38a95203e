"""Burnside rings of finite racks and quandles.

Elements are sparse integer vectors over registered connected isomorphism
classes; the class of a rack is the sum of its maximal connected parts, and
multiplication extends cartesian products of representatives bilinearly.
The module also hosts the ring maps to and from cycle vectors, the untwist
retraction onto quandle classes, power operations, and prime-quandle
factorization.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .canonical import canonical_form, canonical_key, key_table, table_bytes
from .cycles import CycleVector, SparseVector
from .racks import FormatError, RackTable, _significant_lines, cycle_rack, product, trivial
from .structure import connected_parts, is_connected, profile

# Largest basis product BurnsideRing tabulates: (c2 x d15) x d5, of order 150,
# takes 0.4-0.6 s CPU on an Intel Xeon host (1.4-1.6 s keying the product of
# the constructors' tables); two classes of order 27 (729) ran for over 10 minutes.
MAX_PRODUCT_ORDER = 150


class ClassEntry(namedtuple("ClassEntry", "id key order table quandle")):
    # `table` is the canonical representative, the rack that `key` encodes
    __slots__ = ()


class ClassRegistry:
    """Registry of connected isomorphism classes with stable integer ids.

    A plain in-memory index: ids are assigned in registration order, and
    `_add` is the only code that adds entries.  Processes sharing a
    workspace are serialized by the workspace's file lock, not here.
    """

    def __init__(self):
        self._by_key = {}
        self._by_id = []

    def __len__(self):
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id)

    def register(self, table: RackTable) -> int:
        """Return the id of the class of `table`, registering it if new."""
        form, _ = canonical_form(table)
        key = table_bytes(form)
        entry = self._by_key.get(key)
        if entry is not None:
            return entry.id
        if not is_connected(form):
            raise ValueError("only connected classes may be registered")
        return self._add(key, form)

    def _add(self, key: bytes, table: RackTable) -> int:
        entry = ClassEntry(len(self._by_id), key, table.n, table, table.is_quandle())
        self._by_id.append(entry)
        self._by_key[key] = entry
        return entry.id

    def entry(self, class_id: int) -> ClassEntry:
        return self._by_id[class_id]

    def by_key(self, key: bytes):
        return self._by_key.get(key)

    def entries(self):
        return list(self._by_id)

    def merge_entry(self, class_id: int, key: bytes):
        """Install a stored entry under its stored id (registry file loading).

        The checks need no canonical search: ids are contiguous, the key
        decodes to a connected rack, and no earlier entry has the same key.
        Whether the key is canonical is checked by `rackring registry --check`.
        """
        if class_id != len(self._by_id):
            raise ValueError(f"ids must be contiguous; expected {len(self._by_id)}, got {class_id}")
        table = key_table(key)
        if not is_connected(table):
            raise ValueError("only connected classes may be registered")
        if key in self._by_key:
            raise ValueError(f"duplicate of class {self._by_key[key].id}")
        self._add(key, table)


class BurnsideElement(SparseVector):
    """Sparse integer vector over class ids; missing ids read as 0."""


class BurnsideRing:
    """Ring operations over a class registry."""

    def __init__(self, registry: ClassRegistry | None = None):
        self.registry = registry if registry is not None else ClassRegistry()
        self.product_memo = {}
        self._quandle_classes = {}

    # -- basis ------------------------------------------------------------

    def of_rack(self, r: RackTable) -> BurnsideElement:
        """Sum of the classes of the maximal connected parts of r."""
        out = BurnsideElement()
        for part in connected_parts(r):
            out._bump(self.registry.register(r.restrict(part)), 1)
        return out

    def class_of(self, r: RackTable) -> BurnsideElement:
        """Basis element of a connected rack."""
        if not is_connected(r):
            raise ValueError("class_of requires a connected rack")
        return BurnsideElement({self.registry.register(r): 1})

    def singleton_id(self) -> int:
        return self.registry.register(trivial(1))

    def one(self) -> BurnsideElement:
        return BurnsideElement({self.singleton_id(): 1})

    # -- ring structure -----------------------------------------------------

    def mul(self, x: BurnsideElement, y: BurnsideElement) -> BurnsideElement:
        out = BurnsideElement()
        for i, a in x.items():
            for j, b in y.items():
                for k, c in self._basis_product(i, j).items():
                    out._bump(k, a * b * c)
        return out

    def _basis_product(self, i, j) -> BurnsideElement:
        pair = (i, j) if i <= j else (j, i)
        memo = self.product_memo.get(pair)
        if memo is None:
            left = self.registry.entry(pair[0]).table
            right = self.registry.entry(pair[1]).table
            if left.n * right.n > MAX_PRODUCT_ORDER:
                raise ValueError(
                    f"product of classes of orders {left.n} and {right.n} exceeds the product bound {MAX_PRODUCT_ORDER}"
                )
            memo = self.of_rack(product(left, right))
            self.product_memo[pair] = memo
        return memo

    def _map_representatives(self, x: BurnsideElement, transform) -> BurnsideElement:
        """Extend a rack transform linearly through the class representatives."""
        out = BurnsideElement()
        for i, a in x.items():
            for j, c in self.of_rack(transform(self.registry.entry(i).table)).items():
                out._bump(j, a * c)
        return out

    def power(self, x: BurnsideElement, k: int) -> BurnsideElement:
        """Replace every representative's operation by its k-th iterate."""
        return self._map_representatives(x, lambda table: table.power(k))

    def untwist(self, x: BurnsideElement) -> BurnsideElement:
        """Retraction onto quandle classes: untwist each representative."""
        return self._map_representatives(x, RackTable.untwist)

    # -- maps to and from cycle vectors ---------------------------------------

    def from_cycles(self, u: CycleVector) -> BurnsideElement:
        """Section sending the n-cycle symbol to the n-cycle permutation rack."""
        out = BurnsideElement()
        for length, coeff in u.items():
            out._bump(self.registry.register(cycle_rack(length)), coeff)
        return out

    def to_cycles(self, x: BurnsideElement) -> CycleVector:
        """Cycle type of the canonical automorphism, extended linearly."""
        out = CycleVector()
        for i, a in x.items():
            table = self.registry.entry(i).table
            out = out + a * table.canonical_automorphism().cycle_type()
        return out

    def profile(self, x: BurnsideElement) -> CycleVector:
        """Cycle type of any left multiplication, extended linearly."""
        out = CycleVector()
        for i, a in x.items():
            out = out + a * profile(self.registry.entry(i).table)
        return out

    # -- integer marks ---------------------------------------------------------

    def singleton_coefficient(self, x: BurnsideElement) -> int:
        """Coefficient of the one-point class."""
        return x.get(self.singleton_id(), 0)

    def cardinality(self, x: BurnsideElement) -> int:
        return sum(coeff * self.registry.entry(i).order for i, coeff in x.items())

    # -- prime quandles ----------------------------------------------------------

    def connected_quandle_classes(self, order: int) -> list:
        """Ids of all connected quandle classes of the given order."""
        cached = self._quandle_classes.get(order)
        if cached is None:
            from . import enumeration  # only prime factorisation enumerates

            filt = enumeration.EnumerationFilter(order, quandle_only=True, connected_only=True)
            cached = [self.registry.register(t) for t in enumeration.enumerate_racks(filt)]
            self._quandle_classes[order] = cached
        return cached

    def _check_connected_quandle(self, q: RackTable):
        if not q.is_quandle() or not is_connected(q):
            raise ValueError("expected a connected quandle")

    def is_prime_quandle(self, q: RackTable) -> bool:
        """No factorization q = A x B with both factors of order > 1."""
        self._check_connected_quandle(q)
        if q.n < 2:
            raise ValueError("primality is only defined for order >= 2")
        return next(self.splits(q), None) is None

    def splits(self, q: RackTable):
        """Yield every pair (A_id, B_id) of connected quandle classes with
        A x B isomorphic to q and 2 <= |A| <= |B|, smallest |A| first."""
        n = q.n
        target = canonical_key(q)
        for d in range(2, isqrt(n) + 1):
            if n % d:
                continue
            for a_id in self.connected_quandle_classes(d):
                left = self.registry.entry(a_id).table
                for b_id in self.connected_quandle_classes(n // d):
                    right = self.registry.entry(b_id).table
                    if canonical_key(product(left, right)) == target:
                        yield a_id, b_id

    def factor_quandle(self, q: RackTable) -> list:
        """Multiset of prime-class ids whose product is isomorphic to q."""
        self._check_connected_quandle(q)
        if q.n == 1:
            return []
        split = next(self.splits(q), None)
        if split is None:
            return [self.registry.register(q)]
        a_id, b_id = split
        left = self.factor_quandle(self.registry.entry(a_id).table)
        right = self.factor_quandle(self.registry.entry(b_id).table)
        return sorted(left + right)


# -- text formats -------------------------------------------------------------


def render_element(x: BurnsideElement, registry: ClassRegistry) -> str:
    """Display form `3 * [<hex key>] + ...`, terms ordered by class id."""
    if not x:
        return "0"
    terms = []
    for class_id in sorted(x):
        key = registry.entry(class_id).key
        terms.append(f"{x[class_id]} * [{key.hex()}]")
    return " + ".join(terms)


def format_element(x: BurnsideElement, registry: ClassRegistry) -> str:
    """File form: one `<coefficient> <hex key>` line per class."""
    lines = [f"{x[i]} {registry.entry(i).key.hex()}" for i in sorted(x)]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_element(text: str, registry: ClassRegistry) -> BurnsideElement:
    """Parse the file form; keys are self-describing and register themselves."""
    return register_terms(decode_element(text), registry)


def decode_element(text: str) -> list:
    """The `(coefficient, table)` terms of the file form, in line order;
    touches no registry, so bad input fails before any workspace is used."""
    terms = []
    for lineno, line in _significant_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("expected `<coefficient> <hex key>`", lineno)
        try:
            coeff = int(parts[0])
            key = bytes.fromhex(parts[1])
        except ValueError:
            raise FormatError("bad coefficient or key", lineno) from None
        try:
            table = key_table(key)
        except ValueError as exc:
            raise FormatError(f"malformed key: {exc}", lineno) from None
        if not is_connected(table):
            raise FormatError("key is not a connected rack", lineno)
        terms.append((coeff, table))
    return terms


def register_terms(terms, registry: ClassRegistry) -> BurnsideElement:
    """The element sum of coefficient * class over decoded terms."""
    return BurnsideElement((registry.register(table), coeff) for coeff, table in terms)
