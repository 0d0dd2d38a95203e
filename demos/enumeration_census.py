"""Counting racks and quandles up to isomorphism.

The generator branches over whole rows under the conjugation constraint.
A canonical first row, a maximal-type rule and orbit pruning under the
permutations that keep the assigned rows cut symmetry, and a connected
search offers only rows of the first row's cycle type; canonical keys
deduplicate the survivors.  The whole census takes about two seconds.
"""

import time

from rackring import ClassRegistry, EnumerationFilter, count, populate_registry

print("racks by order:")
for n in range(7):
    t0 = time.time()
    c = count(EnumerationFilter(n))
    print(f"  order {n}: {c:4d} classes  ({time.time() - t0:5.2f}s)")

print()
print("quandles by order:")
for n in range(8):
    t0 = time.time()
    c = count(EnumerationFilter(n, quandle_only=True))
    print(f"  order {n}: {c:4d} classes  ({time.time() - t0:5.2f}s)")

print()
print("connected quandles by order (the basis of the quandle monoid):")
for n in range(1, 9):
    t0 = time.time()
    c = count(EnumerationFilter(n, quandle_only=True, connected_only=True))
    print(f"  order {n}: {c:4d} classes  ({time.time() - t0:5.2f}s)")

print()
registry = ClassRegistry()
added = 0
for n in range(1, 6):
    added += populate_registry(EnumerationFilter(n), registry)
print(f"registry populated with the {added} connected classes of order <= 5:")
for entry in registry.entries():
    kind = "quandle" if entry.quandle else "rack"
    print(f"  id {entry.id}: order {entry.order} {kind}")
