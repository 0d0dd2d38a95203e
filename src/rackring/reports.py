"""Exploratory surveys that report findings without asserting them.

Each function here investigates a question the library cannot settle by
computation alone at small orders; callers get structured findings to
inspect.  Nothing in this module is used by the core arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .burnside import BurnsideRing
from .canonical import canonical_key
from .enumeration import EnumerationFilter, enumerate_racks
from .groups import (
    CrossedGSet,
    check_coset_pair,
    crossed_to_rack,
    cyclic_group,
    diagonal_product_fixed_group,
    dihedral_group,
    group_from_permutations,
    is_equivalence,
    rack_to_crossed,
    symmetric_group,
    transitive_crossed,
)
from .racks import is_ideal, trivially_acting_part
from .structure import enumerate_decompositions


@dataclass
class SurveyResult:
    description: str
    checked: int = 0
    findings: list = field(default_factory=list)


def trivially_acting_part_ideal_survey(max_order: int = 5) -> SurveyResult:
    """Is the trivially-acting part always an ideal?  Record the outcomes."""
    result = SurveyResult("trivially-acting part: subrack always; ideal?")
    for order in range(max_order + 1):
        for table in enumerate_racks(EnumerationFilter(order)):
            subset = trivially_acting_part(table)
            result.checked += 1
            if not is_ideal(table, subset):
                result.findings.append((canonical_key(table).hex(), subset))
    return result


def decomposition_cancellation_search(max_order: int = 6) -> SurveyResult:
    """Search for racks with decompositions S1|T1, S2|T2 where T1 and T2 are
    isomorphic but S1 and S2 are not (no connectivity assumed)."""
    result = SurveyResult("cancellation of decomposition complements without connectivity")
    for order in range(2, max_order + 1):
        for table in enumerate_racks(EnumerationFilter(order)):
            pairs = []
            for left, right in enumerate_decompositions(table):
                for s, t in ((left, right), (right, left)):
                    pairs.append(
                        (
                            canonical_key(table.restrict(s)),
                            canonical_key(table.restrict(t)),
                            s,
                            t,
                        )
                    )
            result.checked += 1
            for i, (s1, t1, ss1, _) in enumerate(pairs):
                for s2, t2, ss2, _ in pairs[i + 1 :]:
                    if t1 == t2 and s1 != s2:
                        result.findings.append(
                            (canonical_key(table).hex(), ss1, ss2)
                        )
    return result


def prime_factorization_ambiguity_scan(max_order: int = 8) -> SurveyResult:
    """Look for connected quandles admitting two distinct prime factorizations."""
    ring = BurnsideRing()
    result = SurveyResult("uniqueness of prime quandle factorizations")
    memo = {}

    def all_factorizations(class_id):
        if class_id not in memo:
            q = ring.registry.entry(class_id).table
            out = {
                tuple(sorted(fl + fr))
                for a_id, b_id in ring.splits(q)
                for fl in all_factorizations(a_id)
                for fr in all_factorizations(b_id)
            }
            memo[class_id] = out or ({()} if q.n == 1 else {(class_id,)})
        return memo[class_id]

    for order in range(1, max_order + 1):
        for class_id in ring.connected_quandle_classes(order):
            factorizations = all_factorizations(class_id)
            result.checked += 1
            if len(factorizations) > 1:
                result.findings.append((ring.registry.entry(class_id).key.hex(), sorted(factorizations)))
    return result


def _small_crossed_sets(max_group_order: int = 12) -> list:
    """A spread of transitive crossed sets over small groups."""
    groups = [cyclic_group(n) for n in range(1, 7)]
    groups.append(symmetric_group(3))
    groups.append(dihedral_group(8))
    groups.append(dihedral_group(12))
    out = []
    for group in groups:
        if group.n > max_group_order:
            continue
        seen_subgroups = set()
        for gen in range(group.n):
            subgroup = group.subgroup_from([gen])
            if subgroup in seen_subgroups:
                continue
            seen_subgroups.add(subgroup)
            centralizing = [a for a in range(group.n) if check_coset_pair(group, subgroup, a)[1]]
            for a in centralizing[:3]:
                out.append(transitive_crossed(group, subgroup, a))
    return out


def diagonal_product_experiment(max_group_order: int = 12) -> SurveyResult:
    """Compare classes of diagonal-product racks with ring products of the
    factor classes; agreements and disagreements are both recorded."""
    ring = BurnsideRing()
    result = SurveyResult("diagonal crossed product versus ring product of images")
    crossed = _small_crossed_sets(max_group_order)
    by_group = {}
    for x in crossed:
        by_group.setdefault(id(x.group), []).append(x)
    for sets in by_group.values():
        for i, x in enumerate(sets):
            for y in sets[i:]:
                diag = diagonal_product_fixed_group(x, y)
                lhs = ring.of_rack(crossed_to_rack(diag))
                rhs = ring.mul(
                    ring.of_rack(crossed_to_rack(x)), ring.of_rack(crossed_to_rack(y))
                )
                result.checked += 1
                result.findings.append(
                    {
                        "group_order": x.group.n,
                        "sizes": (x.size, y.size),
                        "agree": lhs == rhs,
                    }
                )
    return result


def inner_crossed_variant_check(max_order: int = 4) -> SurveyResult:
    """The crossing of a rack lands in its inner group; check that crossing
    over the inner group is equivalent to crossing over the full
    automorphism group for every small rack."""
    result = SurveyResult("inner versus full automorphism group as crossing target")
    for order in range(1, max_order + 1):
        for table in enumerate_racks(EnumerationFilter(order)):
            full = rack_to_crossed(table)
            rows = [table.row_perm(a) for a in range(table.n)]
            group, elements = group_from_permutations(table.n, rows)
            inner = CrossedGSet(group, table.n, tuple(elements), tuple(elements.index(row) for row in rows))
            mapping = [full.action.index(p) for p in elements]
            ok = is_equivalence(mapping, list(range(table.n)), inner, full)
            result.checked += 1
            if not ok:
                result.findings.append(canonical_key(table).hex())
    return result
